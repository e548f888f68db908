"""One workload run: set-up, measured phases, reference check, report.

An untraced run (``trace=False``) gives the end-to-end metrics:

* ``setup_s`` — process start to the end of set-up: the imports plus the
  median of ``setup_repeats`` full set-ups (graph, training, export, save,
  load, session, engine, warm-up);
* ``p50_ms`` — median open-loop latency from scheduled send, successful
  queries only;
* ``max_qps`` — the median over rounds of the one-client closed loop's
  successful queries per second;
* ``peak_rss_mb`` — peak resident memory while the phases run (the
  kernel's high-water mark is reset after set-up, so training's peak does
  not hide the serving footprint).

A traced run splits its time in two: the first half repeats the untraced
phases, the second half runs them again with every span wrapper
installed.  Its per-layer metrics come from the second half, the ratio of
the two halves is the tracing overhead, and the untraced half also gives
``tail_ms``, ``slo_miss_rate``, ``failure_rate`` and ``update_ms``.  Every
run records all of those, with the sample counts behind them, in its meta.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy

from servebench import spec
from servebench.phases import Phase, closed_loop, open_loop
from servebench.reference import check
from servebench.setup import Server, timed_set_up
from servebench.tracing import Tracer, TracingBackend, install, layer_metrics
from servebench.traffic import poisson_offsets
from repro.kernels import resolve_backend

#: Percentiles ``tail_ms`` may report, highest first: the conventional
#: ladder, so p90 needs 100 samples and p99 needs 1000.
TAIL_PERCENTILES = (99.0, 90.0, 75.0, 50.0)
#: Samples a tail percentile needs beyond it.
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """What a run prints: the result line, its metadata, its exit status."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    meta: Dict[str, Any] = field(default_factory=dict)
    valid: bool = True


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond."""
    count = len(latencies)
    for percentile in TAIL_PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= TAIL_BEYOND:
            return percentile, float(np.percentile(latencies, percentile))
    return 100.0, float(max(latencies))


def _peak_rss_reset() -> None:
    """Restart the kernel's peak-RSS counter (VmHWM) at the window start."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded (None if not found)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines()
                        if "openblas" in line.lower() and ".so" in line})
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _phases(server: Server, table: spec.Table, seconds: float, seed: int,
            first_id: int, tracer: Optional[Tracer] = None
            ) -> Tuple[Phase, Phase]:
    """The open and closed phases, interleaved in ``table.rounds`` rounds.

    Interleaving spreads both phases over the whole run, so a slow spell
    of the machine lands in both rather than in one of them, and the
    median of the closed rounds' rates shrugs off such a spell.
    """
    workload = server.workload
    open_seconds = seconds * table.open_loop_share / table.rounds
    closed_seconds = seconds * (1.0 - table.open_loop_share) / table.rounds
    count = max(1, round(workload.open_qps * open_seconds))
    offsets = poisson_offsets(workload.open_qps, count * table.rounds, seed)
    on_submit = None if tracer is None else tracer.on_submit
    opened, closed = Phase(), Phase()
    next_id = first_id
    for round_index in range(table.rounds):
        chunk = offsets[round_index * count:(round_index + 1) * count]
        part = open_loop(server, chunk - chunk[0], next_id, on_submit)
        opened.extend(part)
        next_id += len(part.queries)
        part = closed_loop(server, closed_seconds, next_id,
                           on_submit=on_submit)
        closed.extend(part)
        next_id += len(part.queries)
    return opened, closed


def serving_metrics(opened: Phase, closed: Phase,
                    limit_ms: float) -> Dict[str, Any]:
    """End-to-end numbers of one open + closed phase pair."""
    latencies = [query.latency_ms for query in opened.queries if query.ok]
    percentile, tail_ms = tail(latencies) if latencies else (0.0, 0.0)
    missed = sum(not query.ok or query.latency_ms > limit_ms
                 for query in opened.queries)
    updates = [update.latency_ms for phase in (opened, closed)
               for update in phase.updates]
    return {
        "p50_ms": float(np.median(latencies)) if latencies else 0.0,
        "tail_ms": tail_ms,
        "tail_percentile": percentile,
        "latency_samples": len(latencies),
        "latency_p99_ms": float(np.percentile(latencies, 99))
        if latencies else 0.0,
        "latency_max_ms": max(latencies) if latencies else 0.0,
        "slo_miss_rate": missed / max(len(opened.queries), 1),
        "max_qps": float(np.median(closed.stretch_qps())),
        "closed_samples": closed.succeeded,
        "update_ms": float(np.median(updates)) if updates else 0.0,
        "update_samples": len(updates),
        "send_lag_p99_ms": float(np.percentile(opened.send_lag_ms, 99))
        if opened.send_lag_ms else 0.0,
    }


def _meta(server: Server, table: spec.Table, seed: int, seconds: float,
          traced: bool) -> Dict[str, Any]:
    session, engine = server.session, server.engine
    workload = server.workload
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": traced, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "backend": session.backend_name,
        "engine": {"max_batch": engine.max_batch,
                   "max_wait_ms": engine.max_wait_ms,
                   "workers": engine.engine.workers,
                   "dedup_seeds": engine.engine.dedup_seeds},
        "session": {"fanouts": list(session.sampler.fanouts),
                    "batch_size": session.batch_size,
                    "sampler_seed": session.sampler.seed,
                    "cache_entries": spec.CACHE_ENTRIES if workload.cache else 0,
                    "cache_bytes": spec.CACHE_BYTES if workload.cache else 0},
        "request_seeds": spec.REQUEST_SEEDS,
        "open_qps": workload.open_qps,
        "latency_limit_ms": workload.latency_limit_ms,
        "open_loop_share": table.open_loop_share,
        "load_threads": 1,
    }


def _layer_metrics(tracer: Tracer, plain: Dict[str, Any],
                   traced: Dict[str, Any], phases: Tuple[Phase, ...],
                   cache_before: Any, cache_after: Any,
                   failure_rate: float) -> Dict[str, float]:
    """Per-layer metrics of the traced half, plus the end-to-end numbers
    the untraced half gives that are not gated (they may be 0)."""
    evictions = 0 if cache_before is None \
        else cache_after.evictions - cache_before.evictions
    layers = layer_metrics(
        tracer, sum(len(phase.queries) for phase in phases),
        sum(len(phase.updates) for phase in phases), evictions,
        0 if cache_after is None else cache_after.bytes)
    layers.update({
        "gen.send_lag_ms": traced["send_lag_p99_ms"],
        "tail_ms": plain["tail_ms"],
        "update_ms": plain["update_ms"],
        "slo_miss_rate": plain["slo_miss_rate"],
        "failure_rate": failure_rate,
        "trace.overhead_p50": traced["p50_ms"] / plain["p50_ms"],
        "trace.overhead_qps": traced["max_qps"] / plain["max_qps"],
    })
    return layers


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 started: float) -> Outcome:
    """Run one workload in this process; ``started`` is the process start."""
    table = spec.load_table()
    workload = table.workloads[name]
    out_dir = spec.OUT_DIR
    tracer = Tracer() if traced else None
    factory = None if tracer is None \
        else (lambda: TracingBackend(resolve_backend(None), tracer))
    setup_started = time.perf_counter()
    server, setup_times = timed_set_up(workload, seed, table.warmup_requests,
                                       out_dir, table.setup_repeats,
                                       backend_factory=factory)
    gc.collect()
    setup_s = (setup_started - started) + statistics.median(setup_times)
    meta = _meta(server, table, seed, seconds, traced)
    meta.update({"setup_runs_s": setup_times,
                 "setup_imports_s": setup_started - started})

    _peak_rss_reset()
    traced_phases: Tuple[Phase, ...] = ()
    if tracer is None:
        plain = _phases(server, table, seconds, seed, 0)
    else:
        # Half untraced, half traced: the same process gives the overhead.
        plain = _phases(server, table, seconds / 2, seed, 0)
        cache_before = server.session.cache_stats()
        uninstall = install(tracer, server)
        try:
            traced_phases = _phases(
                server, table, seconds / 2, seed,
                sum(len(phase.queries) for phase in plain), tracer)
        finally:
            uninstall()
        cache_after = server.session.cache_stats()
    peak_rss_mb = _peak_rss_mb()
    server.close()

    queries = [query for phase in plain + traced_phases
               for query in phase.queries]
    mismatches = check(workload, server.artifact, server.initial_graph,
                       server.applied, queries)
    failed = sum(not query.ok for query in queries)
    failure_rate = failed / max(len(queries), 1)
    measured = serving_metrics(*plain, workload.latency_limit_ms)
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "p50_ms": (measured["p50_ms"], "ms"),
                   "max_qps": (measured["max_qps"], "req/s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        with_spans = serving_metrics(*traced_phases, workload.latency_limit_ms)
        layers = _layer_metrics(tracer, measured, with_spans, traced_phases,
                                cache_before, cache_after, failure_rate)
        metrics = {key: (value, LAYER_UNITS[key])
                   for key, value in layers.items()}
        meta["trace_overhead"] = {
            key: {"untraced": measured[key], "traced": with_spans[key]}
            for key in ("p50_ms", "max_qps")}
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"spans-{name}-seed{seed}.jsonl", extra=[
            {"name": "request", "context": f"request:{query.request_id}",
             "start_ns": int(query.sent * 1e9), "end_ns": int(query.done * 1e9),
             "ok": query.ok}
            for phase in traced_phases for query in phase.queries])

    meta.update({key: measured[key] for key in (
        "tail_ms", "tail_percentile", "latency_samples", "latency_p99_ms",
        "latency_max_ms", "closed_samples", "update_samples",
        "slo_miss_rate", "update_ms", "send_lag_p99_ms")})
    valid = measured["send_lag_p99_ms"] <= table.max_send_lag_ms
    meta.update({"peak_rss_mb": peak_rss_mb, "failure_rate": failure_rate,
                 "mismatches": mismatches, "valid": valid})
    return Outcome(correct=mismatches == 0, attempted=len(queries),
                   failed=failed, metrics=metrics, meta=meta, valid=valid)


LAYER_UNITS = {
    "engine.queue_wait_ms": "ms", "engine.flush_ms": "ms",
    "engine.requests_per_flush": "req", "engine.dedup_ratio": "ratio",
    "session.run_ms": "ms", "session.self_ms": "ms",
    "session.gbitops": "GBitOPs", "session.edges": "count",
    "sampling.sample_ms": "ms", "sampling.input_nodes": "count",
    "sampling.refresh_ms": "ms",
    "cache.lookup_ms": "ms", "cache.put_ms": "ms", "cache.hit_rate": "ratio",
    "cache.batch_hit_rate": "ratio", "cache.bytes_mb": "MB",
    "cache.evictions": "count",
    "operator.build_ms": "ms",
    **{f"kernels.{op}_{suffix}": unit
       for op in ("spmm", "edge_spmm", "linear_requant", "weight_matrix",
                  "gat_scores", "edge_softmax")
       for suffix, unit in (("ms", "ms"), ("calls", "count"))},
    "kernels.mb_moved": "MB",
    "stream.apply_update_ms": "ms", "stream.apply_delta_ms": "ms",
    "stream.region_ms": "ms", "stream.region_nodes": "count",
    "stream.invalidate_ms": "ms", "stream.invalidated_entries": "count",
    "gen.send_lag_ms": "ms", "tail_ms": "ms", "update_ms": "ms", "slo_miss_rate": "ratio",
    "failure_rate": "ratio", "trace.overhead_p50": "ratio",
    "trace.overhead_qps": "ratio",
}
