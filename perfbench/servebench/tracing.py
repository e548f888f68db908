"""Outside-in tracing: spans recorded around the public calls of each layer.

The traced run wraps, from the benchmark's own code:

* the kernel backend — :class:`TracingBackend`, passed as ``backend=``
  around the instance the library default resolves to;
* instance attributes of the served objects: the async engine's inner
  ``ServingEngine`` (``submit`` / ``flush``), the session (``run`` /
  ``apply_update``), ``session.sampler`` (``sample`` / ``refresh_graph``)
  and ``session.cache`` (lookups, puts, ``invalidate_nodes``);
* class-level methods: ``SubgraphBlock.adjacency`` /
  ``normalized_adjacency`` and ``Graph.apply_delta``;
* module names as the session looks them up:
  ``repro.serving.session.attention_edges`` and
  ``repro.streaming.affected_region``.

Each span records its name, start, end, parent span and the flush or
update it belongs to, plus the counts observed at that boundary.  Spans
stay in memory and are written as JSON lines when the run ends.  A span's
self time is its duration minus the time its children cover.

:func:`layer_metrics` turns the spans of a traced window into the
per-layer metrics.  Times and counts are per measured request unless the
name says otherwise: ``engine.flush_ms`` / ``engine.requests_per_flush``
are per flush, ``stream.*`` and ``sampling.refresh_ms`` per update.
"""

from __future__ import annotations

import collections
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

import repro.serving.session as session_module
import repro.streaming as streaming_module
from repro.graphs.graph import Graph
from repro.graphs.sampling import SubgraphBlock

#: Kernel-backend methods traced as ``kernels.<op>``.
KERNEL_OPS = ("spmm", "edge_spmm", "linear_requant", "weight_matrix",
              "gat_scores", "edge_softmax")

Counts = Optional[Dict[str, Any]]


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    context: Optional[str]
    counts: Counts

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Request ids in submit order, and each request's submit time.
        self.submitted: Deque[int] = collections.deque()
        self.submit_ns: Dict[int, int] = {}

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def on_submit(self, request_id: int) -> None:
        """Called by the load generator right before each submit."""
        self.submit_ns[request_id] = time.perf_counter_ns()
        self.submitted.append(request_id)

    def wrap(self, name: str, fn: Callable,
             counts: Optional[Callable[[tuple, Any], Counts]] = None,
             context: Optional[Callable[[], str]] = None) -> Callable:
        """``fn`` recording one span per call while the tracer is active."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent, inherited = stack[-1] if stack else (None, None)
            span_id = next(tracer._ids)
            stack.append((span_id, context() if context else inherited))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _, own_context = stack.pop()
            tracer.spans.append(Span(
                span_id, name, start, end, parent, own_context,
                counts(args, result) if counts else None))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path: Path, extra: Sequence[Dict[str, Any]] = ()) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "parent": span.parent, "context": span.context,
                    "counts": span.counts}) + "\n")
            for record in extra:
                handle.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------- #
# what each boundary counts
# --------------------------------------------------------------------------- #
def _nbytes(value: Any) -> int:
    """Computed bytes of an operand or result (arrays, CSR, weight plans)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(item) for item in value)
    csr = getattr(value, "csr", None)
    if csr is not None:
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    integers = getattr(value, "integers", None)
    if isinstance(integers, np.ndarray):
        return int(integers.nbytes)
    return 0


def _kernel_counts(args: tuple, result: Any) -> Counts:
    return {"bytes": _nbytes(args) + _nbytes(result)}


def _run_counts(args: tuple, run: Any) -> Counts:
    return {"gbitops": run.giga_bit_operations(), "edges": int(run.num_edges),
            "input_nodes": int(run.num_input_nodes),
            "seeds": int(run.num_seeds)}


def _sample_counts(args: tuple, batch: Any) -> Counts:
    return {"input_nodes": int(batch.input_nodes.shape[0])}


def _rows_counts(args: tuple, entries: list) -> Counts:
    return {"lookups": len(entries),
            "hits": sum(entry is not None for entry in entries)}


def _batch_counts(args: tuple, batch: Any) -> Counts:
    return {"lookups": 1, "hits": int(batch is not None)}


def _region_counts(args: tuple, region: np.ndarray) -> Counts:
    return {"nodes": int(region.shape[0])}


def _invalidate_counts(args: tuple, evicted: int) -> Counts:
    return {"entries": int(evicted)}


class TracingBackend:
    """Kernel backend forwarding to ``inner``, one span per kernel call."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        for op in KERNEL_OPS:
            setattr(self, op, tracer.wrap(f"kernels.{op}", getattr(inner, op),
                                          _kernel_counts))

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.inner, attr)


def install(tracer: Tracer, server: Any) -> Callable[[], None]:
    """Wrap every traced boundary of ``server``; returns the undo."""
    undo: List[Callable[[], None]] = []
    session = server.session

    def on_instance(obj: Any, attr: str, name: str, counts=None,
                    context=None) -> None:
        setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), counts,
                                       context))
        undo.append(lambda: delattr(obj, attr))

    def on_owner(owner: Any, attr: str, name: str, counts=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, counts))
        undo.append(lambda: setattr(owner, attr, original))

    # Engine: the dispatcher submits a flush's requests (in FIFO order) to
    # the inner engine, then calls its flush.
    inner = server.engine.engine
    flushes = itertools.count()
    batch: List[Tuple[int, np.ndarray]] = []
    flush_counts: List[Counts] = []

    def submit(nodes, _submit=inner.submit):
        batch.append((tracer.submitted.popleft(), np.asarray(nodes)))
        return _submit(nodes)

    traced_flush = tracer.wrap(
        "engine.flush", inner.flush, lambda args, result: flush_counts.pop(),
        context=lambda: f"flush:{next(flushes)}")

    def flush(_flush=traced_flush):
        taken = list(batch)
        batch.clear()
        seeds = np.concatenate([nodes for _, nodes in taken]) if taken \
            else np.empty(0, dtype=np.int64)
        flush_counts.clear()
        flush_counts.append({"requests": [rid for rid, _ in taken],
                             "seeds": int(seeds.shape[0]),
                             "distinct": int(np.unique(seeds).shape[0])})
        return _flush()

    inner.submit = submit
    inner.flush = flush
    undo.append(lambda: (delattr(inner, "submit"), delattr(inner, "flush")))

    updates = itertools.count()
    on_instance(session, "run", "session.run", _run_counts)
    on_instance(session, "apply_update", "stream.apply_update",
                context=lambda: f"update:{next(updates)}")
    on_instance(session.sampler, "sample", "sampling.sample", _sample_counts)
    on_instance(session.sampler, "refresh_graph", "sampling.refresh")
    if session.cache is not None:
        cache = session.cache
        on_instance(cache, "get_rows", "cache.get_rows", _rows_counts)
        on_instance(cache, "get_batch", "cache.get_batch", _batch_counts)
        for attr in ("put_raw_rows", "put_capped_rows", "put_batch"):
            on_instance(cache, attr, "cache.put")
        on_instance(cache, "invalidate_nodes", "stream.invalidate",
                    _invalidate_counts)
    on_owner(SubgraphBlock, "adjacency", "operator.adjacency")
    on_owner(SubgraphBlock, "normalized_adjacency", "operator.adjacency")
    on_owner(Graph, "apply_delta", "stream.apply_delta")
    on_owner(session_module, "attention_edges", "operator.attention_edges")
    on_owner(streaming_module, "affected_region", "stream.region",
             _region_counts)
    tracer.active = True

    def uninstall() -> None:
        tracer.active = False
        for step in reversed(undo):
            step()

    return uninstall


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
def self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    covered: Dict[int, int] = collections.defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration_ns
    return {span.span_id: max(span.duration_ns - covered[span.span_id], 0)
            for span in spans}


def layer_metrics(tracer: Tracer, requests: int, updates: int,
                  evictions: int, cache_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced window (see the module docstring)."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = collections.defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total_ms(name: str, self_only: bool = False) -> float:
        return sum(own[span.span_id] if self_only else span.duration_ns
                   for span in by_name[name]) / 1e6

    def count(name: str, key: str) -> float:
        return float(sum(span.counts[key] for span in by_name[name]))

    def share(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    flushes = by_name["engine.flush"]
    waits = [(flush.start_ns - tracer.submit_ns[rid]) / 1e6
             for flush in flushes for rid in flush.counts["requests"]]
    metrics = {
        "engine.queue_wait_ms": float(np.mean(waits)) if waits else 0.0,
        "engine.flush_ms": share(total_ms("engine.flush"), len(flushes)),
        "engine.requests_per_flush": share(
            sum(len(flush.counts["requests"]) for flush in flushes),
            len(flushes)),
        "engine.dedup_ratio": share(count("engine.flush", "distinct"),
                                    count("engine.flush", "seeds")),
        "session.run_ms": share(total_ms("session.run"), requests),
        "session.self_ms": share(total_ms("session.run", True), requests),
        "session.gbitops": share(count("session.run", "gbitops"), requests),
        "session.edges": share(count("session.run", "edges"), requests),
        "sampling.sample_ms": share(total_ms("sampling.sample", True),
                                    requests),
        "sampling.input_nodes": share(count("sampling.sample", "input_nodes"),
                                      requests),
        "sampling.refresh_ms": share(total_ms("sampling.refresh"), updates),
        "cache.lookup_ms": share(total_ms("cache.get_rows")
                                 + total_ms("cache.get_batch"), requests),
        "cache.put_ms": share(total_ms("cache.put"), requests),
        "cache.hit_rate": share(count("cache.get_rows", "hits"),
                                count("cache.get_rows", "lookups")),
        "cache.batch_hit_rate": share(count("cache.get_batch", "hits"),
                                      count("cache.get_batch", "lookups")),
        "cache.bytes_mb": cache_bytes / 2 ** 20,
        "cache.evictions": share(evictions, requests),
        "operator.build_ms": share(total_ms("operator.adjacency", True)
                                   + total_ms("operator.attention_edges", True),
                                   requests),
    }
    moved = 0.0
    for op in KERNEL_OPS:
        name = f"kernels.{op}"
        metrics[f"{name}_ms"] = share(total_ms(name), requests)
        metrics[f"{name}_calls"] = share(len(by_name[name]), requests)
        moved += count(name, "bytes")
    metrics["kernels.mb_moved"] = share(moved / 2 ** 20, requests)
    metrics.update({
        "stream.apply_update_ms": share(total_ms("stream.apply_update"),
                                        updates),
        "stream.apply_delta_ms": share(total_ms("stream.apply_delta"),
                                       updates),
        "stream.region_ms": share(total_ms("stream.region"), updates),
        "stream.region_nodes": share(count("stream.region", "nodes"), updates),
        "stream.invalidate_ms": share(total_ms("stream.invalidate"), updates),
        "stream.invalidated_entries": share(
            count("stream.invalidate", "entries"), updates),
    })
    return metrics
