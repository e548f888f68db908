"""Self-tests of the serving benchmark, on a small graph.

They pin what the benchmark's numbers rest on: the work a fixed trace
causes is deterministic, the traced counts reconcile with the library's
own counters, per-layer times add up to the session time, each workload
loads and bypasses the layers its table row says, and a wrong response
is caught.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from servebench import spec
from servebench.phases import closed_loop
from servebench.reference import check
from servebench.runner import tail
from servebench.setup import set_up
from servebench.tracing import Tracer, TracingBackend, install, layer_metrics
from servebench.traffic import Trace
from repro.kernels import resolve_backend

NUM_NODES = 2_000
QUERIES = 24
WARMUP = 8
TABLE = spec.load_table()
WORKLOADS = sorted(TABLE.workloads)

#: A layer label of ``workloads.json`` -> the per-layer metric showing it ran.
LAYER_PROBES = {
    "engine": "engine.flush_ms",
    "session": "session.run_ms",
    "sampling": "sampling.sample_ms",
    "cache": "cache.lookup_ms",
    "operator": "operator.build_ms",
    "stream": "stream.apply_update_ms",
    **{f"kernels.{op}": f"kernels.{op}_calls"
       for op in ("spmm", "edge_spmm", "linear_requant", "gat_scores",
                  "edge_softmax")},
}


def traced_closed_loop(name: str, tmp_path: Path, seed: int = 3):
    """A small set-up serving ``QUERIES`` closed-loop queries, traced."""
    workload = TABLE.workloads[name]
    tracer = Tracer()
    server = set_up(workload, seed, WARMUP, tmp_path, num_nodes=NUM_NODES,
                    backend_factory=lambda: TracingBackend(
                        resolve_backend(None), tracer))
    stats_before = server.session.cache_stats()
    server.engine.reset_stats()
    uninstall = install(tracer, server)
    try:
        phase = closed_loop(server, 0.0, max_queries=QUERIES,
                            on_submit=tracer.on_submit)
    finally:
        uninstall()
    server.close()
    return server, tracer, phase, stats_before


def work_counts(tracer: Tracer) -> dict:
    totals: dict = {}
    for span in tracer.spans:
        for key, value in (span.counts or {}).items():
            if isinstance(value, (int, float)):
                name = f"{span.name}.{key}"
                totals[name] = totals.get(name, 0) + value
    return {name: value for name, value in totals.items()
            if not name.startswith("kernels.")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two traced closed-loop runs per workload, same seed, fresh set-ups."""
    return {name: [traced_closed_loop(name, tmp_path_factory.mktemp(name))
                   for _ in range(2)]
            for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_work(runs, name):
    first, second = (work_counts(run[1]) for run in runs[name])
    assert first == second
    expected = {"session.run.gbitops", "session.run.edges",
                "sampling.sample.input_nodes"}
    if TABLE.workloads[name].cache:
        expected |= {"cache.get_rows.lookups", "cache.get_rows.hits",
                     "cache.get_batch.lookups", "cache.get_batch.hits"}
    if TABLE.workloads[name].updates:
        expected |= {"stream.region.nodes", "stream.invalidate.entries"}
    assert expected <= set(first)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_match_library_counters(runs, name):
    server, tracer, phase, stats_before = runs[name][0]
    counts = work_counts(tracer)
    engine = server.engine.stats
    assert phase.succeeded == QUERIES == engine.requests
    assert counts["session.run.gbitops"] == pytest.approx(
        engine.giga_bit_operations, rel=1e-9)
    assert counts["session.run.seeds"] == engine.nodes
    stats = server.session.cache_stats()
    if stats is None:
        assert "cache.get_rows.lookups" not in counts
        return
    lookups = counts["cache.get_rows.lookups"] + counts["cache.get_batch.lookups"]
    hits = counts["cache.get_rows.hits"] + counts["cache.get_batch.hits"]
    assert lookups == stats.lookups - stats_before.lookups
    assert hits == stats.hits - stats_before.hits


@pytest.mark.parametrize("name", WORKLOADS)
def test_session_time_reconciles_with_its_children(runs, name):
    server, tracer, phase, _ = runs[name][0]
    metrics = layer_metrics(tracer, len(phase.queries), len(phase.updates),
                            0, 0)
    children = (metrics["sampling.sample_ms"] + metrics["cache.lookup_ms"]
                + metrics["cache.put_ms"] + metrics["operator.build_ms"]
                + sum(metrics[f"kernels.{op}_ms"] for op in
                      ("spmm", "edge_spmm", "linear_requant", "weight_matrix",
                       "gat_scores", "edge_softmax")))
    assert metrics["session.self_ms"] + children == pytest.approx(
        metrics["session.run_ms"], rel=0.10)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_loads_and_bypasses_its_layers(runs, name):
    server, tracer, phase, _ = runs[name][0]
    metrics = layer_metrics(tracer, len(phase.queries), len(phase.updates),
                            0, 0)
    row = TABLE.workloads[name]
    for layer in row.loads:
        assert metrics[LAYER_PROBES[layer]] > 0, layer
    for layer in row.bypasses:
        assert metrics[LAYER_PROBES[layer]] == 0, layer


def test_reference_catches_a_flipped_bit(runs):
    server, _, phase, _ = runs["stream-gcn"][0]
    queries = phase.queries
    assert check(server.workload, server.artifact, server.initial_graph,
                 server.applied, queries) == 0
    victim = queries[len(queries) // 2]
    victim.logits = victim.logits.copy()
    victim.logits.view(np.uint64)[0, 0] ^= np.uint64(1)
    assert check(server.workload, server.artifact, server.initial_graph,
                 server.applied, queries) == 1
    assert victim.mismatch and not victim.ok


def test_trace_is_a_function_of_the_seed():
    workload = TABLE.workloads["stream-gcn"]

    def events(seed, count=40):
        trace = Trace(workload, NUM_NODES, spec.NUM_FEATURES, seed)
        return [trace.next_event() for _ in range(count)]

    def same(a, b):
        if a.is_update != b.is_update:
            return False
        if not a.is_update:
            return np.array_equal(a.nodes, b.nodes)
        fields = ("added_edges", "added_weights", "removed_edges",
                  "feature_nodes", "features")
        return all(np.array_equal(getattr(a.delta, name), getattr(b.delta, name))
                   if getattr(a.delta, name) is not None
                   else getattr(b.delta, name) is None for name in fields)

    first, again, other = events(5), events(5), events(6)
    assert all(same(a, b) for a, b in zip(first, again))
    assert not all(same(a, b) for a, b in zip(first, other))
    updates = [event for event in first if event.is_update]
    assert len(updates) == (40 - len(updates)) // spec.UPDATE_EVERY
    for event in first:
        if not event.is_update:
            assert np.unique(event.nodes).shape[0] == spec.REQUEST_SEEDS


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(999)))[0] == 90.0
    assert tail(list(range(99)))[0] == 75.0


def test_refuses_to_run_without_the_serving_package(tmp_path):
    shutil.copytree(Path(__file__).resolve().parents[1], tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-gcn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert finished.returncode != 0
    assert finished.stdout == ""
