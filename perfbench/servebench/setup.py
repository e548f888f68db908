"""Set-up of one workload: graph, trained artifact, session, engine, warm-up.

:func:`set_up` is what ``setup_s`` times.  It goes through the public API
only — ``generate_sbm_graph``, QAT training, ``QuantizedArtifact.from_model``
/ ``save`` / ``load``, ``BlockSession`` and ``AsyncServingEngine`` — with
every speed-only knob left at its library default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from servebench import spec
from servebench.traffic import Trace
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.graphs.graph import Graph
from repro.quant.qmodules import (
    QuantNodeClassifier,
    gat_component_names,
    gcn_component_names,
    uniform_assignment,
)
from repro.serving import AsyncServingEngine, BlockSession, QuantizedArtifact
from repro.streaming import GraphDelta
from repro.training.trainer import train_node_classifier

_COMPONENTS = {"gcn": gcn_component_names, "gat": gat_component_names}


@dataclass
class Server:
    """A set-up workload, ready for its measured phases."""

    workload: spec.Workload
    graph: Graph
    #: Copy of the graph at version 0 (the streaming reference replays
    #: ``applied`` on it); the served graph itself on static workloads.
    initial_graph: Graph
    artifact: QuantizedArtifact
    session: BlockSession
    engine: AsyncServingEngine
    trace: Trace
    #: Every delta the engine applied so far, with the version it produced.
    applied: List[Tuple[GraphDelta, int]] = field(default_factory=list)

    def close(self) -> None:
        self.engine.close()


def make_graph(num_nodes: int = spec.NUM_NODES) -> Graph:
    config = SBMConfig(num_nodes=num_nodes, num_features=spec.NUM_FEATURES,
                       num_classes=spec.NUM_CLASSES,
                       average_degree=spec.AVERAGE_DEGREE,
                       train_per_class=num_nodes // 32,
                       num_val=num_nodes // 10, num_test=num_nodes // 5,
                       name=f"sbm-{num_nodes}")
    return generate_sbm_graph(config, seed=spec.GRAPH_SEED)


def train_artifact(workload: spec.Workload, graph: Graph,
                   path: Path) -> QuantizedArtifact:
    """QAT-train the workload's int8 classifier, export, save and reload."""
    names = _COMPONENTS[workload.conv](2)
    model = QuantNodeClassifier.from_assignment(
        [(graph.num_features, spec.HIDDEN), (spec.HIDDEN, graph.num_classes)],
        workload.conv, uniform_assignment(names, spec.BITS), dropout=0.0,
        heads=workload.heads, head_merge="concat",
        rng=np.random.default_rng(spec.MODEL_SEED))
    train_node_classifier(model, graph, epochs=spec.EPOCHS,
                          lr=spec.LEARNING_RATE)
    model.eval()
    QuantizedArtifact.from_model(model).save(path)
    return QuantizedArtifact.load(path)


def make_session(workload: spec.Workload, artifact: QuantizedArtifact,
                 graph: Graph, backend=None) -> BlockSession:
    """The served session; ``backend=None`` resolves the library default."""
    return BlockSession(
        artifact, graph, fanouts=spec.FANOUT, batch_size=spec.SESSION_BATCH,
        seed=spec.SAMPLER_SEED,
        cache_size=spec.CACHE_ENTRIES if workload.cache else 0,
        cache_bytes=spec.CACHE_BYTES if workload.cache else None,
        backend=backend)


def edge_codes(graph: Graph) -> np.ndarray:
    return graph.edge_index[0].astype(np.int64) * graph.num_nodes \
        + graph.edge_index[1]


def set_up(workload: spec.Workload, seed: int, warmup: int, out_dir: Path,
           num_nodes: int = spec.NUM_NODES,
           backend_factory: Optional[Callable[[], object]] = None) -> Server:
    """Build one ready-to-measure :class:`Server` and warm it up.

    ``backend_factory`` (default: the library default) supplies the
    session's kernel backend; the traced run passes its wrapping backend.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = make_graph(num_nodes)
    artifact = train_artifact(workload, graph,
                              out_dir / f"artifact-{workload.name}")
    initial_graph = graph.copy() if workload.updates else graph
    backend = None if backend_factory is None else backend_factory()
    session = make_session(workload, artifact, graph, backend=backend)
    engine = AsyncServingEngine(session)
    trace = Trace(workload, graph.num_nodes, graph.num_features, seed,
                  edge_codes=edge_codes(graph) if workload.updates else None)
    server = Server(workload, graph, initial_graph, artifact, session, engine,
                    trace)
    warm_up(server, warmup)
    return server


def warm_up(server: Server, queries: int) -> None:
    """Serve the trace's first ``queries`` queries back to back (unmeasured)."""
    served = 0
    while served < queries:
        event = server.trace.next_event()
        if event.is_update:
            version = server.engine.submit_update(event.delta).result()
            server.applied.append((event.delta, version))
            continue
        server.engine.submit(event.nodes).result()
        served += 1


def timed_set_up(workload: spec.Workload, seed: int, warmup: int,
                 out_dir: Path, repeats: int,
                 **kwargs) -> Tuple[Server, List[float]]:
    """Set up ``repeats`` times; keep the last server, return every time."""
    seconds: List[float] = []
    server: Optional[Server] = None
    for _ in range(repeats):
        if server is not None:
            server.close()
            server = None
        start = time.perf_counter()
        server = set_up(workload, seed, warmup, out_dir, **kwargs)
        seconds.append(time.perf_counter() - start)
    assert server is not None
    return server, seconds
