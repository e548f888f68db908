"""Bitwise check of every measured response against a fresh reference.

The reference is a fresh, uncached ``BlockSession`` on the ``numpy``
kernel backend with the served fanout and sampler seed, built on the graph
at the version that served the request; the streaming workload gets there
by replaying its applied deltas on a copy of the version-0 graph.  Each
distinct (seed node, version) is computed once.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from servebench import spec
from servebench.phases import Query
from servebench.setup import make_session
from repro.graphs.graph import Graph
from repro.serving import QuantizedArtifact
from repro.streaming import GraphDelta


def _reference_rows(workload: spec.Workload, artifact: QuantizedArtifact,
                    graph: Graph, nodes: np.ndarray) -> np.ndarray:
    uncached = dataclasses.replace(workload, cache=False)
    return make_session(uncached, artifact, graph, backend="numpy").run(
        nodes).logits


def check(workload: spec.Workload, artifact: QuantizedArtifact,
          initial_graph: Graph, applied: Sequence[Tuple[GraphDelta, int]],
          queries: Sequence[Query]) -> int:
    """Mark mismatching queries (``Query.mismatch``); returns their count.

    ``initial_graph`` is left untouched: deltas replay on a copy.
    """
    by_version: Dict[int, List[Query]] = collections.defaultdict(list)
    for query in queries:
        if query.error is None:
            by_version[query.version].append(query)
    if not by_version:
        return 0
    graph = initial_graph.copy() if applied else initial_graph
    pending = list(applied)
    mismatches = 0
    for version in sorted(by_version):
        while graph.version < version:
            delta, produced = pending.pop(0)
            graph.apply_delta(delta)
            if graph.version != produced:
                raise RuntimeError(f"replayed delta produced version "
                                   f"{graph.version}, served {produced}")
        group = by_version[version]
        distinct = np.unique(np.concatenate([query.nodes for query in group]))
        rows = _reference_rows(workload, artifact, graph, distinct)
        for query in group:
            expected = rows[np.searchsorted(distinct, query.nodes)]
            if query.logits.shape != expected.shape \
                    or query.logits.dtype != expected.dtype \
                    or query.logits.tobytes() != expected.tobytes():
                query.mismatch = True
                mismatches += 1
    return mismatches
