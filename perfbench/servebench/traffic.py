"""The benchmark's own deterministic traffic and update generator.

A workload's input is one ordered event stream — queries of
``REQUEST_SEEDS`` distinct seed nodes, and on the streaming workload a
:class:`~repro.streaming.GraphDelta` after every ``UPDATE_EVERY`` queries
— plus an open-loop arrival schedule.  Both are pure functions of the
workload seed: the stream is consumed in order (warm-up prefix, then the
open-loop phase, then the closed-loop phase), so the same seed yields the
same requests however fast the server answers.  Nothing here calls into
the serving stack; the program only ever receives the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from servebench import spec
from repro.streaming import GraphDelta

# Independent sub-streams of one workload seed, so changing how many
# arrivals a phase draws never shifts the request contents.
_QUERIES, _ARRIVALS, _UPDATES = 0, 1, 2


@dataclass
class Event:
    """One trace event: a query (``nodes``) or an update (``delta``)."""

    nodes: Optional[np.ndarray] = None
    delta: Optional[GraphDelta] = None

    @property
    def is_update(self) -> bool:
        return self.delta is not None


class Trace:
    """Ordered event stream of one workload (see the module docstring).

    ``edge_codes`` holds ``src * num_nodes + dst`` of the initial graph's
    edges; added edges avoid them, so removing an added edge later never
    removes an original one and the edge set returns to the original after
    every add/overwrite/remove cycle.
    """

    def __init__(self, workload: spec.Workload, num_nodes: int,
                 num_features: int, seed: int,
                 edge_codes: Optional[np.ndarray] = None):
        self.workload = workload
        self.num_nodes = int(num_nodes)
        self.num_features = int(num_features)
        self._queries = np.random.default_rng([seed, _QUERIES])
        self._updates = np.random.default_rng([seed, _UPDATES])
        self._edge_codes: Set[int] = set() if edge_codes is None \
            else set(np.asarray(edge_codes, dtype=np.int64).tolist())
        self._cdf = None
        self._rank_to_node = None
        if workload.traffic == "zipfian":
            ranks = np.arange(1, self.num_nodes + 1, dtype=np.float64)
            weights = ranks ** -workload.skew
            self._cdf = np.cumsum(weights / weights.sum())
            self._rank_to_node = self._queries.permutation(self.num_nodes)
        elif workload.traffic != "uniform":
            raise ValueError(f"unknown traffic pattern {workload.traffic!r}")
        self._queries_sent = 0
        self._cycle = 0
        self._added: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def _query_nodes(self) -> np.ndarray:
        if self._cdf is None:
            return self._queries.choice(self.num_nodes, size=spec.REQUEST_SEEDS,
                                        replace=False).astype(np.int64)
        picked: List[int] = []
        seen: Set[int] = set()
        while len(picked) < spec.REQUEST_SEEDS:
            draws = np.searchsorted(self._cdf, self._queries.random(
                2 * spec.REQUEST_SEEDS), side="right")
            for rank in np.minimum(draws, self.num_nodes - 1).tolist():
                if rank not in seen:
                    seen.add(rank)
                    picked.append(rank)
                    if len(picked) == spec.REQUEST_SEEDS:
                        break
        return self._rank_to_node[np.asarray(picked)].astype(np.int64)

    def _next_delta(self) -> GraphDelta:
        step = self._cycle % 3
        self._cycle += 1
        rng = self._updates
        if step == 0:
            codes: List[int] = []
            while len(codes) < spec.EDGES_PER_DELTA:
                src, dst = (int(v) for v in rng.integers(0, self.num_nodes, 2))
                code = src * self.num_nodes + dst
                if src != dst and code not in self._edge_codes \
                        and code not in codes:
                    codes.append(code)
            pairs = np.asarray(codes, dtype=np.int64)
            self._added = np.stack([pairs // self.num_nodes,
                                    pairs % self.num_nodes])
            weights = (rng.random(spec.EDGES_PER_DELTA) + 0.5).astype(np.float32)
            return GraphDelta(added_edges=self._added, added_weights=weights)
        if step == 1:
            nodes = rng.choice(self.num_nodes, size=spec.FEATURE_ROWS_PER_DELTA,
                               replace=False).astype(np.int64)
            rows = rng.standard_normal(
                (spec.FEATURE_ROWS_PER_DELTA, self.num_features)).astype(np.float32)
            return GraphDelta(feature_nodes=nodes, features=rows)
        removed, self._added = self._added, None
        return GraphDelta(removed_edges=removed)

    def next_event(self) -> Event:
        if self.workload.updates and self._queries_sent \
                and self._queries_sent % spec.UPDATE_EVERY == 0 \
                and self._cycle < self._queries_sent // spec.UPDATE_EVERY:
            return Event(delta=self._next_delta())
        self._queries_sent += 1
        return Event(nodes=self._query_nodes())


def poisson_offsets(rate: float, count: int, seed: int) -> np.ndarray:
    """Scheduled send offsets (seconds) of ``count`` Poisson arrivals."""
    gaps = np.random.default_rng([seed, _ARRIVALS]).exponential(
        1.0 / rate, size=count)
    return np.cumsum(gaps) - gaps[0]
