"""The per-shard worker process of the sharded serving tier.

One worker owns one shard of the graph: the adjacency **rows** of its
nodes.  It runs a :class:`~repro.serving.BlockSession` over a *restricted*
graph view — every non-owned adjacency row is genuinely absent, not just
unused — so any receptive field that crosses the shard boundary must go
through the halo protocol, and the tests that assert bitwise parity are
really exercising it.

Execution model (single thread, message-driven)::

    router ── cmd_q ──▶ worker ── out_q ──▶ router

* ``predict`` — run one seed chunk through the worker's block session.
  Chunks arrive exactly as the single-process :class:`BlockSession` would
  have formed them (request order, ``batch_size`` micro-batches), which is
  what makes sharded logits bit-identical: identical batch composition,
  identical sampling keys, identical float accumulation order.
* ``rows_query`` — serve the final (fanout-capped) adjacency rows of owned
  nodes to another shard.  Row content is a pure function of ``(sampler
  seed, rng-epoch, hop, node, fanout)`` through the counter-based SplitMix64
  keys, so the owner computes exactly the row the requester's
  single-process reference would have computed — and reuses its per-shard
  :class:`~repro.cache.BlockCache` while doing so.
* ``halo_reply`` — the answer to this worker's own outstanding halo
  request.  While waiting for one, the worker keeps draining its command
  queue: incoming ``rows_query`` messages are served inline (they only
  touch owned rows, so they can never recurse into another halo fetch) and
  anything else is deferred to a backlog.  Two workers that need each
  other's rows therefore make progress instead of deadlocking.
* ``fault`` — test hook: arm the next predict to die (``os._exit``) or
  hang, reproducing worker crashes and deadline overruns deterministically.

All cross-shard traffic is mediated by the router (workers never hold each
other's queues), which is what makes restarting a crashed worker safe: the
router swaps in fresh queues and no peer ever observes the stale ones.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.sampling import Fanout, NeighborSampler, _salt
from repro.serving.artifact import QuantizedArtifact
from repro.serving.session import BlockSession

#: Flat row payload shipped between shards: (cols, weights, counts) of the
#: requested nodes, in request order.
RowPayload = Tuple[np.ndarray, np.ndarray, np.ndarray]


class ShardHaloError(RuntimeError):
    """A cross-shard halo fetch failed (owner crashed or errored)."""


def restricted_graph(graph: Graph, assignment: np.ndarray,
                     shard: int) -> Graph:
    """The shard's view: full features, only the owned adjacency rows.

    Features stay shared (fork gives copy-on-write pages; source features
    of halo rows are gathered from here), but edges whose *row* endpoint is
    not owned are dropped, so sampling a non-owned row locally yields an
    empty row — correctness of cross-shard receptive fields depends on the
    halo protocol, by construction.
    """
    owned = assignment[graph.edge_index[0]] == shard
    return Graph(graph.x, graph.edge_index[:, owned], y=graph.y,
                 edge_weight=graph.edge_weight[owned],
                 name=f"{graph.name}/shard{shard}")


def full_graph_degrees(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """``(_row_weight, _inv_sqrt)`` exactly as :class:`NeighborSampler`
    derives them over the *full* graph — same expressions, same dtype
    sequencing, so the float32 roundings are bit-identical."""
    row_weight = graph.adjacency(add_self_loops=False).row_sum()
    inv_sqrt = (1.0 / np.sqrt(row_weight + 1.0)).astype(np.float32)
    return row_weight.astype(np.float32), inv_sqrt


#: ``halo_fetch(plan, fanout, hop, epoch)`` with ``plan`` mapping owner
#: shard -> requested node ids; returns owner shard -> RowPayload.
HaloFetch = Callable[[Dict[int, np.ndarray], Fanout, int, int],
                     Dict[int, RowPayload]]


class ShardSampler(NeighborSampler):
    """A :class:`NeighborSampler` that resolves non-owned rows remotely.

    Owned targets flow through the inherited cache/cap pipeline; non-owned
    targets are grouped by owning shard and fetched through ``halo_fetch``.
    The reassembled flat rows are byte-identical to what a single-process
    sampler over the full graph produces, because every row — local or
    remote — is the same pure function of ``(seed, epoch, hop, node,
    fanout)``.
    """

    def __init__(self, graph: Graph, assignment: np.ndarray, shard: int,
                 halo_fetch: HaloFetch, row_weight: np.ndarray,
                 inv_sqrt: np.ndarray, **kwargs):
        super().__init__(graph, **kwargs)
        self.assignment = assignment
        self.shard = int(shard)
        self.halo_fetch = halo_fetch
        # The restricted adjacency yields wrong (partial) degrees; serve
        # with the full graph's vectors so row_scale / GCN normalisation
        # match the single-process sampler exactly.
        self._row_weight = row_weight.astype(np.float32)
        self._inv_sqrt = inv_sqrt.astype(np.float32)

    def _final_rows(self, targets: np.ndarray, fanout: Fanout, hop: int,
                    salt: np.uint64
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        owners = self.assignment[targets]
        local = owners == self.shard
        if local.all():
            return super()._final_rows(targets, fanout, hop, salt)

        per_target: List[Optional[Tuple[np.ndarray, np.ndarray]]] = \
            [None] * targets.shape[0]

        def scatter(indices: np.ndarray, payload: RowPayload) -> None:
            cols, weights, counts = payload
            boundaries = np.cumsum(counts)[:-1]
            for index, row_cols, row_weights in zip(
                    indices, np.split(cols, boundaries),
                    np.split(weights, boundaries)):
                per_target[index] = (row_cols, row_weights)

        local_indices = np.flatnonzero(local)
        if local_indices.size:
            scatter(local_indices,
                    super()._final_rows(targets[local_indices], fanout, hop,
                                        salt))
        fetch_indices = np.flatnonzero(~local)
        if self.cache is not None:
            fetch_indices = self._remote_cache_probe(
                targets, fetch_indices, fanout, hop, salt, per_target)
        plan: Dict[int, np.ndarray] = {}
        remote_indices: Dict[int, np.ndarray] = {}
        for owner in np.unique(owners[fetch_indices]):
            indices = fetch_indices[owners[fetch_indices] == owner]
            plan[int(owner)] = targets[indices]
            remote_indices[int(owner)] = indices
        if plan:
            replies = self.halo_fetch(plan, fanout, hop, self.rng_epoch)
            for owner, payload in replies.items():
                scatter(remote_indices[owner], payload)
                if self.cache is not None:
                    self._remote_cache_insert(targets[remote_indices[owner]],
                                              payload, fanout, hop)

        counts = np.asarray([entry[0].shape[0] for entry in per_target],
                            dtype=np.int64)
        cols = np.concatenate([entry[0] for entry in per_target]) \
            if per_target else np.empty(0, dtype=np.int64)
        weights = np.concatenate([entry[1] for entry in per_target]) \
            if per_target else np.empty(0, dtype=np.float32)
        return cols, weights, counts

    def _remote_cache_probe(self, targets: np.ndarray,
                            remote_indices: np.ndarray, fanout: Fanout,
                            hop: int, salt: np.uint64,
                            per_target: List) -> np.ndarray:
        """Resolve remote rows from the local cache; return the miss indices.

        Halo rows are cached under the very keys the owner would use (row
        content is a pure function of ``(seed, epoch, hop, node, fanout)``),
        so repeat traffic answers cross-shard rows without IPC.  A raw full
        row cached earlier is capped locally — the fanout cap is the same
        pure function on every shard.
        """
        from repro.cache import ROW_RAW

        entries = self.cache.get_rows(targets[remote_indices], fanout, hop,
                                      self.rng_epoch)
        misses: List[int] = []
        raw_hits: List[int] = []
        for index, entry in zip(remote_indices, entries):
            if entry is None:
                misses.append(int(index))
            elif entry[0] == ROW_RAW:
                raw_hits.append(int(index))
                per_target[index] = (entry[1], entry[2])
            else:
                per_target[index] = (entry[1], entry[2])
        if raw_hits:
            indices = np.asarray(raw_hits, dtype=np.int64)
            nodes = targets[indices]
            counts = np.asarray(
                [per_target[i][0].shape[0] for i in raw_hits], dtype=np.int64)
            cols = np.concatenate([per_target[i][0] for i in raw_hits])
            weights = np.concatenate([per_target[i][1] for i in raw_hits])
            cols, weights, capped = self._cap_rows(nodes, cols, weights,
                                                   counts, fanout, salt)
            boundaries = np.cumsum(capped)[:-1]
            rows = [(row_cols.copy(), row_weights.copy())
                    for row_cols, row_weights
                    in zip(np.split(cols, boundaries),
                           np.split(weights, boundaries))]
            self.cache.put_capped_rows(nodes, fanout, hop, self.rng_epoch,
                                       rows)
            for index, row in zip(raw_hits, rows):
                per_target[index] = row
        return np.asarray(misses, dtype=np.int64)

    def _remote_cache_insert(self, nodes: np.ndarray, payload: RowPayload,
                             fanout: Fanout, hop: int) -> None:
        """Cache fetched halo rows for the next request.

        A row shorter than the fanout is provably the owner's full row, so
        it is stored epoch/fanout/hop independent (maximally reusable); a
        row at exactly the fanout may have been capped and is stored under
        its ``(node, fanout, hop, epoch)`` key.
        """
        cols, weights, counts = payload
        boundaries = np.cumsum(counts)[:-1]
        rows = [(row_cols.copy(), row_weights.copy())
                for row_cols, row_weights
                in zip(np.split(cols, boundaries), np.split(weights, boundaries))]
        if fanout is None:
            self.cache.put_raw_rows(nodes, rows)
            return
        full = counts < fanout
        if full.any():
            self.cache.put_raw_rows(
                nodes[full], [rows[i] for i in np.flatnonzero(full)])
        capped = ~full
        if capped.any():
            self.cache.put_capped_rows(
                nodes[capped], fanout, hop, self.rng_epoch,
                [rows[i] for i in np.flatnonzero(capped)])


def serve_rows(sampler: NeighborSampler, nodes: np.ndarray, fanout: Fanout,
               hop: int, epoch: int) -> RowPayload:
    """Owner-side half of the halo protocol: final rows of owned nodes.

    Computes through the owner's cache pipeline when the requester is in
    the owner's current rng-epoch (serving never advances epochs, so this
    is the steady state); an epoch mismatch falls back to the pure
    cache-free path with the requester's salt.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    salt = _salt(sampler.seed, epoch, hop)
    if epoch == sampler.rng_epoch:
        return sampler._final_rows(nodes, fanout, hop, salt)
    return sampler.uncached_rows(nodes, fanout, salt)


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build its shard session.

    Plain data (arrays, strings, the artifact) so the worker entry point
    works under both ``fork`` (the fast path — large members are inherited
    copy-on-write) and ``spawn`` start methods.
    """

    shard: int
    n_shards: int
    assignment: np.ndarray
    artifact: QuantizedArtifact
    graph: Graph
    fanouts: Union[Fanout, Sequence[Fanout]]
    batch_size: int
    seed: int
    cache_size: int
    cache_bytes: Optional[int]
    backend: Optional[str]
    #: Full-graph degree vectors, computed once in the router process.
    row_weight: Optional[np.ndarray] = None
    inv_sqrt: Optional[np.ndarray] = None


class ShardWorkerSession(BlockSession):
    """A block session whose sampler resolves halo rows through a fetcher."""

    def __init__(self, config: WorkerConfig, halo_fetch: HaloFetch):
        shard_view = restricted_graph(config.graph, config.assignment,
                                      config.shard)
        super().__init__(config.artifact, shard_view, fanouts=config.fanouts,
                         batch_size=config.batch_size, seed=config.seed,
                         cache_size=config.cache_size,
                         cache_bytes=config.cache_bytes,
                         backend=config.backend)
        if config.row_weight is None or config.inv_sqrt is None:
            row_weight, inv_sqrt = full_graph_degrees(config.graph)
        else:
            row_weight, inv_sqrt = config.row_weight, config.inv_sqrt
        self.sampler = ShardSampler(
            shard_view, config.assignment, config.shard, halo_fetch,
            row_weight, inv_sqrt, fanouts=config.fanouts,
            batch_size=self.batch_size, num_layers=config.artifact.total_hops,
            seed_nodes=np.arange(shard_view.num_nodes, dtype=np.int64),
            shuffle=False, seed=config.seed, cache=self.cache)


def _rows_reply(session: ShardWorkerSession, message: tuple) -> tuple:
    _, query_id, nodes, fanout, hop, epoch = message
    try:
        payload = serve_rows(session.sampler, nodes, fanout, hop, epoch)
    except Exception as error:  # noqa: BLE001 - shipped to the requester
        return ("rows_reply", query_id, False, repr(error))
    return ("rows_reply", query_id, True, payload)


def worker_main(config: WorkerConfig, cmd_q, out_q) -> None:
    """Worker process entry point: one message loop until ``stop``.

    The loop is single-threaded; concurrency lives in the protocol.  While
    blocked on its own halo reply the worker keeps serving ``rows_query``
    messages (they only touch owned rows) and defers everything else to a
    backlog, so mutually dependent shards always make progress.
    """
    backlog: deque = deque()
    fault = {"die_next": False, "hang_next": 0.0}
    tokens = itertools.count()
    session_cell: List[ShardWorkerSession] = []

    def apply_fault(message: tuple) -> None:
        kind = message[1]
        if kind == "die_next":
            fault["die_next"] = True
        elif kind == "hang_next":
            fault["hang_next"] = float(message[2])

    def halo_fetch(plan: Dict[int, np.ndarray], fanout: Fanout, hop: int,
                   epoch: int) -> Dict[int, RowPayload]:
        session = session_cell[0]
        pending: Dict[tuple, int] = {}
        for owner, nodes in sorted(plan.items()):
            token = (config.shard, next(tokens))
            out_q.put(("halo_request", token, config.shard, owner, nodes,
                       fanout, hop, epoch))
            pending[token] = owner
        replies: Dict[int, RowPayload] = {}
        while pending:
            message = cmd_q.get()
            kind = message[0]
            if kind == "halo_reply" and message[1] in pending:
                _, token, ok, payload = message
                owner = pending.pop(token)
                if not ok:
                    raise ShardHaloError(
                        f"halo fetch from shard {owner} failed: {payload}")
                replies[owner] = payload
            elif kind == "rows_query":
                out_q.put(_rows_reply(session, message))
            elif kind == "fault":
                apply_fault(message)
            else:
                # New predicts (and stray stop/stats) wait their turn.
                backlog.append(message)
        return replies

    session_cell.append(ShardWorkerSession(config, halo_fetch))
    session = session_cell[0]

    while True:
        message = backlog.popleft() if backlog else cmd_q.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "fault":
            apply_fault(message)
        elif kind == "rows_query":
            out_q.put(_rows_reply(session, message))
        elif kind == "stats":
            out_q.put(("stats_reply", message[1], session.cache_stats()))
        elif kind == "predict":
            _, chunk_id, seeds = message
            if fault["die_next"]:
                os._exit(17)  # crash mid-flight, no cleanup — the test hook
            if fault["hang_next"] > 0:
                delay, fault["hang_next"] = fault["hang_next"], 0.0
                time.sleep(delay)
            try:
                run = session.run(seeds)
            except BaseException as error:  # noqa: BLE001 - shipped to router
                out_q.put(("chunk_error", chunk_id, repr(error)))
            else:
                out_q.put(("result", chunk_id, run.logits,
                           run.bit_operations, run.num_input_nodes,
                           run.num_edges))
        # unknown / stale messages (e.g. a halo_reply for a predict that
        # already failed) are dropped
