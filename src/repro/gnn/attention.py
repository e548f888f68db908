"""Canonical per-edge view of a graph or block for attention layers.

Attention convolutions (GAT, Transformer) score every edge individually, so
unlike the matrix layers they cannot ride on :meth:`adjacency` alone — they
need the explicit ``(source, target)`` index of every message, including the
self loops every node attends to.  :func:`attention_edges` materialises that
list once per graph object, in a *canonical order* shared by full graphs and
bipartite :class:`~repro.graphs.sampling.SubgraphBlock` s: edges grouped by
target (row-major), each target's sources in ascending global id, self loops
appended at the end.

The order matters for the fanout=∞ parity contract: a block sampled with
unlimited fanout carries exactly the full graph's per-target edge runs in
the same relative order, so per-target float accumulations (softmax
denominators, weighted message sums) execute in the same sequence on both
paths and block execution reproduces full-graph execution to float
round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.sampling import SubgraphBlock

#: Supported multi-head merge modes: ``concat`` splits ``out_features`` into
#: ``heads`` slices of ``out_features // heads`` each and concatenates the
#: per-head aggregations back (hidden layers); ``mean`` runs every head at
#: the full ``out_features`` width and averages them (output layers).
HEAD_MERGES = ("concat", "mean")


def attention_head_dim(out_features: int, heads: int, head_merge: str) -> int:
    """Per-head feature width of a multi-head attention layer.

    The layer's *merged* output width is always ``out_features`` — heads are
    an internal knob, so layer-dimension plumbing (classifier stacks, MixQ
    search, artifact topology) never changes with the head count.  Under
    ``concat`` that forces ``out_features % heads == 0``; under ``mean``
    every head runs at the full width.  ``heads=1`` with either merge is
    numerically identical to the single-head layer.
    """
    if heads < 1:
        raise ValueError(f"attention layers need at least one head, got {heads}")
    if head_merge not in HEAD_MERGES:
        raise ValueError(f"unknown head merge {head_merge!r}; "
                         f"options: {HEAD_MERGES}")
    if head_merge == "mean":
        return out_features
    if out_features % heads:
        raise ValueError(f"concat merge needs out_features divisible by heads "
                         f"({out_features} % {heads} != 0); use head_merge="
                         f"'mean' for indivisible widths")
    return out_features // heads


@dataclass(frozen=True)
class AttentionEdges:
    """Flat per-edge index of one attention propagation step.

    ``src`` indexes the rows of the features entering the layer (source
    side); ``dst`` indexes the output rows (target side).  On a full graph
    the two sides coincide; on a bipartite block ``dst`` values are always
    ``< num_dst`` and — because a block's sources start with its targets —
    index the same rows of the source-side features.  Self loops
    ``(t, t)`` for every target are appended after the sampled edges.
    """

    src: np.ndarray
    dst: np.ndarray
    num_src: int
    num_dst: int

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])


def attention_edges(graph) -> AttentionEdges:
    """The canonical (self-loop-augmented) edge list of a graph or block.

    Memoised on the graph object's ``_cache`` so repeated layers (and the
    serving executor) share one materialisation.
    """
    cache = getattr(graph, "_cache", None)
    if cache is not None and "attention_edges" in cache:
        return cache["attention_edges"]
    if isinstance(graph, SubgraphBlock):
        loops = np.arange(graph.num_dst, dtype=np.int64)
        edges = AttentionEdges(
            src=np.concatenate([graph.edge_cols, loops]),
            dst=np.concatenate([graph.edge_rows, loops]),
            num_src=graph.num_src, num_dst=graph.num_dst)
    else:
        csr = graph.adjacency(add_self_loops=False).csr
        num_nodes = int(csr.shape[0])
        counts = np.diff(csr.indptr).astype(np.int64)
        loops = np.arange(num_nodes, dtype=np.int64)
        edges = AttentionEdges(
            src=np.concatenate([csr.indices.astype(np.int64), loops]),
            dst=np.concatenate([np.repeat(loops, counts), loops]),
            num_src=num_nodes, num_dst=num_nodes)
    if cache is not None:
        cache["attention_edges"] = edges
    return edges
