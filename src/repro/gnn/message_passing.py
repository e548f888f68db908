"""Message-passing base class (matrix MPNN formulation, Equation 2 of the paper).

A layer is decomposed into the three functions of the MPNN framework:

* ``message`` — a transformation ``M`` of the previous embeddings;
* ``aggregate`` — the permutation-invariant reduction, realised as the
  sparse-dense product with the (normalised) adjacency matrix;
* ``update`` — the transformation ``U`` applied to the aggregated messages.

Sub-classes override whichever piece differs; quantization wrappers in
:mod:`repro.quant` and :mod:`repro.core` insert quantizers precisely around
these three functions, which is how the paper defines its per-component
bit-width search space.

Layers propagate either over a full :class:`~repro.graphs.graph.Graph` or
over a bipartite :class:`~repro.graphs.sampling.SubgraphBlock` from the
neighbor-sampling minibatch engine.  A block exposes the same adjacency
accessors as a graph (``adjacency`` / ``normalized_adjacency``) with shape
``(num_dst, num_src)``, so aggregation is the same sparse-dense product; the
only bipartite adaptation is that the update/root term uses the target-side
slice of the features (:func:`~repro.graphs.sampling.target_features`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.gnn.costs import Stage, aggregation_edges, stage_table
from repro.graphs.graph import Graph
from repro.graphs.sampling import SubgraphBlock, target_features
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor.sparse import SparseTensor, spmm
from repro.tensor.tensor import Tensor

#: What a layer can propagate over.
GraphLike = Union[Graph, SubgraphBlock]


class MessagePassing(Module):
    """Base class for adjacency-matrix message-passing layers."""

    #: Propagation steps one layer consumes.  Single-hop for every layer
    #: except :class:`~repro.gnn.tag.TAGConv`-style polynomial filters, which
    #: override it; samplers must emit one bipartite block per *hop*, so the
    #: block count of a model is ``sum(conv.hops)``, not ``len(convs)``
    #: (see :func:`~repro.gnn.models.hop_plan`).
    hops: int = 1

    #: Conv family: which rows of :func:`~repro.gnn.costs.stage_table`
    #: describe this layer (None for the bare base class, which has none).
    family: Optional[str] = None

    #: Attention heads; the attention families set their own.
    heads: int = 1

    def __init__(self):
        super().__init__()

    # ------------------------------------------------------------------ #
    # pieces of the MPNN decomposition
    # ------------------------------------------------------------------ #
    def message(self, x: Tensor) -> Tensor:
        """The per-node message function ``M`` (identity by default)."""
        return x

    def aggregate(self, adjacency: SparseTensor, messages: Tensor) -> Tensor:
        """Aggregate messages with the adjacency matrix (``A @ M(H)``)."""
        return spmm(adjacency, messages)

    def update(self, aggregated: Tensor, x: Tensor) -> Tensor:
        """The update function ``U`` (identity by default)."""
        return aggregated

    # ------------------------------------------------------------------ #
    def adjacency_for(self, graph: GraphLike) -> SparseTensor:
        """Which adjacency this layer propagates over (raw by default)."""
        return graph.adjacency(add_self_loops=False)

    def propagate(self, graph: GraphLike, x: Tensor,
                  adjacency: Optional[SparseTensor] = None) -> Tensor:
        """Full message-passing step: message, aggregate, update.

        On a bipartite block the update function receives the target-side
        rows of ``x`` so root terms stay shape-compatible with the
        ``(num_dst, ...)`` aggregation output.
        """
        if adjacency is None:
            adjacency = self.adjacency_for(graph)
        messages = self.message(x)
        aggregated = self.aggregate(adjacency, messages)
        return self.update(aggregated, target_features(x, graph))

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        return self.propagate(graph, x)

    # ------------------------------------------------------------------ #
    # cost accounting used by the BitOPs metric and Figure 1
    # ------------------------------------------------------------------ #
    def weight_slots(self) -> Dict[str, Linear]:
        """The layer's dense transforms, keyed by artifact weight slot."""
        return {}

    def stages(self, graph: Graph) -> List[Stage]:
        """This layer's stage table over a full graph (or graph batch)."""
        weights = {slot: (linear.in_features, linear.out_features,
                          linear.bias is not None)
                   for slot, linear in self.weight_slots().items()}
        edges = [aggregation_edges(self.family, graph)] * self.hops
        return stage_table(self.family, weights, graph.num_nodes,
                           graph.num_nodes, edges, self.heads)

    def operation_count(self, graph: Graph) -> int:
        """Total scalar operations for one forward pass over ``graph``."""
        return sum(operations for _, operations, _ in self.stages(graph))
