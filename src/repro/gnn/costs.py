"""The stage table: one definition of each conv family's operation counts.

BitOPs (Section 5.1 of the paper) weight every function's scalar
operations by the bit-width it runs at.  :func:`stage_table` lists, per
conv family, the stages a layer runs, their operation counts and the
operand *slots* that set their widths.  Float ``operation_count`` sums the
operations; QAT ``bit_operations`` (:mod:`repro.quant.qmodules`) and the
serving executor (:mod:`repro.serving.session`) resolve the slots through
their quantizers and the artifact's layer plan, so float ops == QAT ops ==
served ops.  The counting rules, each matching what the integer executor
runs:

1. Aggregation edges are the non-zeros of the operator the family
   aggregates with — the attention edge list for GAT / Transformer — on
   full graphs and blocks alike (:func:`aggregation_edges`).
2. A dense transform costs :func:`~repro.nn.linear.dense_operations`,
   bias adds included.
3. A stage runs at the larger of its operands' widths; :data:`FP32` is an
   operand that is always 32-bit.
4. Records are named ``conv{i}.<stage>``, the ``component_bits()`` prefix.

Slots carry the artifact's names: weight slots (``weight``, ``root``,
``mlp0``, ``hop1`` ...) name the dense transforms, the others name
activation / adjacency quantizers.  ``input`` is the layer's own input
quantizer when it has one, else the previous layer's :data:`OUTPUT_SLOT`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.gnn.attention import attention_edges
from repro.nn.linear import dense_operations

#: ``(fan_in, fan_out, has_bias)`` of one weight slot.
WeightShape = Tuple[int, int, bool]
#: ``(stage name, scalar operations, operand slots)``.
Stage = Tuple[str, int, Tuple[str, ...]]

#: Operand slot of a stage that always runs in full precision.
FP32 = "fp32"

#: The slot that quantizes each family's layer output.
OUTPUT_SLOT: Dict[str, str] = {
    "gcn": "aggregate_out", "sage": "output", "gin": "mlp1_out",
    "gat": "aggregate_out", "transformer": "aggregate_out", "tag": "output"}


def aggregation_edges(family: str, graph) -> int:
    """Edges one ``family`` aggregation visits on a graph or block (rule 1)."""
    if family in ("gat", "transformer"):
        return attention_edges(graph).num_edges
    if family in ("gcn", "tag"):
        return graph.normalized_adjacency().nnz
    # GIN sums over the raw adjacency; SAGE's mean operator rescales its values.
    return graph.adjacency(add_self_loops=False).nnz


def stage_table(family: str, weights: Mapping[str, WeightShape], n_src: int,
                n_dst: int, edges: Sequence[int], heads: int = 1) -> List[Stage]:
    """The stages of one ``family`` layer.

    ``n_src`` / ``n_dst`` are the layer's input and output rows (equal on a
    full graph), ``edges`` the aggregation edge count of each hop.
    """
    def dense(rows: int, slot: str) -> int:
        return dense_operations(rows, *weights[slot])

    if family == "gcn":
        return [("transform", dense(n_src, "weight"), ("input", "weight")),
                ("aggregate", 2 * edges[0] * weights["weight"][1],
                 ("adjacency", "linear_out"))]
    if family == "sage":
        fan_in = weights["root"][0]
        return [("aggregate", 2 * edges[0] * fan_in, ("adjacency", "input")),
                ("transform_root", dense(n_dst, "root"), ("input", "root")),
                ("transform_neighbour", dense(n_dst, "neighbour"),
                 ("aggregate_out", "neighbour"))]
    if family == "gin":
        fan_in = weights["mlp0"][0]
        return [("aggregate", 2 * edges[0] * fan_in, ("adjacency", "input")),
                ("combine", 2 * n_dst * fan_in, ("adjacency", "input")),
                ("mlp0", dense(n_dst, "mlp0"), ("aggregate_out", "mlp0")),
                ("mlp1", dense(n_dst, "mlp1"), ("mlp0_out", "mlp1"))]
    if family == "gat":
        fan_in, width, _ = weights["weight"]
        # The GAT bias is added after the head merge, not in the transform.
        # Score: two per-head projections per node, leaky-relu + softmax per
        # edge and head.
        return [("transform", dense_operations(n_src, fan_in, width, False),
                 ("input", "weight")),
                ("score", 4 * n_src * width + 6 * edges[0] * heads, (FP32,)),
                ("aggregate", 2 * edges[0] * width, ("attention", "linear_out"))]
    if family == "transformer":
        width = weights["value"][1]
        stages = [(f"transform_{name}", dense(n_src, name), ("input", name))
                  for name in ("query", "key", "value")]
        # Score: one head_dim-wide dot product plus scale/softmax per edge
        # and head.
        return stages + [
            ("score", (2 * width + 5 * heads) * edges[0], (FP32,)),
            ("aggregate", 2 * edges[0] * width, ("attention", "value_out"))]
    if family == "tag":
        fan_in = weights["hop0"][0]
        stages = [("transform_hop0", dense(n_dst, "hop0"), ("input", "hop0"))]
        for hop, hop_edges in enumerate(edges, start=1):
            propagated = "input" if hop == 1 else "hop_out"
            stages += [(f"aggregate_hop{hop}", 2 * hop_edges * fan_in,
                        ("adjacency", propagated)),
                       (f"transform_hop{hop}", dense(n_dst, f"hop{hop}"),
                        ("hop_out", f"hop{hop}"))]
        return stages
    raise KeyError(f"no stage table for conv family {family!r}")
