"""Quantized GNN modules: one layer class per conv family.

Each quantized layer owns one quantizer *slot* per component in the sense
of the paper: inputs, learnable parameters, the outputs of the message
function, the adjacency values, and the outputs of the aggregation.
Component bit-widths are supplied as a flat assignment dictionary, e.g.::

    {"conv0.input": 8, "conv0.weight": 4, "conv0.linear_out": 4,
     "conv0.adjacency": 8, "conv0.aggregate_out": 8,
     "conv1.weight": 2, ...}

which is exactly the format produced by the MixQ-GNN bit-width search
(:mod:`repro.core.selection`), so a search result can be instantiated as a
quantized architecture directly.

A ``quantizer_factory`` hook decides what fills each slot.  The default
uses :class:`AffineQuantizer` (fixed-bit-width quantization-aware
training); the Degree-Quant factory
(:func:`repro.quant.degree_quant.degree_quant_factory`) reproduces the
paper's "MixQ + DQ" integration; and
:func:`repro.core.relaxed_quantizer.relaxed_factory` fills every slot with
a softmax mixture over candidate bit-widths, which turns the same layers
into the searchable (relaxed) architecture of Algorithm 1.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.gnn.attention import attention_edges, attention_head_dim
from repro.gnn.costs import OUTPUT_SLOT
from repro.gnn.gat import GATConv, TransformerConv, head_scores, merge_heads
from repro.gnn.gcn import GCNConv
from repro.gnn.gin import GINConv
from repro.gnn.message_passing import GraphLike, MessagePassing
from repro.gnn.models import NodeClassifier, forward_blocks, head_merge_for_layer
from repro.gnn.sage import SAGEConv, mean_adjacency
from repro.gnn.tag import TAGConv, TAGGraphLike, hop_views
from repro.graphs.batch import GraphBatch
from repro.graphs.graph import Graph
from repro.graphs.sampling import BlockBatch, SubgraphBlock, target_features
from repro.graphs.pooling import get_pooling
from repro.nn import init
from repro.nn.activations import Dropout, ReLU
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.quant.bitops import FP32_BITS, BitOpsCounter, average_bits, count_stages
from repro.quant.quantizer import AffineQuantizer, IdentityQuantizer
from repro.tensor import functional as F
from repro.tensor.sparse import SparseTensor, spmm
from repro.tensor.tensor import Tensor

#: Signature of a quantizer factory: ``factory(bits, kind)`` with ``kind`` one
#: of ``"activation"``, ``"weight"`` or ``"adjacency"``.
QuantizerFactory = Callable[[int, str], Module]

ComponentBits = Dict[str, int]
BitWidthAssignment = Dict[str, int]


def default_quantizer_factory(bits: int, kind: str) -> Module:
    """Native QAT quantizers: affine for activations, symmetric for the rest."""
    if bits >= FP32_BITS:
        return IdentityQuantizer()
    if kind == "activation":
        return AffineQuantizer(bits=bits, signed=True, symmetric=False, observer="ema")
    if kind == "weight":
        return AffineQuantizer(bits=bits, signed=True, symmetric=True, observer="minmax")
    if kind == "adjacency":
        return AffineQuantizer(bits=bits, signed=True, symmetric=True, observer="minmax")
    raise ValueError(f"unknown quantizer kind {kind!r}")


def _bits_of(quantizer: Module) -> int:
    return int(getattr(quantizer, "bits", FP32_BITS))


def set_active_block(module: Module, block) -> None:
    """Align node-indexed quantizers (Degree-Quant) inside ``module`` with a
    block's global node ids (duck-typed; ``None`` clears).

    Multi-hop layers call this per hop: the per-layer announcement made by
    :func:`~repro.gnn.models.forward_blocks` aligns only the layer's *input*
    block, while a TAG layer's hop outputs are row-indexed by each hop
    view's target side.
    """
    for sub in module.modules():
        if hasattr(sub, "set_active_block"):
            sub.set_active_block(block)


class _QuantizedAdjacency:
    """Aggregates messages through one adjacency slot's quantized adjacency.

    A fixed slot fake-quantizes the adjacency values and computes
    ``spmm(quantized, messages)``.  A relaxed slot (one exposing
    ``mixture_terms``, see :class:`~repro.core.relaxed_quantizer.RelaxedQuantizer`)
    keeps one quantized copy per candidate bit-width and blends the
    per-choice aggregation outputs with its softmax weights: the sparse
    values are not part of the autograd graph, so mixing the *outputs* is
    what lets task gradients reach the relaxation parameters.

    Quantized copies are built once per adjacency object.  The cache stores
    the source adjacency alongside them: the stored reference keeps the
    source alive, so an ``id()`` key can never be silently reused by a
    different (garbage-collected-and-reallocated) adjacency of another graph.
    Deliberately not a :class:`Module`, so the slot's quantizer is
    registered once, by the layer that owns it.
    """

    def __init__(self, quantizer: Module):
        self.quantizer = quantizer
        self.relaxed = hasattr(quantizer, "mixture_terms")
        self._cache: dict[int, tuple[SparseTensor, List[SparseTensor]]] = {}

    def aggregate(self, adjacency: SparseTensor, messages: Tensor) -> Tensor:
        variants = self._quantized(adjacency)
        if not self.relaxed:
            return spmm(variants[0], messages)
        self.quantizer.last_numel = adjacency.nnz
        return self.quantizer.mixture_terms(
            [spmm(variant, messages) for variant in variants])

    def _quantized(self, adjacency: SparseTensor) -> List[SparseTensor]:
        key = id(adjacency)
        entry = self._cache.get(key)
        if entry is None or entry[0] is not adjacency:
            choices = self.quantizer.quantizers if self.relaxed else [self.quantizer]
            variants = []
            for quantizer in choices:
                if isinstance(quantizer, IdentityQuantizer):
                    variants.append(adjacency)
                    continue
                integers, params = quantizer.quantize_array(adjacency.values)
                values = quantizer.dequantize_array(integers, params)
                variants.append(adjacency.with_values(values.astype(np.float32)))
            self._cache[key] = (adjacency, variants)
            if len(self._cache) > 8:
                self._cache.pop(next(iter(self._cache)))
        return self._cache[key][1]


class QuantLinear(Module):
    """Linear layer with fake-quantized weight and (optionally) output."""

    def __init__(self, in_features: int, out_features: int,
                 weight_bits: int = 8, output_bits: int = 8, bias: bool = True,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)
        self.weight_quantizer = quantizer_factory(weight_bits, "weight")
        self.output_quantizer = quantizer_factory(output_bits, "activation")

    def forward(self, x: Tensor) -> Tensor:
        weight = self.weight_quantizer(self.linear.weight)
        out = x.matmul(weight)
        if self.linear.bias is not None:
            out = out + self.linear.bias
        return self.output_quantizer(out)

    def component_bits(self, prefix: str) -> ComponentBits:
        return {f"{prefix}.weight": _bits_of(self.weight_quantizer),
                f"{prefix}.output": _bits_of(self.output_quantizer)}

    def bit_operations(self, num_rows: int, incoming_bits: int,
                       prefix: str) -> tuple[BitOpsCounter, int]:
        counter = BitOpsCounter()
        bits = max(incoming_bits, _bits_of(self.weight_quantizer))
        counter.add(f"{prefix}.matmul", self.linear.operation_count(num_rows), bits)
        return counter, _bits_of(self.output_quantizer)


class QuantConv(MessagePassing):
    """Base of the quantized conv layers: one BitOPs count for every family.

    A subclass names its family, its dense transforms (``weight_slots``)
    and every quantizer by artifact slot (``quantizer_slots``); the
    family's stage table (:mod:`repro.gnn.costs`) does the rest.  The same
    slot map is what :meth:`~repro.serving.QuantizedArtifact.from_model`
    exports.
    """

    def quantizer_slots(self) -> Dict[str, Module]:
        """Every quantizer of the layer, weights included, keyed by slot."""
        raise NotImplementedError

    def bit_operations(self, graph: Graph, incoming_bits: int,
                       prefix: str) -> tuple[BitOpsCounter, int]:
        """This layer's BitOPs on ``graph`` and its outgoing bit-width.

        ``incoming_bits`` is the width of the layer input when the layer
        does not quantize it itself.
        """
        slots = self.quantizer_slots()

        def width(slot: str) -> int:
            if slot == "input" and not self.quantize_input:
                return incoming_bits
            return _bits_of(slots[slot])

        counter = count_stages(self.stages(graph), width, prefix)
        return counter, width(OUTPUT_SLOT[self.family])


class QuantGCNConv(QuantConv):
    """GCN convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``weight``, ``linear_out``,
    ``adjacency`` and ``aggregate_out`` — the decomposition used in the
    paper's two-layer GCN example (nine components across two layers).
    """

    COMPONENTS = ("input", "weight", "linear_out", "adjacency", "aggregate_out")
    family = "gcn"

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, quantize_output: bool = True,
                 bias: bool = True,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.quantize_output = quantize_output
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)

        def build(component: str, kind: str) -> Module:
            return quantizer_factory(int(bits.get(component, FP32_BITS)), kind)

        self.input_quantizer = build("input", "activation") if quantize_input \
            else IdentityQuantizer()
        self.weight_quantizer = build("weight", "weight")
        self.linear_out_quantizer = build("linear_out", "activation")
        self.adjacency_quantizer = build("adjacency", "adjacency")
        self.aggregate_out_quantizer = build("aggregate_out", "activation") \
            if quantize_output else IdentityQuantizer()
        self._adjacency = _QuantizedAdjacency(self.adjacency_quantizer)

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        x = self.input_quantizer(x)
        weight = self.weight_quantizer(self.linear.weight)
        transformed = x.matmul(weight)
        if self.linear.bias is not None:
            transformed = transformed + self.linear.bias
        transformed = self.linear_out_quantizer(transformed)
        aggregated = self._adjacency.aggregate(graph.normalized_adjacency(), transformed)
        return self.aggregate_out_quantizer(aggregated)

    # ------------------------------------------------------------------ #
    def component_bits(self, prefix: str) -> ComponentBits:
        bits: ComponentBits = {}
        if self.quantize_input:
            bits[f"{prefix}.input"] = _bits_of(self.input_quantizer)
        bits[f"{prefix}.weight"] = _bits_of(self.weight_quantizer)
        bits[f"{prefix}.linear_out"] = _bits_of(self.linear_out_quantizer)
        bits[f"{prefix}.adjacency"] = _bits_of(self.adjacency_quantizer)
        bits[f"{prefix}.aggregate_out"] = _bits_of(self.aggregate_out_quantizer)
        return bits

    def weight_slots(self) -> Dict[str, Linear]:
        return {"weight": self.linear}

    def quantizer_slots(self) -> Dict[str, Module]:
        return {"input": self.input_quantizer, "weight": self.weight_quantizer,
                "linear_out": self.linear_out_quantizer,
                "adjacency": self.adjacency_quantizer,
                "aggregate_out": self.aggregate_out_quantizer}


class QuantGINConv(QuantConv):
    """GIN convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``adjacency``,
    ``aggregate_out``, ``weight_0`` / ``weight_1`` (the two MLP layers) and
    ``output``.
    """

    COMPONENTS = ("input", "adjacency", "aggregate_out", "weight_0", "weight_1", "output")
    family = "gin"

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False,
                 hidden_features: Optional[int] = None,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        hidden = hidden_features if hidden_features is not None else out_features
        self.hidden_features = hidden

        def bit(component: str) -> int:
            return int(bits.get(component, FP32_BITS))

        self.input_quantizer = quantizer_factory(bit("input"), "activation") \
            if quantize_input else IdentityQuantizer()
        self.adjacency_quantizer = quantizer_factory(bit("adjacency"), "adjacency")
        self.aggregate_out_quantizer = quantizer_factory(bit("aggregate_out"), "activation")
        self.mlp_first = QuantLinear(in_features, hidden, weight_bits=bit("weight_0"),
                                     output_bits=bit("aggregate_out"),
                                     quantizer_factory=quantizer_factory, rng=rng)
        self.mlp_second = QuantLinear(hidden, out_features, weight_bits=bit("weight_1"),
                                      output_bits=bit("output"),
                                      quantizer_factory=quantizer_factory, rng=rng)
        self.activation = ReLU()
        self.eps = 0.0
        self._adjacency = _QuantizedAdjacency(self.adjacency_quantizer)

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        x = self.input_quantizer(x)
        aggregated = self._adjacency.aggregate(graph.adjacency(add_self_loops=False), x)
        combined = target_features(x, graph) * (1.0 + self.eps) + aggregated
        combined = self.aggregate_out_quantizer(combined)
        hidden = self.activation(self.mlp_first(combined))
        return self.mlp_second(hidden)

    def component_bits(self, prefix: str) -> ComponentBits:
        bits: ComponentBits = {}
        if self.quantize_input:
            bits[f"{prefix}.input"] = _bits_of(self.input_quantizer)
        bits[f"{prefix}.adjacency"] = _bits_of(self.adjacency_quantizer)
        bits[f"{prefix}.aggregate_out"] = _bits_of(self.aggregate_out_quantizer)
        bits[f"{prefix}.weight_0"] = _bits_of(self.mlp_first.weight_quantizer)
        bits[f"{prefix}.weight_1"] = _bits_of(self.mlp_second.weight_quantizer)
        bits[f"{prefix}.output"] = _bits_of(self.mlp_second.output_quantizer)
        return bits

    def weight_slots(self) -> Dict[str, Linear]:
        return {"mlp0": self.mlp_first.linear, "mlp1": self.mlp_second.linear}

    def quantizer_slots(self) -> Dict[str, Module]:
        first, second = self.mlp_first, self.mlp_second
        return {"input": self.input_quantizer,
                "adjacency": self.adjacency_quantizer,
                "aggregate_out": self.aggregate_out_quantizer,
                "mlp0": first.weight_quantizer, "mlp0_out": first.output_quantizer,
                "mlp1": second.weight_quantizer, "mlp1_out": second.output_quantizer}


class QuantSAGEConv(QuantConv):
    """GraphSAGE convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``adjacency``,
    ``aggregate_out``, ``weight_root``, ``weight_neighbour`` and ``output``.
    """

    COMPONENTS = ("input", "adjacency", "aggregate_out", "weight_root",
                  "weight_neighbour", "output")
    family = "sage"

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input

        def bit(component: str) -> int:
            return int(bits.get(component, FP32_BITS))

        self.input_quantizer = quantizer_factory(bit("input"), "activation") \
            if quantize_input else IdentityQuantizer()
        self.adjacency_quantizer = quantizer_factory(bit("adjacency"), "adjacency")
        self.aggregate_out_quantizer = quantizer_factory(bit("aggregate_out"), "activation")
        self.linear_root = Linear(in_features, out_features, bias=True, rng=rng)
        self.linear_neighbour = Linear(in_features, out_features, bias=False, rng=rng)
        self.weight_root_quantizer = quantizer_factory(bit("weight_root"), "weight")
        self.weight_neighbour_quantizer = quantizer_factory(bit("weight_neighbour"), "weight")
        self.output_quantizer = quantizer_factory(bit("output"), "activation")
        self._adjacency = _QuantizedAdjacency(self.adjacency_quantizer)

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        x = self.input_quantizer(x)
        aggregated = self.aggregate_out_quantizer(
            self._adjacency.aggregate(mean_adjacency(graph), x))
        weight_root = self.weight_root_quantizer(self.linear_root.weight)
        weight_neighbour = self.weight_neighbour_quantizer(self.linear_neighbour.weight)
        out = target_features(x, graph).matmul(weight_root) + self.linear_root.bias \
            + aggregated.matmul(weight_neighbour)
        return self.output_quantizer(out)

    def component_bits(self, prefix: str) -> ComponentBits:
        bits: ComponentBits = {}
        if self.quantize_input:
            bits[f"{prefix}.input"] = _bits_of(self.input_quantizer)
        bits[f"{prefix}.adjacency"] = _bits_of(self.adjacency_quantizer)
        bits[f"{prefix}.aggregate_out"] = _bits_of(self.aggregate_out_quantizer)
        bits[f"{prefix}.weight_root"] = _bits_of(self.weight_root_quantizer)
        bits[f"{prefix}.weight_neighbour"] = _bits_of(self.weight_neighbour_quantizer)
        bits[f"{prefix}.output"] = _bits_of(self.output_quantizer)
        return bits

    def weight_slots(self) -> Dict[str, Linear]:
        return {"root": self.linear_root, "neighbour": self.linear_neighbour}

    def quantizer_slots(self) -> Dict[str, Module]:
        return {"input": self.input_quantizer,
                "adjacency": self.adjacency_quantizer,
                "aggregate_out": self.aggregate_out_quantizer,
                "root": self.weight_root_quantizer,
                "neighbour": self.weight_neighbour_quantizer,
                "output": self.output_quantizer}


class QuantGATConv(QuantConv):
    """Multi-head GAT convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``weight`` (the feature
    transform), ``linear_out``, ``attention`` (the post-softmax attention
    coefficients, quantized symmetrically like an adjacency) and
    ``aggregate_out``.  The attention parameter vectors and the score /
    softmax stage stay in full precision — only the coefficient matrix that
    weights the aggregation is quantized, which is what lets the serving
    executor run the aggregation as an integer per-edge score plan.  Heads
    add a score column each (coefficients ``(E, H)``, one shared
    ``attention`` quantizer) and never change the component set.
    """

    COMPONENTS = ("input", "weight", "linear_out", "attention", "aggregate_out")
    family = "gat"

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, negative_slope: float = 0.2,
                 heads: int = 1, head_merge: str = "concat",
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.negative_slope = negative_slope
        self.heads = int(heads)
        self.head_merge = head_merge
        self.head_dim = attention_head_dim(out_features, self.heads, head_merge)
        width = self.heads * self.head_dim
        self.linear = Linear(in_features, width, bias=False, rng=rng)
        self.attention_src = Parameter(init.glorot_uniform((self.head_dim, self.heads),
                                                           rng=rng),
                                       name="attention_src")
        self.attention_dst = Parameter(init.glorot_uniform((self.head_dim, self.heads),
                                                           rng=rng),
                                       name="attention_dst")
        self.bias = Parameter(init.zeros((out_features,)), name="bias")

        def bit(component: str) -> int:
            return int(bits.get(component, FP32_BITS))

        self.input_quantizer = quantizer_factory(bit("input"), "activation") \
            if quantize_input else IdentityQuantizer()
        self.weight_quantizer = quantizer_factory(bit("weight"), "weight")
        self.linear_out_quantizer = quantizer_factory(bit("linear_out"), "activation")
        self.attention_quantizer = quantizer_factory(bit("attention"), "adjacency")
        self.aggregate_out_quantizer = quantizer_factory(bit("aggregate_out"),
                                                         "activation")

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        x = self.input_quantizer(x)
        weight = self.weight_quantizer(self.linear.weight)
        transformed = self.linear_out_quantizer(x.matmul(weight))
        edges = attention_edges(graph)
        score_src = head_scores(transformed, self.attention_src,
                                self.heads, self.head_dim)
        score_dst = head_scores(transformed, self.attention_dst,
                                self.heads, self.head_dim)
        edge_scores = F.leaky_relu(score_src[edges.src] + score_dst[edges.dst],
                                   negative_slope=self.negative_slope)
        attention = F.scatter_softmax(edge_scores, edges.dst, edges.num_dst)
        attention = self.attention_quantizer(attention)
        per_head = transformed.reshape(-1, self.heads, self.head_dim)
        messages = per_head[edges.src] * attention.reshape(-1, self.heads, 1)
        aggregated = F.segment_sum(messages, edges.dst, edges.num_dst)
        merged = merge_heads(aggregated, self.heads, self.head_dim,
                             self.head_merge)
        return self.aggregate_out_quantizer(merged + self.bias)

    def component_bits(self, prefix: str) -> ComponentBits:
        bits: ComponentBits = {}
        if self.quantize_input:
            bits[f"{prefix}.input"] = _bits_of(self.input_quantizer)
        bits[f"{prefix}.weight"] = _bits_of(self.weight_quantizer)
        bits[f"{prefix}.linear_out"] = _bits_of(self.linear_out_quantizer)
        bits[f"{prefix}.attention"] = _bits_of(self.attention_quantizer)
        bits[f"{prefix}.aggregate_out"] = _bits_of(self.aggregate_out_quantizer)
        return bits

    def weight_slots(self) -> Dict[str, Linear]:
        return {"weight": self.linear}

    def quantizer_slots(self) -> Dict[str, Module]:
        return {"input": self.input_quantizer, "weight": self.weight_quantizer,
                "linear_out": self.linear_out_quantizer,
                "attention": self.attention_quantizer,
                "aggregate_out": self.aggregate_out_quantizer}


class QuantTransformerConv(QuantConv):
    """Multi-head transformer convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``weight_query`` /
    ``weight_key`` / ``weight_value``, ``value_out``, ``attention`` (the
    post-softmax coefficients) and ``aggregate_out``.  Scores (scaled
    query·key dot products, one column per head) and the softmax stay in
    full precision; heads never change the component set.
    """

    COMPONENTS = ("input", "weight_query", "weight_key", "weight_value",
                  "value_out", "attention", "aggregate_out")
    family = "transformer"

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, heads: int = 1,
                 head_merge: str = "concat",
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.heads = int(heads)
        self.head_merge = head_merge
        self.head_dim = attention_head_dim(out_features, self.heads, head_merge)
        width = self.heads * self.head_dim
        self.query = Linear(in_features, width, bias=False, rng=rng)
        self.key = Linear(in_features, width, bias=False, rng=rng)
        self.value = Linear(in_features, width, bias=True, rng=rng)

        def bit(component: str) -> int:
            return int(bits.get(component, FP32_BITS))

        self.input_quantizer = quantizer_factory(bit("input"), "activation") \
            if quantize_input else IdentityQuantizer()
        self.weight_query_quantizer = quantizer_factory(bit("weight_query"), "weight")
        self.weight_key_quantizer = quantizer_factory(bit("weight_key"), "weight")
        self.weight_value_quantizer = quantizer_factory(bit("weight_value"), "weight")
        self.value_out_quantizer = quantizer_factory(bit("value_out"), "activation")
        self.attention_quantizer = quantizer_factory(bit("attention"), "adjacency")
        self.aggregate_out_quantizer = quantizer_factory(bit("aggregate_out"),
                                                         "activation")

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        x = self.input_quantizer(x)
        queries = x.matmul(self.weight_query_quantizer(self.query.weight))
        keys = x.matmul(self.weight_key_quantizer(self.key.weight))
        values = x.matmul(self.weight_value_quantizer(self.value.weight)) \
            + self.value.bias
        values = self.value_out_quantizer(values)
        edges = attention_edges(graph)
        queries = queries.reshape(-1, self.heads, self.head_dim)
        keys = keys.reshape(-1, self.heads, self.head_dim)
        values = values.reshape(-1, self.heads, self.head_dim)
        scale = 1.0 / np.sqrt(self.head_dim)
        edge_scores = (queries[edges.dst] * keys[edges.src]).sum(axis=-1) * scale
        attention = F.scatter_softmax(edge_scores, edges.dst, edges.num_dst)
        attention = self.attention_quantizer(attention)
        messages = values[edges.src] * attention.reshape(-1, self.heads, 1)
        aggregated = F.segment_sum(messages, edges.dst, edges.num_dst)
        merged = merge_heads(aggregated, self.heads, self.head_dim,
                             self.head_merge)
        return self.aggregate_out_quantizer(merged)

    def component_bits(self, prefix: str) -> ComponentBits:
        bits: ComponentBits = {}
        if self.quantize_input:
            bits[f"{prefix}.input"] = _bits_of(self.input_quantizer)
        bits[f"{prefix}.weight_query"] = _bits_of(self.weight_query_quantizer)
        bits[f"{prefix}.weight_key"] = _bits_of(self.weight_key_quantizer)
        bits[f"{prefix}.weight_value"] = _bits_of(self.weight_value_quantizer)
        bits[f"{prefix}.value_out"] = _bits_of(self.value_out_quantizer)
        bits[f"{prefix}.attention"] = _bits_of(self.attention_quantizer)
        bits[f"{prefix}.aggregate_out"] = _bits_of(self.aggregate_out_quantizer)
        return bits

    def weight_slots(self) -> Dict[str, Linear]:
        return {"query": self.query, "key": self.key, "value": self.value}

    def quantizer_slots(self) -> Dict[str, Module]:
        return {"input": self.input_quantizer,
                "query": self.weight_query_quantizer,
                "key": self.weight_key_quantizer,
                "value": self.weight_value_quantizer,
                "value_out": self.value_out_quantizer,
                "attention": self.attention_quantizer,
                "aggregate_out": self.aggregate_out_quantizer}


class QuantTAGConv(QuantConv):
    """TAG convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``adjacency``, ``hop_out``
    (the propagated features after every hop, one shared quantizer),
    ``weight_0`` … ``weight_K`` (one per adjacency power) and ``output``.
    In minibatch mode the layer consumes ``hops`` stacked blocks — its
    per-layer hop plan — exactly like the float :class:`TAGConv`.
    """

    family = "tag"

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, hops: int = 3,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if hops < 1:
            raise ValueError("QuantTAGConv needs at least one hop")
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.hops = hops
        self.linears = ModuleList(
            [Linear(in_features, out_features, bias=(k == 0), rng=rng)
             for k in range(hops + 1)])

        def bit(component: str) -> int:
            return int(bits.get(component, FP32_BITS))

        self.input_quantizer = quantizer_factory(bit("input"), "activation") \
            if quantize_input else IdentityQuantizer()
        self.adjacency_quantizer = quantizer_factory(bit("adjacency"), "adjacency")
        self.hop_out_quantizer = quantizer_factory(bit("hop_out"), "activation")
        self.weight_quantizers = ModuleList(
            [quantizer_factory(bit(f"weight_{k}"), "weight")
             for k in range(hops + 1)])
        self.output_quantizer = quantizer_factory(bit("output"), "activation")
        self._adjacency = _QuantizedAdjacency(self.adjacency_quantizer)

    @classmethod
    def components(cls, hops: int) -> tuple:
        return ("input", "adjacency", "hop_out",
                *(f"weight_{k}" for k in range(hops + 1)), "output")

    def forward(self, x: Tensor, graph: TAGGraphLike) -> Tensor:
        x = self.input_quantizer(x)
        views = hop_views(graph, self.hops)
        last = views[-1]
        num_final = last.num_dst if isinstance(last, SubgraphBlock) else None

        def final_rows(tensor: Tensor) -> Tensor:
            return tensor if num_final is None else tensor[:num_final]

        weight = self.weight_quantizers[0](self.linears[0].weight)
        output = final_rows(x).matmul(weight) + self.linears[0].bias
        propagated = x
        for hop, view in enumerate(views, start=1):
            propagated = self._adjacency.aggregate(view.normalized_adjacency(), propagated)
            if isinstance(view, SubgraphBlock):
                # Hop outputs are row-indexed by this hop's target side, not
                # by the layer's input block (the one forward_blocks set).
                set_active_block(self.hop_out_quantizer, view)
            propagated = self.hop_out_quantizer(propagated)
            weight = self.weight_quantizers[hop](self.linears[hop].weight)
            output = output + final_rows(propagated).matmul(weight)
        if isinstance(last, SubgraphBlock):
            set_active_block(self.output_quantizer, last)
        return self.output_quantizer(output)

    def component_bits(self, prefix: str) -> ComponentBits:
        bits: ComponentBits = {}
        if self.quantize_input:
            bits[f"{prefix}.input"] = _bits_of(self.input_quantizer)
        bits[f"{prefix}.adjacency"] = _bits_of(self.adjacency_quantizer)
        bits[f"{prefix}.hop_out"] = _bits_of(self.hop_out_quantizer)
        for k, quantizer in enumerate(self.weight_quantizers):
            bits[f"{prefix}.weight_{k}"] = _bits_of(quantizer)
        bits[f"{prefix}.output"] = _bits_of(self.output_quantizer)
        return bits

    def weight_slots(self) -> Dict[str, Linear]:
        return {f"hop{k}": linear for k, linear in enumerate(self.linears)}

    def quantizer_slots(self) -> Dict[str, Module]:
        slots = {"input": self.input_quantizer, "adjacency": self.adjacency_quantizer,
                 "hop_out": self.hop_out_quantizer, "output": self.output_quantizer}
        slots.update((f"hop{k}", quantizer)
                     for k, quantizer in enumerate(self.weight_quantizers))
        return slots


#: ``conv_type`` -> quantized conv class, shared by every model builder.
_CONVS: Dict[str, type] = {"gcn": QuantGCNConv, "gin": QuantGINConv,
                           "sage": QuantSAGEConv, "gat": QuantGATConv,
                           "tag": QuantTAGConv, "transformer": QuantTransformerConv}


def _layer_assignment(assignment: BitWidthAssignment, prefix: str) -> ComponentBits:
    """Extract the ``component -> bits`` mapping for one layer prefix."""
    marker = prefix + "."
    return {key[len(marker):]: value for key, value in assignment.items()
            if key.startswith(marker)}


class QuantNodeClassifier(Module):
    """Quantized counterpart of :class:`~repro.gnn.models.NodeClassifier`."""

    def __init__(self, convs: List[MessagePassing], dropout: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.convs = ModuleList(convs)
        self.activation = ReLU()
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, graph, x: Optional[Tensor] = None) -> Tensor:
        if isinstance(graph, BlockBatch):
            return forward_blocks(self, graph, x)
        if x is None:
            x = Tensor(graph.x)
        num_layers = len(self.convs)
        for index, conv in enumerate(self.convs):
            x = conv(x, graph)
            if index < num_layers - 1:
                x = self.activation(x)
                x = self.dropout(x)
        return x

    # ------------------------------------------------------------------ #
    def component_bits(self) -> ComponentBits:
        bits: ComponentBits = {}
        for index, conv in enumerate(self.convs):
            bits.update(conv.component_bits(f"conv{index}"))
        return bits

    def average_bits(self) -> float:
        return average_bits(self.component_bits().values())

    def bit_operations(self, graph: Graph) -> BitOpsCounter:
        counter = BitOpsCounter()
        incoming = FP32_BITS
        for index, conv in enumerate(self.convs):
            layer_counter, incoming = conv.bit_operations(graph, incoming, f"conv{index}")
            counter.extend(layer_counter)
        return counter

    # ------------------------------------------------------------------ #
    @classmethod
    def from_assignment(cls, layer_dims: List[tuple], conv_type: str,
                        assignment: BitWidthAssignment, dropout: float = 0.5,
                        quantizer_factory: QuantizerFactory = default_quantizer_factory,
                        hops: int = 3, heads: int = 1, head_merge: str = "concat",
                        rng: Optional[np.random.Generator] = None) -> "QuantNodeClassifier":
        """Build a quantized classifier from layer dimensions and a bit assignment.

        ``layer_dims`` is a list of ``(in_features, out_features)`` tuples and
        ``conv_type`` one of ``"gcn"`` / ``"gin"`` / ``"sage"`` / ``"gat"`` /
        ``"tag"`` / ``"transformer"``.  ``hops`` only applies to ``"tag"``;
        ``heads`` / ``head_merge`` only to the attention families — hidden
        layers merge by ``head_merge``, the output layer by ``mean``
        (:func:`~repro.gnn.models.head_merge_for_layer`).
        """
        if conv_type not in _CONVS:
            raise KeyError(f"unknown conv type {conv_type!r}; options: {sorted(_CONVS)}")
        conv_class = _CONVS[conv_type]
        convs: List[MessagePassing] = []
        for index, (fan_in, fan_out) in enumerate(layer_dims):
            layer_bits = _layer_assignment(assignment, f"conv{index}")
            if conv_type == "tag":
                extra = {"hops": hops}
            elif conv_type in ("gat", "transformer"):
                extra = {"heads": heads,
                         "head_merge": head_merge_for_layer(index, len(layer_dims),
                                                            heads, head_merge)}
            else:
                extra = {}
            convs.append(conv_class(fan_in, fan_out, layer_bits,
                                    quantize_input=(index == 0),
                                    quantizer_factory=quantizer_factory, rng=rng,
                                    **extra))
        return cls(convs, dropout=dropout, rng=rng)

    @classmethod
    def from_float(cls, model: NodeClassifier, assignment: BitWidthAssignment,
                   dropout: float = 0.5,
                   quantizer_factory: QuantizerFactory = default_quantizer_factory,
                   rng: Optional[np.random.Generator] = None) -> "QuantNodeClassifier":
        """Mirror a float :class:`NodeClassifier`, copying its layer dimensions."""
        layer_dims = []
        conv_type = None
        hops = 3
        tag_hops = set()
        layer_heads = set()
        hidden_merges = set()
        for conv in model.convs:
            layer_dims.append((conv.in_features, conv.out_features))
            for float_class, name in ((GCNConv, "gcn"), (GINConv, "gin"),
                                      (SAGEConv, "sage"), (GATConv, "gat"),
                                      (TAGConv, "tag"),
                                      (TransformerConv, "transformer")):
                if isinstance(conv, float_class):
                    conv_type = name
                    if name == "tag":
                        tag_hops.add(conv.hops)
        if conv_type is None:
            raise TypeError("from_float supports GCN / GIN / GraphSAGE / GAT / "
                            "TAG / Transformer convolutions")
        if len(tag_hops) > 1:
            # from_assignment builds every layer with one hops value; a mixed
            # stack would silently change the mirrored architecture.
            raise TypeError(f"from_float needs uniform TAG hops per stack, "
                            f"got {sorted(tag_hops)}")
        if tag_hops:
            hops = tag_hops.pop()
        if conv_type in ("gat", "transformer"):
            for index, conv in enumerate(model.convs):
                layer_heads.add(conv.heads)
                if index < len(model.convs) - 1:
                    hidden_merges.add(conv.head_merge)
        if len(layer_heads) > 1:
            raise TypeError(f"from_float needs a uniform head count per stack, "
                            f"got {sorted(layer_heads)}")
        if len(hidden_merges) > 1:
            raise TypeError(f"from_float needs one hidden-layer head merge, "
                            f"got {sorted(hidden_merges)}")
        heads = layer_heads.pop() if layer_heads else 1
        head_merge = hidden_merges.pop() if hidden_merges else "concat"
        if heads > 1:
            # from_assignment rebuilds each layer's merge through
            # head_merge_for_layer; a float stack that deviates from that
            # policy (e.g. a concat-merged output layer) would be silently
            # mirrored into a different architecture — refuse instead.
            for index, conv in enumerate(model.convs):
                expected = head_merge_for_layer(index, len(model.convs),
                                                heads, head_merge)
                if conv.head_merge != expected:
                    raise TypeError(
                        f"from_float cannot mirror layer {index}'s head merge "
                        f"{conv.head_merge!r}: multi-head stacks are rebuilt "
                        f"with {expected!r} there (hidden layers merge by the "
                        f"shared head_merge, the output layer by 'mean')")
        return cls.from_assignment(layer_dims, conv_type, assignment, dropout=dropout,
                                   quantizer_factory=quantizer_factory, hops=hops,
                                   heads=heads, head_merge=head_merge, rng=rng)


class QuantGraphClassifier(Module):
    """Quantized counterpart of :class:`~repro.gnn.models.GraphClassifier`."""

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 assignment: BitWidthAssignment, num_layers: int = 5,
                 pooling: str = "max", dropout: float = 0.5,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        convs: List[MessagePassing] = []
        for index in range(num_layers):
            fan_in = in_features if index == 0 else hidden_features
            layer_bits = _layer_assignment(assignment, f"conv{index}")
            convs.append(QuantGINConv(fan_in, hidden_features, layer_bits,
                                      quantize_input=(index == 0),
                                      quantizer_factory=quantizer_factory, rng=rng))
        self.convs = ModuleList(convs)
        self.pooling_name = pooling
        self._pool = get_pooling(pooling)
        head_bits = _layer_assignment(assignment, "head0")
        out_bits = _layer_assignment(assignment, "head1")
        self.head_hidden = QuantLinear(hidden_features, hidden_features,
                                       weight_bits=int(head_bits.get("weight", FP32_BITS)),
                                       output_bits=int(head_bits.get("output", FP32_BITS)),
                                       quantizer_factory=quantizer_factory, rng=rng)
        self.head_out = QuantLinear(hidden_features, num_classes,
                                    weight_bits=int(out_bits.get("weight", FP32_BITS)),
                                    output_bits=int(out_bits.get("output", FP32_BITS)),
                                    quantizer_factory=quantizer_factory, rng=rng)
        self.activation = ReLU()
        self.dropout = Dropout(dropout, rng=rng)
        self.hidden_features = hidden_features
        self.num_classes = num_classes

    def forward(self, batch: GraphBatch, x: Optional[Tensor] = None) -> Tensor:
        if x is None:
            x = Tensor(batch.x)
        for conv in self.convs:
            x = conv(x, batch)
            x = self.activation(x)
        pooled = self._pool(x, batch.batch, batch.num_graphs)
        hidden = self.activation(self.head_hidden(pooled))
        hidden = self.dropout(hidden)
        return self.head_out(hidden)

    def component_bits(self) -> ComponentBits:
        bits: ComponentBits = {}
        for index, conv in enumerate(self.convs):
            bits.update(conv.component_bits(f"conv{index}"))
        bits.update(self.head_hidden.component_bits("head0"))
        bits.update(self.head_out.component_bits("head1"))
        return bits

    def average_bits(self) -> float:
        return average_bits(self.component_bits().values())

    def bit_operations(self, batch: Graph) -> BitOpsCounter:
        counter = BitOpsCounter()
        incoming = FP32_BITS
        for index, conv in enumerate(self.convs):
            layer_counter, incoming = conv.bit_operations(batch, incoming, f"conv{index}")
            counter.extend(layer_counter)
        num_graphs = getattr(batch, "num_graphs", 1)
        head_counter, incoming = self.head_hidden.bit_operations(num_graphs, incoming, "head0")
        counter.extend(head_counter)
        out_counter, _ = self.head_out.bit_operations(num_graphs, incoming, "head1")
        counter.extend(out_counter)
        return counter


def uniform_assignment(component_names: List[str], bits: int) -> BitWidthAssignment:
    """Assign the same bit-width to every named component (uniform QAT baseline)."""
    return {name: int(bits) for name in component_names}


def component_names(conv_type: str, num_layers: int, hops: int = 3) -> List[str]:
    """Component names of an ``num_layers``-layer quantized ``conv_type`` stack.

    Only the first layer has an ``input`` component; ``hops`` only applies
    to ``"tag"``.
    """
    conv_class = _CONVS[conv_type]
    components = conv_class.components(hops) if conv_class is QuantTAGConv \
        else conv_class.COMPONENTS
    return [f"conv{index}.{component}" for index in range(num_layers)
            for component in (components if index == 0 else components[1:])]


def gcn_component_names(num_layers: int) -> List[str]:
    """Component names of an ``num_layers``-layer quantized GCN (paper's example)."""
    return component_names("gcn", num_layers)


def gin_component_names(num_layers: int, with_head: bool = True) -> List[str]:
    """Component names of a quantized GIN graph classifier."""
    head = ["head0.weight", "head0.output", "head1.weight", "head1.output"]
    return component_names("gin", num_layers) + (head if with_head else [])


def sage_component_names(num_layers: int) -> List[str]:
    """Component names of a quantized GraphSAGE node classifier."""
    return component_names("sage", num_layers)


def gat_component_names(num_layers: int) -> List[str]:
    """Component names of a quantized GAT node classifier."""
    return component_names("gat", num_layers)


def transformer_component_names(num_layers: int) -> List[str]:
    """Component names of a quantized Transformer node classifier."""
    return component_names("transformer", num_layers)


def tag_component_names(num_layers: int, hops: int = 3) -> List[str]:
    """Component names of a quantized TAG node classifier."""
    return component_names("tag", num_layers, hops=hops)
