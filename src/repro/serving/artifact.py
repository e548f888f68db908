"""Serializable deployment artifact for quantized GNN serving.

:class:`QuantizedArtifact` captures everything the integer serving path
(Figure 7, stage 5 / Theorem 1) needs and nothing it doesn't: integer weight
matrices with their symmetric scales, the per-tensor quantization parameters
of every activation and adjacency component observed during QAT, the
bit-width assignment, the conv family and the layer topology.  Once
exported, serving never touches the training stack — an artifact
``save()``-d on one machine can be ``load()``-ed and served on another that
only has the :mod:`repro.serving` package and the graph data.

The on-disk format is an ``.npz`` holding the arrays (integer weights,
biases) plus a human-readable ``.json`` sidecar with the scalar metadata
(scales, zero-points, bit-widths, topology).  Integer weights are stored as
float64 integer values, which round-trips bit-exactly for every bit-width up
to (and including) the FP32 passthrough of unquantized components.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.quant.qmodules import QuantConv
from repro.quant.quantizer import AffineQuantizer, IdentityQuantizer, QuantizationParameters

PathLike = Union[str, Path]

FORMAT_NAME = "repro.serving.artifact"
#: v2 added the attention score plans (gat / tag / transformer conv
#: families, per-layer ``hops`` and ``negative_slope``); v3 added the head
#: axis (per-layer ``heads`` and ``head_merge``, per-head FP32 attention
#: vectors stored column-per-head).  v1 and v2 artifacts load unchanged —
#: missing head fields default to the single-head layout.
FORMAT_VERSION = 3


def tag_weight_slots(hops: int) -> Tuple[str, ...]:
    """Weight slots of one TAG layer: one matrix per adjacency power."""
    return tuple(f"hop{k}" for k in range(hops + 1))


#: Ordered weight slots of each supported conv family.  TAG slots depend on
#: the layer's hop count — the table lists the default (``hops=3``); use
#: :func:`tag_weight_slots` for other depths.
WEIGHT_SLOTS: Dict[str, Tuple[str, ...]] = {
    "gcn": ("weight",),
    "sage": ("root", "neighbour"),
    "gin": ("mlp0", "mlp1"),
    "gat": ("weight", "attention_src", "attention_dst"),
    "transformer": ("query", "key", "value"),
    "tag": tag_weight_slots(3),
}

#: Activation / adjacency quantizer slots of each supported conv family.
#: For the attention families the ``attention`` slot quantizes the
#: post-softmax coefficient matrix — the per-edge *score plan* the integer
#: executor aggregates with.
QUANTIZER_SLOTS: Dict[str, Tuple[str, ...]] = {
    "gcn": ("input", "linear_out", "adjacency", "aggregate_out"),
    "sage": ("input", "adjacency", "aggregate_out", "output"),
    "gin": ("input", "adjacency", "aggregate_out", "mlp0_out", "mlp1_out"),
    "gat": ("input", "linear_out", "attention", "aggregate_out"),
    "transformer": ("input", "value_out", "attention", "aggregate_out"),
    "tag": ("input", "adjacency", "hop_out", "output"),
}


@dataclass
class WeightPlan:
    """One integer weight matrix with its symmetric scale and optional bias."""

    integers: np.ndarray
    scale: float
    bits: int
    bias: Optional[np.ndarray] = None

    def dequantized(self) -> np.ndarray:
        """Float view ``W_int * S_w`` (weights are symmetric, zero-point 0)."""
        return self.integers * self.scale


@dataclass
class LayerPlan:
    """Pre-extracted integer execution plan for one convolution layer.

    ``hops`` is the number of propagation steps the layer consumes (1 for
    every family except TAG), so a block-serving sampler sizes its stacks by
    ``sum(plan.hops)``; ``negative_slope`` is the GAT leaky-relu slope of
    the score stage.  ``heads`` / ``head_merge`` describe the attention
    head axis (format v3): scores run per head over ``(E, heads)`` columns
    and the per-head aggregations merge by ``concat`` (slices of
    ``out_features // heads``) or ``mean`` (full-width heads, averaged).
    """

    conv_type: str
    in_features: int
    out_features: int
    weights: Dict[str, WeightPlan]
    quantizers: Dict[str, Optional[QuantizationParameters]]
    eps: float = 0.0
    hops: int = 1
    negative_slope: float = 0.2
    heads: int = 1
    head_merge: str = "concat"

    def params(self, slot: str) -> Optional[QuantizationParameters]:
        """Quantization parameters of a named slot (None for FP32 components)."""
        return self.quantizers.get(slot)

    def slot_bits(self, slot: str) -> int:
        parameters = self.quantizers.get(slot)
        return 32 if parameters is None else int(parameters.bits)

    @property
    def head_dim(self) -> int:
        """Per-head feature width (``out_features`` for single-head layers)."""
        if self.head_merge == "mean":
            return self.out_features
        return self.out_features // self.heads


def _parameters_of(quantizer) -> Optional[QuantizationParameters]:
    """Parameters of an :class:`AffineQuantizer`, None for identity/unknown."""
    if isinstance(quantizer, IdentityQuantizer) or not isinstance(quantizer, AffineQuantizer):
        return None
    return quantizer.quantization_parameters()


def _weight_plan(weight: np.ndarray, quantizer,
                 bias: Optional[np.ndarray]) -> WeightPlan:
    """Quantize one weight matrix with its trained (frozen) quantizer."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = None if bias is None else np.asarray(bias, dtype=np.float64).copy()
    if isinstance(quantizer, AffineQuantizer):
        integers, params = quantizer.quantize_array(weight, update_range=False)
        scale, _ = params.as_scalars()
        return WeightPlan(np.asarray(integers, dtype=np.float64), float(scale),
                          int(params.bits), bias)
    return WeightPlan(weight, 1.0, 32, bias)


def _export(conv: QuantConv) -> LayerPlan:
    """One conv layer's plan, read through its slot map."""
    slots = conv.quantizer_slots()
    # The GAT bias is added *after* the attention-weighted aggregation: it
    # rides on the ``weight`` plan and the executor applies it post-merge.
    biases = {"weight": conv.bias} if conv.family == "gat" else {}
    weights: Dict[str, WeightPlan] = {}
    for slot, linear in conv.weight_slots().items():
        bias = biases.get(slot, linear.bias)
        weights[slot] = _weight_plan(linear.weight.data, slots[slot],
                                     None if bias is None else bias.data)
    if conv.family == "gat":
        # Per-head FP32 attention vectors, stored column-per-head
        # (``(head_dim, heads)``) like the QAT parameters.
        weights["attention_src"] = _weight_plan(conv.attention_src.data, None, None)
        weights["attention_dst"] = _weight_plan(conv.attention_dst.data, None, None)
    return LayerPlan(
        conv_type=conv.family,
        in_features=conv.in_features,
        out_features=conv.out_features,
        weights=weights,
        quantizers={slot: _parameters_of(quantizer)
                    for slot, quantizer in slots.items() if slot not in weights},
        eps=float(getattr(conv, "eps", 0.0)),
        hops=int(conv.hops),
        negative_slope=float(getattr(conv, "negative_slope", 0.2)),
        heads=int(conv.heads),
        head_merge=str(getattr(conv, "head_merge", "concat")))


def _params_to_json(params: Optional[QuantizationParameters]):
    if params is None:
        return None
    scale, zero_point = params.as_scalars()
    return {"scale": scale, "zero_point": zero_point,
            "qmin": int(params.qmin), "qmax": int(params.qmax),
            "bits": int(params.bits)}


def _params_from_json(payload) -> Optional[QuantizationParameters]:
    if payload is None:
        return None
    return QuantizationParameters(
        scale=np.asarray(float(payload["scale"]), dtype=np.float64),
        zero_point=np.asarray(float(payload["zero_point"]), dtype=np.float64),
        qmin=int(payload["qmin"]), qmax=int(payload["qmax"]),
        bits=int(payload["bits"]))


def artifact_paths(path: PathLike) -> Tuple[Path, Path]:
    """The ``(npz, json)`` file pair an artifact path refers to.

    ``path`` may carry the ``.npz`` or ``.json`` suffix (or neither); the
    sidecar always sits next to the array file with the other suffix.  Any
    other dotted name segment (``model.v2``) is kept as part of the base.
    """
    base = Path(path)
    if base.suffix in {".npz", ".json"}:
        base = base.with_suffix("")
    return base.parent / (base.name + ".npz"), base.parent / (base.name + ".json")


@dataclass
class QuantizedArtifact:
    """A self-contained, serializable quantized-model deployment artifact."""

    conv_type: str
    layers: List[LayerPlan]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a quantized artifact needs at least one layer")
        if self.conv_type not in WEIGHT_SLOTS:
            raise ValueError(f"unknown conv type {self.conv_type!r}; "
                             f"options: {sorted(WEIGHT_SLOTS)}")

    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_hops(self) -> int:
        """Propagation steps of one forward pass — the number of bipartite
        blocks a block-serving sampler must emit per batch (TAG layers
        consume ``hops`` blocks each)."""
        return sum(plan.hops for plan in self.layers)

    @property
    def layer_dims(self) -> List[Tuple[int, int]]:
        return [(plan.in_features, plan.out_features) for plan in self.layers]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].out_features

    @property
    def num_features(self) -> int:
        return self.layers[0].in_features

    def summary(self) -> str:
        bits = sorted({w.bits for plan in self.layers for w in plan.weights.values()})
        dims = " -> ".join([str(self.num_features),
                            *(str(out) for _, out in self.layer_dims)])
        return (f"QuantizedArtifact({self.conv_type}, layers={self.num_layers}, "
                f"dims={dims}, weight_bits={bits})")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(cls, model, metadata: Optional[Dict[str, object]] = None
                   ) -> "QuantizedArtifact":
        """Export a trained quantized classifier into a deployment artifact.

        Accepts a :class:`~repro.quant.qmodules.QuantNodeClassifier` (or any
        conv-stack of ``Quant*Conv`` layers) and, for convenience, a
        :class:`~repro.core.mixq.MixQNodeClassifier` whose ``fit()`` /
        ``finalize()`` already produced a ``quantized_model``.  The model
        should be trained (observers initialised) and in eval mode.
        """
        convs = getattr(model, "convs", None)
        if convs is None:
            quantized = getattr(model, "quantized_model", None)
            if quantized is None:
                raise TypeError(
                    "from_model expects a quantized conv-stack classifier or a "
                    "MixQNodeClassifier with a finalized quantized_model")
            return cls.from_model(quantized, metadata=metadata)

        # Deferred: repro.core imports repro.quant, which imports this module.
        from repro.core.relaxed_quantizer import RelaxedQuantizer

        plans: List[LayerPlan] = []
        for index, conv in enumerate(convs):
            if any(isinstance(module, RelaxedQuantizer) for module in conv.modules()):
                raise TypeError(
                    f"layer conv{index} ({type(conv).__name__}) holds relaxed "
                    f"quantizers: a search model is not deployable; build the "
                    f"quantized model from its component_bits() and train it first")
            if not isinstance(conv, QuantConv):
                handled = ", ".join(c.__name__ for c in QuantConv.__subclasses__())
                raise TypeError(f"unsupported layer {type(conv).__name__}; serving "
                                f"handles {handled}")
            plans.append(_export(conv))
        conv_types = {plan.conv_type for plan in plans}
        if len(conv_types) != 1:
            raise TypeError(f"mixed conv families {sorted(conv_types)} cannot share "
                            f"one artifact")

        merged: Dict[str, object] = {
            "num_layers": len(plans),
            "layer_dims": [[fan_in, fan_out]
                           for fan_in, fan_out in ((p.in_features, p.out_features)
                                                   for p in plans)],
        }
        component_bits = getattr(model, "component_bits", None)
        if callable(component_bits):
            merged["component_bits"] = {key: int(value)
                                        for key, value in component_bits().items()}
        average_bits = getattr(model, "average_bits", None)
        if callable(average_bits):
            merged["average_bits"] = float(average_bits())
        if metadata:
            merged.update(metadata)
        return cls(conv_type=plans[0].conv_type, layers=plans, metadata=merged)

    # ------------------------------------------------------------------ #
    def save(self, path: PathLike) -> Tuple[Path, Path]:
        """Write the artifact to ``<path>.npz`` plus a ``<path>.json`` sidecar."""
        npz_path, json_path = artifact_paths(path)
        arrays: Dict[str, np.ndarray] = {}
        layers_payload = []
        for index, plan in enumerate(self.layers):
            weights_payload = {}
            for name, weight in plan.weights.items():
                arrays[f"layer{index}.{name}.int"] = weight.integers.astype(np.float64)
                if weight.bias is not None:
                    arrays[f"layer{index}.{name}.bias"] = weight.bias.astype(np.float64)
                weights_payload[name] = {"scale": float(weight.scale),
                                         "bits": int(weight.bits),
                                         "has_bias": weight.bias is not None}
            layers_payload.append({
                "conv_type": plan.conv_type,
                "in_features": int(plan.in_features),
                "out_features": int(plan.out_features),
                "eps": float(plan.eps),
                "hops": int(plan.hops),
                "negative_slope": float(plan.negative_slope),
                "heads": int(plan.heads),
                "head_merge": str(plan.head_merge),
                "weights": weights_payload,
                "quantizers": {name: _params_to_json(params)
                               for name, params in plan.quantizers.items()},
            })
        payload = {"format": FORMAT_NAME, "format_version": FORMAT_VERSION,
                   "conv_type": self.conv_type, "metadata": self.metadata,
                   "layers": layers_payload}
        np.savez_compressed(npz_path, **arrays)
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return npz_path, json_path

    @classmethod
    def load(cls, path: PathLike) -> "QuantizedArtifact":
        """Read an artifact written by :meth:`save` (either file of the pair)."""
        npz_path, json_path = artifact_paths(path)
        if not json_path.exists():
            raise FileNotFoundError(f"artifact sidecar {json_path} not found")
        payload = json.loads(json_path.read_text())
        if payload.get("format") != FORMAT_NAME:
            raise ValueError(f"{json_path} is not a {FORMAT_NAME} file")
        if int(payload.get("format_version", -1)) > FORMAT_VERSION:
            raise ValueError(f"artifact format v{payload['format_version']} is newer "
                             f"than this reader (v{FORMAT_VERSION})")
        with np.load(npz_path) as arrays:
            plans: List[LayerPlan] = []
            for index, layer in enumerate(payload["layers"]):
                weights: Dict[str, WeightPlan] = {}
                for name, meta in layer["weights"].items():
                    bias = arrays[f"layer{index}.{name}.bias"] if meta["has_bias"] \
                        else None
                    weights[name] = WeightPlan(
                        integers=np.asarray(arrays[f"layer{index}.{name}.int"],
                                            dtype=np.float64),
                        scale=float(meta["scale"]), bits=int(meta["bits"]),
                        bias=None if bias is None else np.asarray(bias,
                                                                  dtype=np.float64))
                plans.append(LayerPlan(
                    conv_type=layer["conv_type"],
                    in_features=int(layer["in_features"]),
                    out_features=int(layer["out_features"]),
                    weights=weights,
                    quantizers={name: _params_from_json(params)
                                for name, params in layer["quantizers"].items()},
                    eps=float(layer.get("eps", 0.0)),
                    hops=int(layer.get("hops", 1)),
                    negative_slope=float(layer.get("negative_slope", 0.2)),
                    # v1/v2 payloads predate the head axis: single head,
                    # concat merge reproduces their execution exactly.
                    heads=int(layer.get("heads", 1)),
                    head_merge=str(layer.get("head_merge", "concat"))))
        return cls(conv_type=payload["conv_type"], layers=plans,
                   metadata=dict(payload.get("metadata", {})))
