"""Tests for the quantized deployment artifact (export + save/load)."""

import json

import numpy as np
import pytest

from repro.core.build import build_relaxed_node_classifier
from repro.core.mixq import MixQNodeClassifier
from repro.gnn.models import build_node_model
from repro.quant.qmodules import gcn_component_names, uniform_assignment
from repro.serving import (
    QUANTIZER_SLOTS,
    QuantizedArtifact,
    WEIGHT_SLOTS,
    artifact_paths,
)

CONV_TYPES = ("gcn", "sage", "gin")


class TestExport:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_export_structure(self, served_models, conv):
        artifact = QuantizedArtifact.from_model(served_models[conv])
        assert artifact.conv_type == conv
        assert artifact.num_layers == 2
        assert artifact.layer_dims[0][1] == 16
        for plan in artifact.layers:
            assert set(plan.weights) == set(WEIGHT_SLOTS[conv])
            assert set(plan.quantizers) == set(QUANTIZER_SLOTS[conv])
            for weight in plan.weights.values():
                assert weight.bits == 8
                # integer weights live on the signed int8 grid
                assert np.array_equal(weight.integers, np.rint(weight.integers))
                assert weight.integers.min() >= -128 and weight.integers.max() <= 127

    def test_export_metadata(self, served_models):
        artifact = QuantizedArtifact.from_model(served_models["gcn"],
                                                metadata={"dataset": "cora"})
        assert artifact.metadata["dataset"] == "cora"
        assert artifact.metadata["average_bits"] == pytest.approx(8.0)
        assert artifact.metadata["num_layers"] == 2
        assert any(key.startswith("conv0.") for key in
                   artifact.metadata["component_bits"])

    def test_input_quantizer_only_on_first_layer(self, served_models):
        artifact = QuantizedArtifact.from_model(served_models["gcn"])
        assert artifact.layers[0].params("input") is not None
        assert artifact.layers[1].params("input") is None

    def test_rejects_float_model(self, small_cora, rng):
        model = build_node_model("gcn", small_cora.num_features, 8,
                                 small_cora.num_classes, rng=rng)
        with pytest.raises(TypeError) as excinfo:
            QuantizedArtifact.from_model(model)
        # the message lists every exportable family
        for name in ("QuantGCNConv", "QuantSAGEConv", "QuantGINConv", "QuantGATConv",
                     "QuantTransformerConv", "QuantTAGConv"):
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("conv", ("gcn", "gin", "sage", "gat", "tag", "transformer"))
    def test_rejects_relaxed_search_model(self, small_cora, conv):
        # A search model is built from Quant* layers, so the layer-type
        # dispatch alone would export it as a float artifact.
        model = build_relaxed_node_classifier(
            conv, [(small_cora.num_features, 8), (8, small_cora.num_classes)],
            (2, 4, 8), hops=2, rng=np.random.default_rng(0))
        model(small_cora)
        model.eval()
        with pytest.raises(TypeError, match=r"conv0 \(Quant\w+Conv\) holds relaxed"):
            QuantizedArtifact.from_model(model)

    def test_accepts_finalized_mixq(self, small_cora):
        mixq = MixQNodeClassifier("gcn", small_cora.num_features, 8,
                                  small_cora.num_classes)
        with pytest.raises(TypeError):
            QuantizedArtifact.from_model(mixq)  # nothing finalized yet
        mixq.finalize(uniform_assignment(gcn_component_names(2), 4))
        artifact = QuantizedArtifact.from_model(mixq)
        assert artifact.conv_type == "gcn"
        assert artifact.layers[0].weights["weight"].bits == 4

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            QuantizedArtifact(conv_type="gcn", layers=[])


class TestSaveLoad:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_roundtrip_is_bit_exact(self, served_models, conv, tmp_path):
        artifact = QuantizedArtifact.from_model(served_models[conv],
                                                metadata={"dataset": "cora"})
        artifact.save(tmp_path / "artifact.npz")
        loaded = QuantizedArtifact.load(tmp_path / "artifact.npz")

        assert loaded.conv_type == artifact.conv_type
        assert loaded.metadata == artifact.metadata
        for original, restored in zip(artifact.layers, loaded.layers):
            assert restored.in_features == original.in_features
            assert restored.out_features == original.out_features
            assert restored.eps == original.eps
            for name, weight in original.weights.items():
                other = restored.weights[name]
                assert np.array_equal(other.integers, weight.integers)
                assert other.scale == weight.scale
                assert other.bits == weight.bits
                if weight.bias is None:
                    assert other.bias is None
                else:
                    assert np.array_equal(other.bias, weight.bias)
            for name, params in original.quantizers.items():
                restored_params = restored.quantizers[name]
                if params is None:
                    assert restored_params is None
                    continue
                assert restored_params.as_scalars() == params.as_scalars()
                assert restored_params.qmin == params.qmin
                assert restored_params.qmax == params.qmax
                assert restored_params.bits == params.bits

    def test_paths_and_sidecar(self, served_models, tmp_path):
        artifact = QuantizedArtifact.from_model(served_models["gcn"])
        npz_path, json_path = artifact.save(tmp_path / "model")
        assert npz_path == tmp_path / "model.npz"
        assert json_path == tmp_path / "model.json"
        assert npz_path.exists() and json_path.exists()
        # either file of the pair can be handed to load()
        assert QuantizedArtifact.load(json_path).num_layers == artifact.num_layers
        assert artifact_paths("x.json") == artifact_paths("x.npz")

    def test_paths_keep_dotted_names(self, tmp_path):
        # only the .npz/.json suffixes are stripped; "model.v2" != "model.v3"
        npz_path, json_path = artifact_paths(tmp_path / "model.v2")
        assert npz_path.name == "model.v2.npz"
        assert json_path.name == "model.v2.json"
        assert artifact_paths(tmp_path / "model.v2") \
            != artifact_paths(tmp_path / "model.v3")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            QuantizedArtifact.load(tmp_path / "nope.npz")

    def test_load_rejects_foreign_json(self, tmp_path):
        (tmp_path / "other.json").write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError):
            QuantizedArtifact.load(tmp_path / "other.json")

    def test_load_rejects_newer_format(self, served_models, tmp_path):
        artifact = QuantizedArtifact.from_model(served_models["gcn"])
        _, json_path = artifact.save(tmp_path / "artifact")
        payload = json.loads(json_path.read_text())
        payload["format_version"] = 999  # reprolint: disable=RL04
        json_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            QuantizedArtifact.load(tmp_path / "artifact")


def _downgrade_payload(json_path, version: int) -> None:
    """Rewrite a saved sidecar as a faithful v1 / v2 payload.

    v1 predates the attention score plans: no per-layer ``hops`` /
    ``negative_slope``.  v2 predates the head axis: no ``heads`` /
    ``head_merge``.  Stripping exactly those keys reproduces what the old
    writers emitted, so these are true version-negotiation regressions.
    """
    payload = json.loads(json_path.read_text())
    payload["format_version"] = version  # reprolint: disable=RL04
    dropped = {"heads", "head_merge"} if version == 2 else \
        {"heads", "head_merge", "hops", "negative_slope"}
    for layer in payload["layers"]:
        for key in dropped:
            layer.pop(key, None)
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True))


class TestVersionNegotiation:
    """v1 / v2 payloads must load and predict identically under the v3 reader."""

    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_v1_payload_loads_and_predicts_identically(self, served_models,
                                                       small_cora, tmp_path,
                                                       conv):
        from repro.serving import FullGraphSession

        artifact = QuantizedArtifact.from_model(served_models[conv])
        reference = FullGraphSession(artifact, small_cora).predict()
        _, json_path = artifact.save(tmp_path / "artifact")
        _downgrade_payload(json_path, version=1)

        loaded = QuantizedArtifact.load(tmp_path / "artifact")
        assert [plan.hops for plan in loaded.layers] \
            == [1] * artifact.num_layers
        assert [plan.heads for plan in loaded.layers] \
            == [1] * artifact.num_layers
        assert [plan.head_merge for plan in loaded.layers] \
            == ["concat"] * artifact.num_layers
        np.testing.assert_array_equal(
            FullGraphSession(loaded, small_cora).predict(), reference)

    @pytest.mark.parametrize("conv", ("gcn", "gat", "tag", "transformer"))
    def test_v2_payload_loads_and_predicts_identically(self, served_models,
                                                       attention_models,
                                                       small_cora, tmp_path,
                                                       conv):
        from repro.serving import FullGraphSession

        models = {**served_models, **attention_models}
        artifact = QuantizedArtifact.from_model(models[conv])
        reference = FullGraphSession(artifact, small_cora).predict()
        hops_before = [plan.hops for plan in artifact.layers]
        _, json_path = artifact.save(tmp_path / "artifact")
        _downgrade_payload(json_path, version=2)

        loaded = QuantizedArtifact.load(tmp_path / "artifact")
        # v2 carried hop plans; only the head axis defaults to single-head
        assert [plan.hops for plan in loaded.layers] == hops_before
        assert [plan.heads for plan in loaded.layers] \
            == [1] * artifact.num_layers
        np.testing.assert_array_equal(
            FullGraphSession(loaded, small_cora).predict(), reference)

    def test_v2_block_serving_unchanged(self, attention_models, small_cora,
                                        tmp_path):
        """A pre-head-axis artifact must serve blocks exactly as before."""
        from repro.serving import BlockSession

        artifact = QuantizedArtifact.from_model(attention_models["gat"])
        nodes = np.arange(24, dtype=np.int64)
        reference = BlockSession(artifact, small_cora, fanouts=4,
                                 batch_size=16, seed=3).predict(nodes)
        _, json_path = artifact.save(tmp_path / "artifact")
        _downgrade_payload(json_path, version=2)
        loaded = QuantizedArtifact.load(tmp_path / "artifact")
        served = BlockSession(loaded, small_cora, fanouts=4,
                              batch_size=16, seed=3).predict(nodes)
        np.testing.assert_array_equal(served, reference)
