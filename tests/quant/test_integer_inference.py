"""Tests for the end-to-end integer inference engine (Figure 7, stage 5)."""
# reprolint: disable-file=RL04  (this module exists to pin the deprecated alias)

import numpy as np
import pytest

from repro.quant.inference import IntegerGCNInference
from repro.quant.qmodules import (
    QuantNodeClassifier,
    QuantSAGEConv,
    gcn_component_names,
    uniform_assignment,
)
from repro.training.trainer import evaluate_node_classifier, train_node_classifier


@pytest.fixture(scope="module")
def trained_int8_model(small_cora):
    assignment = uniform_assignment(gcn_component_names(2), 8)
    model = QuantNodeClassifier.from_assignment(
        [(small_cora.num_features, 16), (16, small_cora.num_classes)], "gcn",
        assignment, dropout=0.0, rng=np.random.default_rng(0))
    train_node_classifier(model, small_cora, epochs=30, lr=0.02)
    model.eval()
    return model


class TestIntegerInference:
    def test_matches_fake_quantized_model(self, trained_int8_model, small_cora):
        """Integer inference reproduces the QAT model's logits (Theorem 1 parity)."""
        engine = IntegerGCNInference.from_quantized_model(trained_int8_model)
        integer_logits = engine.predict(small_cora)
        fake_quant_logits = trained_int8_model(small_cora).data
        np.testing.assert_allclose(integer_logits, fake_quant_logits,
                                   rtol=1e-3, atol=1e-3)

    def test_predictions_match_model_accuracy(self, trained_int8_model, small_cora):
        engine = IntegerGCNInference.from_quantized_model(trained_int8_model)
        predictions = engine.predict_classes(small_cora)
        engine_accuracy = (predictions[small_cora.test_mask]
                           == small_cora.y[small_cora.test_mask]).mean()
        model_accuracy = evaluate_node_classifier(trained_int8_model, small_cora,
                                                  small_cora.test_mask)
        assert engine_accuracy == pytest.approx(model_accuracy, abs=1e-6)

    def test_parity_for_mixed_assignment(self, small_cora):
        """Parity also holds when components use different bit-widths."""
        assignment = uniform_assignment(gcn_component_names(2), 4)
        assignment["conv0.weight"] = 8
        assignment["conv1.adjacency"] = 8
        model = QuantNodeClassifier.from_assignment(
            [(small_cora.num_features, 8), (8, small_cora.num_classes)], "gcn",
            assignment, dropout=0.0, rng=np.random.default_rng(1))
        train_node_classifier(model, small_cora, epochs=15, lr=0.02)
        model.eval()
        engine = IntegerGCNInference.from_quantized_model(model)
        np.testing.assert_allclose(engine.predict(small_cora), model(small_cora).data,
                                   rtol=2e-3, atol=2e-3)

    def test_bit_operations_match_model_counter(self, trained_int8_model, small_cora):
        engine = IntegerGCNInference.from_quantized_model(trained_int8_model)
        engine_counter = engine.bit_operations(small_cora)
        model_counter = trained_int8_model.bit_operations(small_cora)
        assert engine_counter.total_bit_operations > 0
        # Both read one stage table: the same records at the same widths.
        assert engine_counter.per_function() == model_counter.per_function()

    def test_rejects_non_gcn_layers(self, small_cora):
        model = QuantNodeClassifier(
            [QuantSAGEConv(small_cora.num_features, small_cora.num_classes, {})])
        with pytest.raises(TypeError):
            IntegerGCNInference.from_quantized_model(model)

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            IntegerGCNInference([])
