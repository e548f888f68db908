"""One BitOPs definition: float ops == QAT ops and QAT BitOPs == served BitOPs.

Every family runs a mixed 4/8-bit assignment on the SBM fixture, so a
stage whose width or operation count differed between the float layers,
the QAT layers and the integer executor would show up here record by
record.
"""

import numpy as np
import pytest

from repro.gnn import TAGConv
from repro.gnn.models import NodeClassifier, build_node_model
from repro.quant.qmodules import QuantNodeClassifier
from repro.serving import FullGraphSession, QuantizedArtifact
from repro.training.trainer import train_node_classifier

#: ``(family, heads)``; TAG layers run two hops.
CASES = [("gcn", 1), ("sage", 1), ("gin", 1), ("gat", 1), ("gat", 2),
         ("transformer", 1), ("transformer", 2), ("tag", 1)]
CASE_IDS = ["gcn", "sage", "gin", "gat-h1", "gat-h2", "transformer-h1",
            "transformer-h2", "tag-hops2"]
HIDDEN = 8


def _float_model(family: str, heads: int, graph) -> NodeClassifier:
    rng = np.random.default_rng(0)
    if family == "tag":
        return NodeClassifier([TAGConv(graph.num_features, HIDDEN, hops=2, rng=rng),
                               TAGConv(HIDDEN, graph.num_classes, hops=2, rng=rng)],
                              dropout=0.0)
    return build_node_model(family, graph.num_features, HIDDEN, graph.num_classes,
                            heads=heads, dropout=0.0, rng=rng)


@pytest.fixture(scope="module")
def models(sbm_graph):
    cache = {}

    def build(family: str, heads: int):
        if (family, heads) not in cache:
            float_model = _float_model(family, heads, sbm_graph)
            names = QuantNodeClassifier.from_float(float_model, {}).component_bits()
            assignment = {name: 4 if index % 2 else 8
                          for index, name in enumerate(names)}
            qat = QuantNodeClassifier.from_float(float_model, assignment, dropout=0.0,
                                                 rng=np.random.default_rng(1))
            train_node_classifier(qat, sbm_graph, epochs=2, lr=0.02)
            qat.eval()
            cache[family, heads] = float_model, qat
        return cache[family, heads]

    return build


@pytest.mark.parametrize("family,heads", CASES, ids=CASE_IDS)
class TestBitOpsAgreement:
    def test_float_ops_equal_qat_ops(self, models, sbm_graph, family, heads):
        float_model, qat = models(family, heads)
        assert float_model.operation_count(sbm_graph) \
            == qat.bit_operations(sbm_graph).total_operations

    def test_qat_records_equal_served_records(self, models, sbm_graph, family,
                                              heads):
        _, qat = models(family, heads)
        expected = qat.bit_operations(sbm_graph).per_function()
        session = FullGraphSession(QuantizedArtifact.from_model(qat), sbm_graph)
        assert session.run().bit_operations.per_function() == expected
        assert session.bit_operations().per_function() == expected
