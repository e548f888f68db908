"""Tests for the per-family stage table (repro.gnn.costs)."""

import numpy as np
import pytest

from repro.gnn import GATConv, GCNConv, GINConv, SAGEConv, TAGConv
from repro.gnn.attention import attention_edges
from repro.gnn.costs import FP32, aggregation_edges, stage_table
from repro.gnn.gat import TransformerConv
from repro.gnn.message_passing import MessagePassing
from repro.graphs.sampling import NeighborSampler
from repro.nn.linear import Linear, dense_operations


def _stage(stages, name):
    return next(stage for stage in stages if stage[0] == name)


class TestAggregationEdges:
    """Rule 1: edges are the non-zeros of the operator each family uses."""

    def test_gcn_aggregate_scales_with_operator_nnz(self, tiny_graph):
        conv = GCNConv(5, 10)
        nnz = tiny_graph.normalized_adjacency().nnz
        assert _stage(conv.stages(tiny_graph), "aggregate")[1] == 2 * nnz * 10

    @pytest.mark.parametrize("conv", [SAGEConv(5, 6), GINConv(5, 6)])
    def test_raw_adjacency_families_skip_self_loops(self, tiny_graph, conv):
        nnz = tiny_graph.adjacency(add_self_loops=False).nnz
        assert _stage(conv.stages(tiny_graph), "aggregate")[1] == 2 * nnz * 5

    @pytest.mark.parametrize("conv", [GATConv(5, 6, heads=2),
                                      TransformerConv(5, 6, heads=2)])
    def test_attention_families_count_the_edge_list(self, tiny_graph, conv):
        edges = attention_edges(tiny_graph).num_edges
        assert aggregation_edges(conv.family, tiny_graph) == edges
        assert _stage(conv.stages(tiny_graph), "aggregate")[1] == 2 * edges * 6

    def test_blocks_count_their_own_operator(self, sbm_graph):
        sampler = NeighborSampler(sbm_graph, 3, batch_size=16, num_layers=1,
                                  seed_nodes=np.arange(16), shuffle=False)
        block = sampler.sample(np.arange(16, dtype=np.int64)).blocks[0]
        assert aggregation_edges("gcn", block) == block.normalized_adjacency().nnz
        assert aggregation_edges("sage", block) == block.adjacency().nnz
        assert aggregation_edges("gat", block) == block.adjacency().nnz + 16


class TestStageRows:
    def test_dense_transforms_cost_linear_operation_count(self, tiny_graph):
        """Rule 2: bias adds are part of a dense transform."""
        conv = TAGConv(5, 6, hops=2)
        stages = conv.stages(tiny_graph)
        rows = tiny_graph.num_nodes
        assert _stage(stages, "transform_hop0")[1] \
            == conv.linears[0].operation_count(rows)
        assert _stage(stages, "transform_hop1")[1] \
            == conv.linears[1].operation_count(rows)
        assert dense_operations(rows, 5, 6, True) == Linear(5, 6).operation_count(rows)

    def test_gat_bias_is_outside_the_transform(self):
        stages = stage_table("gat", {"weight": (5, 6, True)}, 4, 4, [10])
        assert _stage(stages, "transform")[1] == dense_operations(4, 5, 6, False)

    def test_score_stages_run_in_fp32(self):
        for family, weights in (("gat", {"weight": (5, 6, False)}),
                                ("transformer", {name: (5, 6, False)
                                                 for name in ("query", "key",
                                                              "value")})):
            assert _stage(stage_table(family, weights, 4, 4, [10]),
                          "score")[2] == (FP32,)

    def test_gin_mlp_stages_are_named_by_weight_slot(self, tiny_graph):
        """Rule 4: GIN's MLP records are ``mlp0`` / ``mlp1``."""
        names = [name for name, _, _ in GINConv(5, 6).stages(tiny_graph)]
        assert names == ["aggregate", "combine", "mlp0", "mlp1"]

    def test_tag_hops_chain_their_inputs(self, tiny_graph):
        stages = TAGConv(5, 6, hops=3).stages(tiny_graph)
        assert _stage(stages, "aggregate_hop1")[2] == ("adjacency", "input")
        assert _stage(stages, "aggregate_hop3")[2] == ("adjacency", "hop_out")

    def test_operation_count_sums_the_table(self, tiny_graph):
        conv = SAGEConv(5, 6)
        assert conv.operation_count(tiny_graph) \
            == sum(ops for _, ops, _ in conv.stages(tiny_graph))

    def test_unknown_family_is_rejected(self, tiny_graph):
        with pytest.raises(KeyError):
            stage_table("cheb", {}, 1, 1, [1])
        with pytest.raises(KeyError):
            MessagePassing().operation_count(tiny_graph)
