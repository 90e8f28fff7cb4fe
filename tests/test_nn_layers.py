"""Tests for modules, optimizers, losses, and GNN layers."""

import numpy as np
import pytest

from repro.errors import NNError
from repro.nn import (
    MLP,
    Adam,
    Batch,
    DataLoader,
    GATConv,
    GCNConv,
    GraphData,
    JumpingKnowledge,
    Linear,
    NodeAttentionPool,
    SGD,
    Sequential,
    SumPool,
    Tensor,
    TransformerConv,
    binary_accuracy,
    cross_entropy,
    f1_score,
    mse_loss,
    rmse,
)


def tiny_graph(num_nodes=5, feat=8, edge_dim=4, seed=0, label=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(num_nodes, feat))
    # A ring plus one chord: connected, deterministic.
    src = np.arange(num_nodes)
    dst = (src + 1) % num_nodes
    edge_index = np.stack([np.concatenate([src, [0]]), np.concatenate([dst, [2]])])
    edge_attr = rng.normal(size=(edge_index.shape[1], edge_dim))
    y = {"latency": float(rng.normal()), "DSP": 0.5}
    return GraphData(x, edge_index, edge_attr, y=y, label=label, kernel=f"k{seed}")


def make_batch(n_graphs=3, **kw):
    return Batch.from_graphs([tiny_graph(seed=i, label=i % 2, **kw) for i in range(n_graphs)])


class TestModules:
    def test_linear_shapes(self):
        layer = Linear(8, 3)
        out = layer(Tensor(np.zeros((5, 8))))
        assert out.shape == (5, 3)

    def test_parameters_registered(self):
        mlp = MLP([8, 16, 4])
        params = list(mlp.parameters())
        assert len(params) == 4  # two Linear layers, weight+bias each

    def test_sequential_forward(self):
        net = Sequential(Linear(4, 4), Linear(4, 2))
        assert net(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_state_dict_roundtrip(self):
        mlp = MLP([4, 8, 2])
        state = mlp.state_dict()
        mlp2 = MLP([4, 8, 2], rng=np.random.default_rng(99))
        mlp2.load_state_dict(state)
        x = np.random.default_rng(0).normal(size=(3, 4))
        np.testing.assert_allclose(mlp(Tensor(x)).data, mlp2(Tensor(x)).data)

    def test_state_dict_shape_mismatch(self):
        mlp = MLP([4, 8, 2])
        state = mlp.state_dict()
        bad = {k: v[..., :1] for k, v in state.items()}
        with pytest.raises(NNError):
            mlp.load_state_dict(bad)

    def test_mlp_requires_two_dims(self):
        with pytest.raises(NNError):
            MLP([4])


class TestOptimizers:
    def _quadratic_descent(self, optimizer_cls, **kw):
        target = np.array([3.0, -2.0])
        w = Linear(1, 2, bias=False)
        opt = optimizer_cls(w.parameters(), **kw)
        x = Tensor(np.ones((1, 1)))
        for _ in range(400):
            opt.zero_grad()
            loss = mse_loss(w(x), target[None, :])
            loss.backward()
            opt.step()
        return np.abs(w(x).data[0] - target).max()

    def test_adam_converges(self):
        assert self._quadratic_descent(Adam, lr=0.05) < 1e-3

    def test_sgd_converges(self):
        assert self._quadratic_descent(SGD, lr=0.1, momentum=0.9) < 1e-3


class TestLosses:
    def test_mse_zero_at_target(self):
        pred = Tensor(np.array([[1.0, 2.0]]))
        assert mse_loss(pred, np.array([[1.0, 2.0]])).item() == 0.0

    def test_rmse_matches_manual(self):
        assert rmse(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(np.sqrt(2.0))

    def test_cross_entropy_prefers_correct_class(self):
        good = cross_entropy(Tensor(np.array([[5.0, -5.0]])), np.array([0])).item()
        bad = cross_entropy(Tensor(np.array([[5.0, -5.0]])), np.array([1])).item()
        assert good < bad

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 2)), requires_grad=True)
        cross_entropy(logits, np.array([1])).backward()
        assert logits.grad[0, 1] < 0 < logits.grad[0, 0]

    def test_binary_accuracy(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert binary_accuracy(logits, np.array([1, 0])) == 1.0

    def test_f1_all_correct(self):
        logits = np.array([[0.1, 0.9], [0.9, 0.1], [0.2, 0.8]])
        assert f1_score(logits, np.array([1, 0, 1])) == 1.0

    def test_f1_no_positives_predicted(self):
        logits = np.array([[0.9, 0.1]])
        assert f1_score(logits, np.array([1])) == 0.0


class TestBatching:
    def test_batch_offsets(self):
        batch = make_batch(3, num_nodes=5)
        assert batch.num_nodes == 15
        assert batch.num_graphs == 3
        # 6 real edges + 5 self loops per graph
        assert batch.num_edges == 3 * (6 + 5)

    def test_edges_sorted_by_dst(self):
        batch = make_batch(3)
        dst = batch.edge_segments.ids
        assert np.all(np.diff(dst) >= 0)

    def test_node_segments_partition_graphs(self):
        batch = make_batch(2, num_nodes=4)
        np.testing.assert_array_equal(batch.node_segments.counts, [4, 4])

    def test_targets_and_labels(self):
        batch = make_batch(3)
        assert batch.targets(["latency", "DSP"]).shape == (3, 2)
        np.testing.assert_array_equal(batch.labels(), [0, 1, 0])

    def test_dataloader_covers_dataset(self):
        data = [tiny_graph(seed=i) for i in range(10)]
        loader = DataLoader(data, batch_size=4, shuffle=True, seed=1)
        seen = sum(batch.num_graphs for batch in loader)
        assert seen == 10
        assert len(loader) == 3


def layer_gradcheck(layer, batch, feat=8, tol=1e-5, seed=0):
    """Numerical gradient check of d(loss)/d(x) through a conv layer."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(batch.num_nodes, feat))
    weights = rng.normal(size=(batch.num_nodes, layer_out_dim(layer)))

    def loss_value(arr):
        out = layer(Tensor(arr), batch)
        return (out * Tensor(weights)).sum().item()

    x = Tensor(x0.copy(), requires_grad=True)
    out = layer(x, batch)
    (out * Tensor(weights)).sum().backward()
    analytic = x.grad

    eps = 1e-6
    numeric = np.zeros_like(x0)
    flat = x0.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_value(x0)
        flat[i] = orig - eps
        down = loss_value(x0)
        flat[i] = orig
        nflat[i] = (up - down) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


def layer_out_dim(layer):
    if isinstance(layer, GCNConv):
        return layer.lin.out_features
    return layer.heads * layer.head_dim


class TestConvLayers:
    def test_gcn_shapes(self):
        batch = make_batch(2)
        out = GCNConv(8, 16)(Tensor(batch.x), batch)
        assert out.shape == (batch.num_nodes, 16)

    def test_gat_shapes(self):
        batch = make_batch(2)
        out = GATConv(8, 16, heads=4)(Tensor(batch.x), batch)
        assert out.shape == (batch.num_nodes, 16)

    def test_transformer_shapes(self):
        batch = make_batch(2)
        out = TransformerConv(8, 16, heads=4, edge_dim=4)(Tensor(batch.x), batch)
        assert out.shape == (batch.num_nodes, 16)

    def test_gcn_gradcheck(self):
        batch = make_batch(1, num_nodes=4, feat=8)
        layer_gradcheck(GCNConv(8, 6), batch)

    def test_gat_gradcheck(self):
        batch = make_batch(1, num_nodes=4, feat=8)
        layer_gradcheck(GATConv(8, 6, heads=2), batch)

    def test_transformer_gradcheck(self):
        batch = make_batch(1, num_nodes=4, feat=8)
        layer_gradcheck(TransformerConv(8, 6, heads=2, edge_dim=4), batch)

    def test_transformer_edge_features_matter(self):
        batch = make_batch(1)
        layer = TransformerConv(8, 16, heads=4, edge_dim=4)
        out1 = layer(Tensor(batch.x), batch).data
        batch.edge_attr = batch.edge_attr + 1.0
        out2 = layer(Tensor(batch.x), batch).data
        assert np.abs(out1 - out2).max() > 1e-9

    def test_heads_must_divide(self):
        with pytest.raises(NNError):
            GATConv(8, 10, heads=4)

    def test_isolated_graphs_do_not_mix(self):
        """Message passing must not leak across graphs in a batch."""
        g1 = tiny_graph(seed=1)
        g2 = tiny_graph(seed=2)
        layer = TransformerConv(8, 16, heads=4, edge_dim=4)
        single = layer(Tensor(g1.x), Batch.from_graphs([g1])).data
        batched = layer(
            Tensor(Batch.from_graphs([g1, g2]).x), Batch.from_graphs([g1, g2])
        ).data
        np.testing.assert_allclose(single, batched[: g1.num_nodes], atol=1e-10)


class TestPoolingAndJKN:
    def test_sum_pool(self):
        batch = make_batch(3)
        out = SumPool()(Tensor(batch.x), batch)
        assert out.shape == (3, 8)
        np.testing.assert_allclose(out.data[0], batch.graphs[0].x.sum(axis=0))

    def test_attention_pool_shapes(self):
        batch = make_batch(3)
        pool = NodeAttentionPool(8)
        out = pool(Tensor(batch.x), batch)
        assert out.shape == (3, 8)

    def test_attention_scores_normalised(self):
        batch = make_batch(2)
        pool = NodeAttentionPool(8)
        scores = pool.attention_scores(Tensor(batch.x), batch)
        first = scores[: batch.graphs[0].num_nodes].sum()
        assert first == pytest.approx(1.0)

    def test_jkn_max(self):
        a = Tensor(np.array([[1.0, 4.0]]))
        b = Tensor(np.array([[3.0, 2.0]]))
        out = JumpingKnowledge("max")([a, b])
        np.testing.assert_allclose(out.data, [[3.0, 4.0]])

    def test_jkn_last(self):
        a, b = Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2)))
        np.testing.assert_allclose(JumpingKnowledge("last")([a, b]).data, b.data)

    def test_jkn_cat(self):
        a, b = Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2)))
        assert JumpingKnowledge("cat")([a, b]).shape == (1, 4)

    def test_jkn_unknown_mode(self):
        with pytest.raises(NNError):
            JumpingKnowledge("mean")
