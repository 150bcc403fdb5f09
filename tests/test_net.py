import numpy as np
import pytest

from memqnn.net import (MLP, BatchNorm, DenseLayer, init_hidden_uniform,
                        softmax_cross_entropy)
from memqnn.quantgrid import uniform_grid

from conftest import uniform_mlp


@pytest.fixture
def grid17():
    return uniform_grid(17, -1.5, 1.5)


def toy_net(grid, dims=(16, 16, 4), seed=0, dtype=np.float64):
    return uniform_mlp(dims, grid, np.random.default_rng(seed), dtype=dtype)


class TestLoss:
    def test_uniform_scores(self):
        logits = np.zeros((6, 10))
        loss, _ = softmax_cross_entropy(logits, np.arange(6) % 10)
        assert loss == pytest.approx(np.log(10), rel=1e-12)

    def test_vanishes_with_margin(self):
        labels = np.array([3])
        losses = []
        for margin in (5.0, 20.0, 60.0):
            logits = np.zeros((1, 10))
            logits[0, 3] = margin
            losses.append(softmax_cross_entropy(logits, labels)[0])
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-20

    def test_mean_reduction(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 10))
        labels = np.array([4])
        single, _ = softmax_cross_entropy(logits, labels)
        double, _ = softmax_cross_entropy(np.vstack([logits, logits]), np.array([4, 4]))
        assert double == pytest.approx(single, rel=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 10))
        _, d = softmax_cross_entropy(logits, rng.integers(0, 10, 5))
        assert np.allclose(d.sum(axis=1), 0, atol=1e-12)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(32)
        x = rng.normal(3.0, 2.5, size=(512, 32))
        y, cache = bn.forward(x, train=True)
        assert cache is not None
        assert np.all(np.abs(y.mean(axis=0)) < 1e-5)
        assert np.all(np.abs(y.var(axis=0) - 1) < 1e-5)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm(8)
        for _ in range(200):
            bn.forward(rng.normal(2.0, 3.0, size=(256, 8)), train=True)
        y, cache = bn.forward(rng.normal(2.0, 3.0, size=(1024, 8)), train=False)
        assert cache is None
        assert np.all(np.abs(y.mean(axis=0)) < 0.2)

    def test_gamma_beta_applied(self):
        bn = BatchNorm(4)
        bn.gamma = np.full(4, 2.0)
        bn.beta = np.full(4, -1.0)
        x = np.random.default_rng(2).normal(size=(64, 4))
        y, _ = bn.forward(x, train=True)
        xhat = (x - x.mean(0)) / np.sqrt(x.var(0) + bn.eps)
        assert np.allclose(y, 2.0 * xhat - 1.0, atol=1e-12)


class TestForward:
    def test_zero_weights_zero_preactivations(self, grid17):
        mlp = toy_net(grid17, dims=(8, 5))
        mlp.layers[0].set_hidden(np.zeros((8, 5)))
        x = np.random.default_rng(0).normal(size=(3, 8))
        assert np.array_equal(mlp.forward(x), np.zeros((3, 5)))

    def test_full_architecture_accepts_mnist_shape(self, grid17):
        mlp = uniform_mlp((784, 512, 512, 10), grid17, np.random.default_rng(0), dtype=np.float32)
        x = np.random.default_rng(1).random((4, 784), dtype=np.float32)
        out = mlp.forward(x, train=True, tape=None)
        assert out.shape == (4, 10)

    def test_shape_mismatch_raises(self, grid17):
        mlp = toy_net(grid17)
        with pytest.raises(ValueError):
            mlp.forward(np.zeros((2, 17)))

    def test_eval_deterministic(self, grid17):
        mlp = toy_net(grid17)
        x = np.random.default_rng(3).normal(size=(6, 16))
        a = mlp.forward(x)
        b = mlp.forward(x)
        assert np.array_equal(a, b)

    def test_quantized_weights_live_on_grid(self, grid17):
        mlp = toy_net(grid17)
        for layer in mlp.layers:
            assert np.all(np.isin(layer.w_quant, grid17.levels.astype(layer.w_quant.dtype)))

    def test_straight_through_piecewise_constant(self, grid17):
        # nudging hidden weights inside their interval changes nothing downstream
        mlp = toy_net(grid17)
        x = np.random.default_rng(4).normal(size=(6, 16))
        y = np.random.default_rng(5).integers(0, 4, 6)
        loss_a, grads_a, logits_a = mlp.loss_grads(x, y)
        for layer in mlp.layers:
            layer.set_hidden(layer.w_hidden + 1e-4)  # far below half-spacing
        loss_b, grads_b, logits_b = mlp.loss_grads(x, y)
        assert np.array_equal(logits_a, logits_b)
        assert loss_a == loss_b
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name])


class TestBackward:
    def test_requires_tape(self, grid17):
        mlp = toy_net(grid17)
        with pytest.raises(RuntimeError):
            mlp.backward(None, np.array([0]))

    def test_gradient_shapes(self, grid17):
        mlp = toy_net(grid17)
        x = np.random.default_rng(0).normal(size=(6, 16))
        y = np.random.default_rng(1).integers(0, 4, 6)
        _, grads, _ = mlp.loss_grads(x, y)
        want = {}
        for i, layer in enumerate(mlp.layers):
            want[f"w{i}"] = layer.w_hidden.shape
            if layer.bn is not None:
                want[f"bn{i}.gamma"] = want[f"bn{i}.beta"] = layer.bn.gamma.shape
        assert {name: g.shape for name, g in grads.items()} == want

    @pytest.mark.parametrize("dims", [(16, 4), (16, 8, 4), (16, 8, 8, 4)])
    def test_no_input_gradient_product(self, grid17, monkeypatch, dims):
        # the input layer's error product would be thrown away (and draw read noise)
        calls = []
        matmul_backward = DenseLayer.matmul_backward
        monkeypatch.setattr(DenseLayer, "matmul_backward",
                            lambda layer, delta: calls.append(layer) or matmul_backward(layer, delta))
        mlp = toy_net(grid17, dims=dims)
        rng = np.random.default_rng(0)
        mlp.loss_grads(rng.normal(size=(6, 16)), rng.integers(0, 4, 6))
        assert calls == mlp.layers[:0:-1]  # one call per layer, last first, none for layer 0

    def test_separated_batch_has_vanishing_gradients(self, grid17):
        mlp = toy_net(grid17, dims=(4, 4))
        mlp.layers[0].set_hidden(np.eye(4) * 1.5)
        x = 40.0 * np.eye(4)[:2]  # margin ~60 in the logits
        y = np.array([0, 1])
        _, grads, _ = mlp.loss_grads(x, y)
        assert np.all(np.abs(grads["w0"]) < 1e-8)

    def test_matches_central_finite_differences(self, grid17):
        # float64 oracle on a 16-16-4 toy net, h = 1e-4, entries sampled per matrix
        mlp = toy_net(grid17, seed=11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 16))
        y = rng.integers(0, 4, 8)
        _, grads, _ = mlp.loss_grads(x, y)

        def loss_with(layer, i, j, value):
            old = layer.w_quant[i, j]
            layer.w_quant[i, j] = value
            loss, _ = softmax_cross_entropy(mlp.forward(x, train=True), y)
            layer.w_quant[i, j] = old
            return loss

        h = 1e-4
        checked = 0
        for k, layer in enumerate(mlp.layers):
            g = grads[f"w{k}"]
            fi, fo = layer.w_quant.shape
            for i, j in zip(rng.integers(0, fi, 25), rng.integers(0, fo, 25)):
                base = layer.w_quant[i, j]
                fd = (loss_with(layer, i, j, base + h)
                      - loss_with(layer, i, j, base - h)) / (2 * h)
                an = g[i, j]
                scale = max(abs(fd), abs(an))
                if scale < 1e-6:
                    continue  # both effectively zero; relative error meaningless
                assert abs(fd - an) / scale < 1e-4
                checked += 1
        assert checked > 40

    def test_bn_gradients_match_finite_differences(self, grid17):
        mlp = toy_net(grid17, seed=21)
        rng = np.random.default_rng(22)
        x = rng.normal(size=(8, 16))
        y = rng.integers(0, 4, 8)
        _, grads, _ = mlp.loss_grads(x, y)
        bn = mlp.layers[0].bn
        h = 1e-5
        for k, (param, an) in enumerate(((bn.gamma, grads["bn0.gamma"]),
                                         (bn.beta, grads["bn0.beta"]))):
            for j in (0, 5, 11):
                old = param[j]
                param[j] = old + h
                lp, _ = softmax_cross_entropy(mlp.forward(x, train=True), y)
                param[j] = old - h
                lm, _ = softmax_cross_entropy(mlp.forward(x, train=True), y)
                param[j] = old
                fd = (lp - lm) / (2 * h)
                assert fd == pytest.approx(an[j], rel=1e-4, abs=1e-8)


class TestInitAndState:
    def test_init_spans_central_intervals(self, grid17):
        rng = np.random.default_rng(0)
        w = init_hidden_uniform((2000, 10), grid17, rng, span=2.0)
        assert np.all(np.abs(w) <= 2 * 0.1875)
        # a solid fraction should project off zero
        _, ws = grid17.project(w)
        assert (ws != 0).mean() > 0.4

    def test_bn_state_copied_in_net_dtype(self, grid17):
        mlp = toy_net(grid17, dtype=np.float32)
        state = [tuple(np.full(16, v) for v in (2.0, -1.0, 0.5, 3.0))]  # float64
        mlp.set_bn_state(state)
        state[0][0][:] = 7.0  # the net holds copies
        got = mlp.bn_state()
        assert [a.dtype for a in got[0]] == [np.dtype(np.float32)] * 4
        assert [a.tolist() for a in got[0]] == [[v] * 16 for v in (2.0, -1.0, 0.5, 3.0)]
        with pytest.raises(ValueError, match="running_var shape"):
            mlp.set_bn_state([(*got[0][:3], np.ones(15))])
        with pytest.raises(ValueError, match="bn state holds 2 layers, net has 1"):
            mlp.set_bn_state(got * 2)

    def test_built_from_matrices(self, grid17):
        mlp = MLP([np.zeros((6, 5), np.float32), np.zeros((5, 3), np.float32)], grid17)
        assert mlp.dims == (6, 5, 3) and mlp.dtype == np.float32
        assert mlp.layers[0].bn.gamma.dtype == np.float32 and mlp.layers[1].bn is None
        for bad in ([], [np.zeros((6, 5)), np.zeros((4, 3))], [np.zeros(6)]):
            with pytest.raises(ValueError):
                MLP(bad, grid17)
