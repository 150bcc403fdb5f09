import numpy as np
import pytest

from memqnn.optim import Adam, bn_update, metaplastic_update
from memqnn.quantgrid import uniform_grid

from conftest import uniform_mlp


@pytest.fixture
def grid17():
    return uniform_grid(17, -1.5, 1.5)


class TestAdam:
    def test_first_step_direction(self):
        # from zero state: m_hat = g, v_hat = g^2, so u = g / (|g| + eps)
        g = np.array([0.5, -0.02, 3.0])
        adam = Adam()
        u = adam.directions({"p": g})["p"]
        assert np.allclose(u, g / (np.abs(g) + adam.eps), rtol=0, atol=1e-15)
        assert adam.t == 1

    def test_zero_gradient_zero_direction(self):
        adam = Adam()
        u = adam.directions({"p": np.zeros(4)})["p"]
        assert np.array_equal(u, np.zeros(4))

    def test_constant_gradient_approaches_sign(self):
        adam = Adam()
        g = np.array([0.25, -1.75])
        for _ in range(300):
            u = adam.directions({"p": g})["p"]
        assert np.allclose(u, np.sign(g), atol=1e-6)

    def test_determinism(self):
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        a1, a2 = Adam(), Adam()
        for _ in range(50):
            g1 = rng1.normal(size=(8, 8))
            g2 = rng2.normal(size=(8, 8))
            u1 = a1.directions({"w": g1})["w"]
            u2 = a2.directions({"w": g2})["w"]
            assert np.array_equal(u1, u2)

    def test_shape_mismatch_raises(self):
        adam = Adam()
        adam.directions({"p": np.zeros(3)})
        with pytest.raises(ValueError):
            adam.directions({"p": np.zeros(4)})

    def test_refused_call_changes_nothing(self):
        # the bad shape is the second gradient: the first slot must not move either
        adam = Adam()
        adam.directions({"p": np.ones(3), "q": np.ones(2)})
        before = {k: a.copy() for k, a in adam.state_dict().items()}
        with pytest.raises(ValueError, match="'q'"):
            adam.directions({"p": np.full(3, 2.0), "q": np.ones(5), "r": np.ones(4)})
        after = adam.state_dict()
        assert adam.t == 1 and list(after) == list(before)
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_state_roundtrip(self):
        adam = Adam(beta1=0.8, beta2=0.95, eps=1e-7)
        rng = np.random.default_rng(1)
        for _ in range(5):
            adam.directions({"a": rng.normal(size=3), "b": rng.normal(size=(2, 2))})
        assert "betas_eps" not in adam.state_dict()  # the hyperparameters are the caller's
        clone = Adam(beta1=0.8, beta2=0.95, eps=1e-7)
        clone.load_state_dict(adam.state_dict(), {"a": (3,), "b": (2, 2)})
        g = {"a": rng.normal(size=3), "b": rng.normal(size=(2, 2))}
        u1 = adam.directions({k: v.copy() for k, v in g.items()})
        u2 = clone.directions({k: v.copy() for k, v in g.items()})
        assert np.array_equal(u1["a"], u2["a"]) and np.array_equal(u1["b"], u2["b"])

    @pytest.mark.parametrize("shapes", [{"a": (3,)}, {"a": (3,), "b": (2, 3)}])
    def test_load_checks_slot_shapes(self, shapes):
        adam = Adam()
        adam.directions({"a": np.ones(3), "b": np.ones((2, 2))})
        state = {**adam.state_dict(), "betas_eps": np.asarray([0.5, 0.5, 1.0])}
        clone = Adam()
        with pytest.raises(ValueError, match="'b'"):
            clone.load_state_dict(state, shapes)
        assert clone.t == 0 and clone.slots == {}  # refused whole
        clone.load_state_dict(state, {"a": (3,), "b": (2, 2)})  # betas_eps is ignored
        assert (clone.beta1, clone.beta2, clone.eps) == (0.9, 0.999, 1e-8)


class TestMetaplasticUpdate:
    def test_away_branch_selected(self, grid17):
        # hidden above its level, update direction pushing it further up
        w = np.array([0.05])
        wq = np.array([0.0])
        u = np.array([-0.01])  # step = -lr*u > 0, away from 0
        out_meta = metaplastic_update(w, wq, u, grid17, 3.0, 0.1)
        out_plain = metaplastic_update(w, wq, u, grid17, 0.0, 0.1)
        # metaplastic branch shrinks the move
        assert out_meta[0] < out_plain[0]
        assert out_meta[0] > w[0]  # still moves away, just less

    def test_toward_branch_full_strength(self, grid17):
        w = np.array([0.05])
        wq = np.array([0.0])
        u = np.array([+0.01])  # step = -lr*u < 0, toward 0
        out = metaplastic_update(w, wq, u, grid17, 3.0, 0.1)
        assert out[0] == pytest.approx(0.05 - 0.1 * 0.01, rel=0, abs=0)

    def test_m_zero_branches_identical(self, grid17):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1.5, 1.5, size=256)
        _, wq = grid17.project(w)
        u = rng.normal(size=256)
        out = metaplastic_update(w, wq, u, grid17, 0.0, 5e-3)
        plain = grid17.clip_hidden(w - 5e-3 * u)
        assert np.array_equal(out, plain)

    def test_equality_case_takes_plain_branch(self, grid17):
        w = np.array([0.1875])  # exactly on a level: w - wq == 0
        _, wq = grid17.project(w)
        u = np.array([0.5])
        out = metaplastic_update(w, wq, u, grid17, 5.0, 0.01)
        assert out[0] == pytest.approx(0.1875 - 0.01 * 0.5, abs=0)

    def test_branch_asymmetry(self, grid17):
        # strictly between level and midpoint: away-move smaller than toward-move
        w = np.array([0.05])
        _, wq = grid17.project(w)
        away = metaplastic_update(w, wq, np.array([-0.01]), grid17, 3.0, 0.1)
        toward = metaplastic_update(w, wq, np.array([+0.01]), grid17, 3.0, 0.1)
        assert abs(away[0] - w[0]) < abs(toward[0] - w[0])

    def test_consolidation_limit(self, grid17):
        # at the level with huge m*, the away step collapses
        w = np.array([0.1875 + 1e-12])
        _, wq = grid17.project(w)
        u = np.array([-1.0])
        lr = 0.1
        out = metaplastic_update(w, wq, u, grid17, 20.0, lr)
        moved = out[0] - w[0]
        assert 0 <= moved < 1e-8 * lr  # scale < 1e-8 of the plain update

    def test_result_clipped(self, grid17):
        w = np.array([1.59])
        _, wq = grid17.project(w)
        out = metaplastic_update(w, wq, np.array([-10.0]), grid17, 0.0, 0.1)
        assert out[0] == grid17.hidden_hi

    def test_float32_stays_float32(self, grid17):
        w = np.linspace(-1, 1, 64, dtype=np.float32)
        _, wq = grid17.project(w)
        wq = wq.astype(np.float32)
        u = np.ones(64, dtype=np.float32)
        out = metaplastic_update(w, wq, u, grid17, 3.0, 1e-2)
        assert out.dtype == np.float32


class TestBnUpdate:
    def test_zero_update_unchanged(self, grid17):
        mlp = uniform_mlp((8, 4, 2), grid17, np.random.default_rng(0))
        bn = mlp.layers[0].bn
        gamma = bn.gamma.copy()
        bn_update(bn, np.zeros_like(bn.gamma), np.zeros_like(bn.beta), 0.1)
        assert np.array_equal(bn.gamma, gamma)

    def test_shape_mismatch_raises(self, grid17):
        mlp = uniform_mlp((8, 4, 2), grid17, np.random.default_rng(0))
        with pytest.raises(ValueError):
            bn_update(mlp.layers[0].bn, np.zeros(3), np.zeros(4), 0.1)

    def test_bounded_updates_keep_gamma_finite(self, grid17):
        mlp = uniform_mlp((8, 4, 2), grid17, np.random.default_rng(0))
        bn = mlp.layers[0].bn
        rng = np.random.default_rng(1)
        for _ in range(1000):
            bn_update(bn, rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), 1e-3)
        assert np.all(np.isfinite(bn.gamma)) and np.all(np.isfinite(bn.beta))


class TestBitwiseEquivalence:
    def test_m_zero_run_matches_disabled_branch(self, grid17):
        """Train twice from the same state: m*=0 versus the rule with the
        metaplastic branch physically removed. Trajectories must be bitwise equal."""
        def run(update_fn, steps=25):
            rng = np.random.default_rng(123)
            mlp = uniform_mlp((12, 10, 4), grid17, np.random.default_rng(7))
            adam = Adam()
            for _ in range(steps):
                x = rng.normal(size=(16, 12))
                y = rng.integers(0, 4, 16)
                _, grads, _ = mlp.loss_grads(x, y)
                u = adam.directions(grads)
                for i, layer in enumerate(mlp.layers):
                    layer.set_hidden(update_fn(layer, u[f"w{i}"]))
                    if layer.bn is not None:
                        bn_update(layer.bn, u[f"bn{i}.gamma"], u[f"bn{i}.beta"], 5e-3)
            return [layer.w_hidden.copy() for layer in mlp.layers]

        with_rule = run(lambda l, u: metaplastic_update(
            l.w_hidden, l.w_quant, u, grid17, 0.0, 5e-3, l.level_idx))
        disabled = run(lambda l, u: grid17.clip_hidden(l.w_hidden - 5e-3 * u))
        for a, b in zip(with_rule, disabled):
            assert np.array_equal(a, b)
