import numpy as np
import pytest
from scipy import stats

from memqnn.device import CellArray, LevelSpec, N_LEVELS, default_levelspec
from memqnn.errors import ConfigError, EnduranceWarning


@pytest.fixture
def spec():
    return default_levelspec()


@pytest.fixture
def spec0():
    return default_levelspec(sigma_frac=0.0)


class TestLevelSpec:
    def test_default_shape_and_order(self, spec):
        assert spec.means.shape == (N_LEVELS,)
        assert np.all(np.diff(spec.means) > 0)
        assert spec.means[0] == 2.0 and spec.means[-1] == 90.0

    def test_non_monotone_rejected(self):
        means = np.arange(N_LEVELS, dtype=float)
        means[4] = means[5]
        with pytest.raises(ConfigError):
            LevelSpec(means, np.ones(N_LEVELS))

    def test_negative_sigma_rejected(self):
        sig = np.ones(N_LEVELS)
        sig[2] = -0.1
        with pytest.raises(ConfigError):
            LevelSpec(np.arange(1.0, 10.0), sig)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        for k in (0, 1):  # a mean, then a sigma
            rows = [np.arange(1.0, 10.0), np.ones(N_LEVELS)]
            rows[k][3] = bad
            with pytest.raises(ConfigError, match="must be finite"):
                LevelSpec(*rows)

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ConfigError):
            LevelSpec([1, 2, 3], [0.1, 0.1, 0.1])

    def test_rows_roundtrip(self, spec):
        rows = [[k, m, s] for k, (m, s) in enumerate(zip(spec.means, spec.sigmas))]
        again = LevelSpec.from_rows(rows[::-1])
        assert np.array_equal(again.means, spec.means)
        assert np.array_equal(again.sigmas, spec.sigmas)

    def test_rows_must_cover_all_levels(self):
        rows = [[k, 2.0 + k, 0.1] for k in range(N_LEVELS - 1)]
        with pytest.raises(ConfigError):
            LevelSpec.from_rows(rows)


class TestProgram:
    def test_zero_sigma_hits_mean_exactly(self, spec0):
        cells = CellArray((4,), spec0)
        cells.program(np.zeros(4, int), np.random.default_rng(0))
        assert np.array_equal(cells.g, np.full(4, 2.0))
        assert np.array_equal(cells.level, np.zeros(4))

    def test_reprogramming_resamples_and_counts(self, spec):
        cells = CellArray((1,), spec)
        rng = np.random.default_rng(1)
        cells.program([5], rng)
        g1 = cells.g[0]
        cells.program([5], rng)
        assert cells.g[0] != g1
        assert cells.ops[0] == 2

    def test_ops_counts_every_call_exactly(self, spec):
        cells = CellArray((10,), spec)
        rng = np.random.default_rng(2)
        calls = 0
        for k in (0, 3, 3, 8, 1):
            cells.program(np.full(10, k), rng)
            calls += 1
        assert np.all(cells.ops == calls)

    def test_masked_program_touches_only_selected(self, spec):
        cells = CellArray((6,), spec)
        rng = np.random.default_rng(3)
        cells.program(np.arange(6) % N_LEVELS, rng)
        picked = np.array([0, 2])
        n = cells.program(np.full(2, 8), rng, where=picked)
        assert n == 2
        assert np.array_equal(cells.ops, [2, 1, 2, 1, 1, 1])
        assert cells.level[1] == 1 and cells.level[0] == 8

    def test_invalid_level_rejected(self, spec):
        cells = CellArray((2,), spec)
        with pytest.raises(ValueError):
            cells.program([0, 9], np.random.default_rng(0))
        with pytest.raises(ValueError):
            cells.program([-1, 0], np.random.default_rng(0))

    @pytest.mark.parametrize("targets, dtype", [
        (np.arange(9) % 2 == 1, "bool"),       # read as a mask, it gave levels 0..8
        (np.full(9, 3.0), "float64"),
        (np.array([3] * 9, dtype=object), "object"),
    ])
    @pytest.mark.parametrize("where", [None, np.arange(9)])
    def test_non_integer_targets_rejected_before_any_draw(self, spec, targets, dtype, where):
        cells = CellArray((9,), spec)
        cells.program(np.arange(9), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        before = {k: v.copy() for k, v in cells.state_dict().items()}, rng.bit_generator.state
        with pytest.raises(TypeError, match=dtype):
            cells.program(targets, rng, where=where)
        assert all(np.array_equal(v, before[0][k]) for k, v in cells.state_dict().items())
        assert rng.bit_generator.state == before[1]

    @pytest.mark.parametrize("where", [[], (), np.array([], dtype=np.int64), np.empty((0, 3))])
    def test_empty_where_selects_nothing(self, spec, where):
        cells = CellArray((3, 3), spec)
        rng = np.random.default_rng(0)
        assert cells.program(4, rng, where=where) == 0
        assert cells.program([], rng, where=where) == 0
        assert (cells.level == -1).all() and not cells.ops.any() and not cells.g.any()
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("where", [np.array([], dtype=bool), np.array([0.0, 1.0])])
    def test_boolean_or_non_empty_float_where_rejected(self, spec, where):
        with pytest.raises(TypeError):
            CellArray((3, 3), spec).program(4, np.random.default_rng(0), where=where)

    def test_distributions_match_spec(self, spec):
        # 16k cells per level; Kolmogorov-Smirnov against the configured normal
        rng = np.random.default_rng(2024)
        for k in range(N_LEVELS):
            cells = CellArray((16384,), spec)
            cells.program(np.full(16384, k), rng)
            res = stats.kstest(cells.g, "norm",
                               args=(spec.means[k], spec.sigmas[k]))
            assert res.pvalue > 0.01, f"level {k}: p={res.pvalue}"

    def test_deterministic_with_zero_sigma(self, spec0):
        a, b = CellArray((64,), spec0), CellArray((64,), spec0)
        targets = np.arange(64) % N_LEVELS
        a.program(targets, np.random.default_rng(0))
        b.program(targets, np.random.default_rng(99))  # rng irrelevant at sigma 0
        assert np.array_equal(a.g, b.g)


class TestEndurance:
    def test_warning_on_budget_exceeded_run_continues(self, spec):
        cells = CellArray((1,), spec, endurance=3)
        rng = np.random.default_rng(0)
        for _ in range(3):
            cells.program([4], rng)
        with pytest.warns(EnduranceWarning):
            cells.program([4], rng)
        assert cells.ops[0] == 4  # kept counting, no abort


class TestRead:
    def test_zero_noise_returns_stored(self, spec):
        cells = CellArray((8,), spec)
        cells.program(np.full(8, 6), np.random.default_rng(4))
        assert np.array_equal(cells.read(), cells.g)

    def test_read_does_not_mutate(self, spec):
        cells = CellArray((8,), spec)
        rng = np.random.default_rng(5)
        cells.program(np.full(8, 6), rng)
        g = cells.g.copy()
        cells.read(rng, noise_sigma=2.0)
        assert np.array_equal(cells.g, g)

    def test_noisy_reads_average_to_stored(self, spec0):
        cells = CellArray((1,), spec0)
        rng = np.random.default_rng(6)
        cells.program([5], rng)
        sigma, n = 0.5, 4096
        reads = np.array([cells.read(rng, noise_sigma=sigma)[0] for _ in range(n)])
        assert abs(reads.mean() - cells.g[0]) < 3 * sigma / np.sqrt(n)

    def test_negative_draws_clamped(self):
        spec = LevelSpec(np.arange(1.0, 10.0), np.zeros(N_LEVELS))
        cells = CellArray((256,), spec)
        rng = np.random.default_rng(7)
        cells.program(np.zeros(256, int), rng)  # g = 1.0
        noisy = cells.read(rng, noise_sigma=5.0)
        assert np.all(noisy >= 0)
        assert np.any(noisy == 0)  # clamping actually happened

    def test_noise_without_rng_rejected(self, spec):
        cells = CellArray((1,), spec)
        with pytest.raises(ValueError):
            cells.read(None, noise_sigma=1.0)


class TestState:
    def test_roundtrip(self, spec):
        cells = CellArray((3, 4), spec)
        rng = np.random.default_rng(8)
        cells.program(rng.integers(0, N_LEVELS, (3, 4)), rng)
        clone = CellArray((3, 4), spec)
        clone.load_state_dict(cells.state_dict())
        assert np.array_equal(clone.g, cells.g)
        assert np.array_equal(clone.level, cells.level)
        assert np.array_equal(clone.ops, cells.ops)

    def test_program_after_loading_fortran_ordered_state(self, spec):
        # program writes through flat views, which a Fortran-ordered array would not give
        cells = CellArray((3, 4), spec)
        cells.load_state_dict({k: np.asfortranarray(v) for k, v in cells.state_dict().items()})
        for where in (None, np.array([5])):
            cells.program(7, np.random.default_rng(0), where=where)
        assert (cells.level == 7).all() and (cells.g > 0).all()
        assert cells.ops.reshape(-1).tolist() == [1] * 5 + [2] + [1] * 6

    def test_load_refuses_damaged_cells(self, spec):
        cells = CellArray((2, 2), spec)
        pristine = {k: v.copy() for k, v in cells.state_dict().items()}
        cells.load_state_dict(pristine)  # g = 0, level -1, ops 0
        for key, value in (("ops", -1), ("g", -1e-300), ("g", np.nan), ("g", np.inf),
                           ("g", -np.inf)):
            state = {k: v.copy() for k, v in pristine.items()}
            state[key][1, 0] = value
            with pytest.raises(ValueError, match=f"^{key} holds"):
                cells.load_state_dict(state)
            assert cells.g.tolist() == [[0.0, 0.0], [0.0, 0.0]] and not cells.ops.any()
        pristine["g"][0, 1] = -0.0
        cells.load_state_dict(pristine)
        assert np.signbit(cells.g[0, 1])

    def test_load_refuses_values_a_cast_would_change(self, spec):
        """A level the int8 cast would wrap, an op count the int64 cast would truncate."""
        cells = CellArray((2,), spec)
        pristine = {k: v.copy() for k, v in cells.state_dict().items()}
        for key, value, named in (
                ("level", [259, 3], "level holds a level outside -1..8"),
                ("ops", [2.7, 1.0], "ops holds an op count that is not a whole number")):
            with pytest.raises(ValueError, match=f"^{named}$"):
                cells.load_state_dict({**pristine, key: np.array(value)})
            assert cells.level.tolist() == [-1, -1] and cells.ops.tolist() == [0, 0]
        for key, value in (("level", [-2, 0]), ("level", [9, 0]), ("level", [2.5, 0.0]),
                           ("level", [np.nan, 0.0]), ("ops", [np.nan, 0.0]),
                           ("ops", [np.inf, 0.0]), ("ops", np.array([2**63, 0], np.uint64)),
                           ("g", ["1.0", "2.0"])):
            with pytest.raises(ValueError, match=f"^{key} holds"):
                cells.load_state_dict({**pristine, key: np.array(value)})
        cells.load_state_dict({"level": np.array([8.0, -1.0]), "g": np.array([1, 0]),
                               "ops": np.array([3.0, 0.0])})  # whole floats install exactly
        assert cells.level.dtype == np.int8 and cells.level.tolist() == [8, -1]
        assert cells.ops.dtype == np.int64 and cells.ops.tolist() == [3, 0]
