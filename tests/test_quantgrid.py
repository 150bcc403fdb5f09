import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memqnn.errors import ConfigError
from memqnn.quantgrid import QuantGrid, uniform_grid


@pytest.fixture
def grid17():
    return uniform_grid(17, -1.5, 1.5)


class TestConstruction:
    def test_17_levels_spacing(self, grid17):
        assert grid17.n == 17
        assert grid17.levels[0] == -1.5 and grid17.levels[-1] == 1.5
        assert np.allclose(grid17.widths, 0.1875, rtol=0, atol=1e-15)

    def test_two_point_grid(self):
        g = uniform_grid(2, -1, 1)
        assert g.levels.tolist() == [-1.0, 1.0]

    def test_three_point_grid(self):
        assert uniform_grid(3, 0, 1).levels.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("n,lo,hi", [(1, 0, 1), (0, 0, 1), (5, 1, 1), (5, 2, -2)])
    def test_bad_parameters(self, n, lo, hi):
        with pytest.raises(ConfigError):
            uniform_grid(n, lo, hi)

    def test_non_monotone_levels(self):
        with pytest.raises(ConfigError):
            QuantGrid([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ConfigError):
            QuantGrid([0.0, 1.0, 0.5])

    def test_non_finite_levels(self):
        with pytest.raises(ConfigError):
            QuantGrid([0.0, np.inf])

    def test_serialization_roundtrip(self, grid17):
        again = QuantGrid(grid17.levels.tolist())
        assert np.array_equal(again.levels, grid17.levels)

    def test_level_count_fits_int16(self):
        """Level indices are int16, so the largest grid has 32767 levels."""
        assert QuantGrid(np.arange(32767.0)).n == 32767
        with pytest.raises(ConfigError, match="32767"):
            QuantGrid(np.arange(32768.0))


class TestProjection:
    def test_example_0p10(self, grid17):
        # 0.10 is nearer to 0.1875 (distance 0.0875) than to 0 (0.10)
        _, ws = grid17.project(0.10)
        assert ws == 0.1875

    def test_exact_level(self, grid17):
        for level in grid17.levels:
            _, ws = grid17.project(level)
            assert ws == level

    def test_clamp_out_of_range(self, grid17):
        assert grid17.project(2.3)[1] == 1.5
        assert grid17.project(-99.0)[1] == -1.5

    def test_midpoint_ties_take_lower_level(self, grid17):
        idx, ws = grid17.project(0.09375)
        assert ws == 0.0 and grid17.levels[idx] == 0.0
        idx, ws = grid17.project(-0.09375)
        assert ws == -0.1875

    def test_non_finite_rejected(self, grid17):
        with pytest.raises(FloatingPointError):
            grid17.project(np.nan)
        with pytest.raises(FloatingPointError):
            grid17.project(np.array([0.0, np.inf]))

    def test_brute_force_oracle(self, grid17):
        # nearest-by-enumeration over every level, 1e4 points incl. out of range
        rng = np.random.default_rng(42)
        w = rng.uniform(-2.5, 2.5, size=10_000)
        idx, ws = grid17.project(w)
        dists = np.abs(grid17.levels[None, :] - w[:, None])
        assert np.all(np.abs(ws - w)[:, None] <= dists + 1e-15)
        # and the chosen index is the first argmin (lower-index tie rule)
        assert np.array_equal(np.asarray(idx, dtype=np.int64), dists.argmin(axis=1))

    def test_idempotent(self, grid17):
        rng = np.random.default_rng(7)
        w = rng.uniform(-2, 2, size=1000)
        _, once = grid17.project(w)
        _, twice = grid17.project(once)
        assert np.array_equal(once, twice)

    def test_unequal_grid_projection(self):
        g = QuantGrid([-1.0, -0.2, 0.0, 0.5, 1.5])
        assert g.project(-0.59)[1] == -0.2   # |−0.2−(−0.59)|=0.39 < 0.41
        assert g.project(-0.61)[1] == -1.0
        assert g.project(0.26)[1] == 0.5

    def test_float32_matches_float64_dispatch(self, grid17):
        rng = np.random.default_rng(3)
        w = rng.uniform(-1.6, 1.6, size=5000).astype(np.float32)
        i32, _ = grid17.project(w)
        i64, _ = grid17.project(w.astype(np.float64))
        assert np.array_equal(np.asarray(i32, np.int64), np.asarray(i64, np.int64))

    @pytest.mark.parametrize("n", [2, 17, 64, 65, 80, 32767])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_level_index_is_int16(self, n, dtype):
        """One index type for the counting loop (up to 64 levels), the binary
        search (above) and scalar input, with the counting loop's indices."""
        g = QuantGrid(np.cumsum(np.random.default_rng(n).uniform(0.5, 1.5, n)))
        w = np.concatenate((g.levels, g.midpoints, [g.hidden_lo, g.hidden_hi])).astype(dtype)
        w = np.random.default_rng(0).permutation(w)[:300]
        idx = g.project_idx(w)
        assert idx.dtype == np.int16
        counted = np.zeros(w.shape, np.int64)
        for m in g.level_tables(dtype)[0][1:-1]:
            counted += w > m
        assert np.array_equal(idx, counted)
        assert g.project_idx(w[3]).dtype == np.int16


class TestPlasticity:
    def test_m_zero_is_identity(self, grid17):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1.6, 1.6, size=256)
        assert np.all(grid17.plasticity(w, 0.0) == 1.0)

    def test_midpoint_fully_plastic(self, grid17):
        assert grid17.plasticity(0.09375 + 0.1875, 3.0) == 1.0

    def test_value_at_level(self, grid17):
        # sitting exactly on a level is the most consolidated state
        expect = 1.0 - np.tanh(3.0) ** 2
        got = float(grid17.plasticity(0.0, 3.0))
        assert got == pytest.approx(expect, abs=0)
        assert got == pytest.approx(9.866e-3, abs=1e-6)

    def test_negative_m_star_rejected(self, grid17):
        with pytest.raises(ConfigError):
            grid17.plasticity(0.0, -2.0)

    def test_bounds(self, grid17):
        rng = np.random.default_rng(1)
        w = rng.uniform(grid17.hidden_lo, grid17.hidden_hi, size=4096)
        for m in (0.0, 0.5, 1.0, 3.0, 10.0):
            vals = grid17.plasticity(w, m)
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_one_iff_argument_zero(self, grid17):
        # midpoints give exactly 1; anything off-midpoint with m>0 gives < 1
        mids = grid17.midpoints
        assert np.all(grid17.plasticity(mids, 2.5) == 1.0)
        off = mids + 0.01
        assert np.all(grid17.plasticity(off, 2.5) < 1.0)

    def test_symmetry_within_interval(self, grid17):
        # distance d from the lower level mirrors distance width-d from the upper
        lo = grid17.levels[8]   # 0.0
        width = grid17.widths[8]
        for d in (0.01, 0.04, 0.07, 0.09):
            a = grid17.plasticity(lo + d, 3.0)
            b = grid17.plasticity(lo + (width - d), 3.0)
            assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_in_distance_within_half_interval(self, grid17):
        ds = np.linspace(0, grid17.widths[8] / 2, 40)
        vals = np.asarray([grid17.plasticity(0.0 + d, 3.0) for d in ds])
        assert np.all(np.diff(vals) > 0)

    def test_m_star_monotonicity_at_level(self, grid17):
        ms = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0]
        vals = [float(grid17.plasticity(0.1875, m)) for m in ms]
        assert np.all(np.diff(vals) < 0)

    def test_outside_grid_uses_outer_interval(self, grid17):
        # clipped hidden range ends half an interval out: fully plastic there
        assert grid17.plasticity(grid17.hidden_hi, 3.0) == pytest.approx(1.0)
        at_end = float(grid17.plasticity(1.5, 3.0))
        assert at_end == pytest.approx(1.0 - np.tanh(3.0) ** 2)

    def test_two_level_grid_is_the_binarized_rule(self):
        """For |w| <= 1 the grid -1, +1 gives the BNN rule 1 - tanh²(m·|w|) of
        Laborieux et al. (Nature Communications 12, 2549, 2021)."""
        grid = uniform_grid(2, -1, 1)
        w = np.concatenate([np.linspace(-1.0, 1.0, 2001), [0.0, -0.0, 1.0, -1.0, 1e-300]])
        for m in (0.5, 1.0, 1.3, 3.0, 10.0):
            bnn = 1.0 - np.tanh(m * np.abs(w)) ** 2
            assert np.abs(grid.plasticity(w, m) - bnn).max() <= 1e-15
        # beyond |w| = 1 the grid measures the distance to the level, the BNN rule to 0
        far = np.array([-1.5, 1.5])
        assert np.all(grid.plasticity(far, 3.0) > 1.0 - np.tanh(3.0 * 1.5) ** 2)
        assert grid.hidden_lo == -2.0 and grid.hidden_hi == 2.0

    def test_unequal_widths_per_side(self):
        # value at fixed absolute distance differs with the interval width
        g = QuantGrid([-1.0, 0.0, 3.0])
        below = float(g.plasticity(-0.25, 3.0))  # width-1 interval
        above = float(g.plasticity(0.25, 3.0))   # width-3 interval, nearer its level
        d_below = abs(np.tanh(2 * 3.0 / 1.0 * 0.25 - 3.0))
        d_above = abs(np.tanh(2 * 3.0 / 3.0 * 0.25 - 3.0))
        assert below == pytest.approx(1 - d_below**2, rel=1e-12)
        assert above == pytest.approx(1 - d_above**2, rel=1e-12)
        assert below > above

    def test_clip_hidden(self, grid17):
        w = np.array([-5.0, 0.0, 5.0])
        clipped = grid17.clip_hidden(w)
        assert clipped[0] == grid17.hidden_lo == -1.5 - 0.1875 / 2
        assert clipped[2] == grid17.hidden_hi == 1.5 + 0.1875 / 2
        assert clipped[1] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    levels=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=24,
                    unique=True).map(sorted),
    w=st.floats(-12, 12, allow_nan=False),
    m=st.floats(0, 12, allow_nan=False),
)
def test_projection_and_plasticity_properties(levels, w, m):
    diffs = np.diff(levels)
    if np.any(diffs <= 1e-9):  # keep widths sane for the 2m/width factor
        return
    g = QuantGrid(levels)
    idx, ws = g.project(w)
    assert np.all(np.abs(ws - w) <= np.abs(np.asarray(levels) - w) + 1e-12)
    val = float(g.plasticity(w, m, idx, ws))
    assert 0.0 < val <= 1.0
