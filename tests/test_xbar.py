import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memqnn.device import LevelSpec, N_LEVELS, default_levelspec
from memqnn.harness import ExperimentConfig, build_model
from memqnn.xbar import (
    HALF_SPAN,
    CrossbarTile,
    derive_grid,
    dump_tiles_tsv,
    encode_levels,
)


@pytest.fixture
def dgrid():
    return derive_grid(default_levelspec())


@pytest.fixture
def dgrid0():
    return derive_grid(default_levelspec(sigma_frac=0.0))


class TestEncoding:
    def test_examples(self):
        plus, minus = encode_levels(np.array([8, 0, -3]))
        assert plus.tolist() == [8, 0, 0] and minus.tolist() == [0, 0, 3]

    def test_roundtrip_exact(self):
        k = np.arange(-HALF_SPAN, HALF_SPAN + 1)
        plus, minus = encode_levels(k)
        assert np.array_equal(plus - minus, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_levels(9)
        with pytest.raises(ValueError):
            encode_levels(np.array([0, -9]))


class TestDeriveGrid:
    def test_calibration(self, dgrid):
        lv = dgrid.grid.levels
        assert lv[-1] == 1.5          # top level pinned to the target
        assert lv[HALF_SPAN] == 0.0   # matched pair decodes to exactly zero
        assert dgrid.grid.n == 2 * HALF_SPAN + 1

    def test_symmetric_by_construction(self, dgrid):
        assert np.array_equal(dgrid.grid.levels, -dgrid.grid.levels[::-1])

    def test_unequal_spacing_near_zero(self, dgrid):
        # default ladder: LCS->HCS1 gap (18 uS) vs HCS steps (10 uS)
        w = dgrid.grid.widths
        near_zero = w[HALF_SPAN]
        step = w[HALF_SPAN + 1]
        assert near_zero == pytest.approx(dgrid.gain * 18.0, rel=1e-12)
        assert step == pytest.approx(dgrid.gain * 10.0, rel=1e-12)
        assert near_zero > step

    def test_uniform_away_from_zero(self, dgrid):
        w = dgrid.grid.widths
        outer = np.concatenate((w[:HALF_SPAN - 1], w[HALF_SPAN + 1:]))
        assert np.allclose(outer, outer[0], rtol=1e-12)

    def test_signed_level_mapping(self, dgrid):
        idx = np.arange(dgrid.grid.n)
        assert dgrid.signed_levels(idx).min() == -HALF_SPAN
        assert dgrid.signed_levels(HALF_SPAN) == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.01, 50, allow_nan=False), min_size=N_LEVELS - 1,
                max_size=N_LEVELS - 1))
def test_grid_monotone_for_any_monotone_spec(increments):
    means = np.concatenate(([1.0], 1.0 + np.cumsum(increments)))
    spec = LevelSpec(means, np.zeros(N_LEVELS))
    grid = derive_grid(spec).grid.levels
    assert np.all(np.diff(grid) > 0)


class TestWritePolicy:
    def test_fresh_tile_programs_every_cell_once(self, dgrid):
        tile = CrossbarTile(4, 5, dgrid, np.random.default_rng(0))
        k = np.random.default_rng(1).integers(-HALF_SPAN, HALF_SPAN + 1, (4, 5))
        ops = tile.write_levels(k)
        assert ops == 2 * 4 * 5
        assert np.all(tile.plus.ops == 1) and np.all(tile.minus.ops == 1)

    def test_pristine_whole_write_draws_as_the_pairs(self, dgrid):
        k = np.random.default_rng(1).integers(-HALF_SPAN, HALF_SPAN + 1, (4, 5))
        whole, pairs = (CrossbarTile(4, 5, dgrid, np.random.default_rng(0)) for _ in range(2))
        assert whole.write_levels(k) == pairs.write_levels(k.ravel(), where=np.arange(20)) == 40
        sw, sp = whole.state_dict(), pairs.state_dict()
        assert all(sw[key].tobytes() == sp[key].tobytes() for key in sw)
        assert whole.effective_weights().tobytes() == pairs.effective_weights().tobytes()
        assert whole.rng.bit_generator.state == pairs.rng.bit_generator.state

    def test_rewrite_identical_is_free(self, dgrid):
        tile = CrossbarTile(4, 5, dgrid, np.random.default_rng(0))
        k = np.random.default_rng(1).integers(-HALF_SPAN, HALF_SPAN + 1, (4, 5))
        tile.write_levels(k)
        assert tile.write_levels(k) == 0

    def test_single_level_change_costs_one_op(self, dgrid):
        tile = CrossbarTile(3, 3, dgrid, np.random.default_rng(0))
        k = np.ones((3, 3), dtype=int)
        tile.write_levels(k)
        k[1, 1] = 2  # +1 -> +2: only the plus cell moves, minus stays LCS
        assert tile.write_levels(k) == 1
        assert tile.plus.ops[1, 1] == 2 and tile.minus.ops[1, 1] == 1

    def test_sign_flip_costs_two_ops(self, dgrid):
        tile = CrossbarTile(1, 1, dgrid, np.random.default_rng(0))
        tile.write_levels(np.array([[3]]))
        assert tile.write_levels(np.array([[-3]])) == 2

    @pytest.mark.parametrize("where", [None, [0, 1]])
    def test_boolean_levels_program_nothing(self, dgrid, where):
        rng = np.random.default_rng(0)
        tile = CrossbarTile(1, 2, dgrid, rng)
        before = rng.bit_generator.state
        levels = np.array([[True, False]])
        with pytest.raises(TypeError, match="bool"):
            tile.write_levels(levels if where is None else levels.ravel(), where=where)
        assert not tile.plus.ops.any() and not tile.minus.ops.any()
        assert (tile.plus.level == -1).all() and (tile.minus.level == -1).all()
        assert rng.bit_generator.state == before

    def test_shape_mismatch(self, dgrid):
        tile = CrossbarTile(2, 2, dgrid, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tile.write_levels(np.zeros((3, 2), dtype=int))

    def test_ops_conservation(self, dgrid):
        tile = CrossbarTile(6, 6, dgrid, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        reported = 0
        for _ in range(20):
            reported += tile.write_levels(rng.integers(-2, 3, (6, 6)))
        assert reported == tile.total_ops()
        assert tile.total_ops() == tile.ops_per_cell().sum()


class TestMvm:
    def test_zero_sigma_equals_exact_product(self, dgrid0):
        rng = np.random.default_rng(3)
        tile = CrossbarTile(32, 16, dgrid0, np.random.default_rng(4))
        k = rng.integers(-HALF_SPAN, HALF_SPAN + 1, (32, 16))
        tile.write_levels(k)
        w_nominal = dgrid0.grid.levels[k + HALF_SPAN]
        x = rng.normal(size=(8, 32))
        got = tile.mvm_forward(x)
        want = x @ w_nominal
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))

    def test_zero_input_zero_output(self, dgrid):
        tile = CrossbarTile(5, 4, dgrid, np.random.default_rng(0))
        tile.write_levels(np.ones((5, 4), dtype=int))
        assert np.array_equal(tile.mvm_forward(np.zeros(5)), np.zeros(4))

    def test_basis_vector_reads_row(self, dgrid0):
        tile = CrossbarTile(5, 4, dgrid0, np.random.default_rng(0))
        k = np.random.default_rng(1).integers(-HALF_SPAN, HALF_SPAN + 1, (5, 4))
        tile.write_levels(k)
        e2 = np.zeros(5)
        e2[2] = 1.0
        assert np.allclose(tile.mvm_forward(e2), dgrid0.grid.levels[k[2] + HALF_SPAN],
                           rtol=0, atol=1e-12)

    def test_backward_is_transpose(self, dgrid0):
        rng = np.random.default_rng(5)
        tile = CrossbarTile(7, 3, dgrid0, np.random.default_rng(6))
        k = rng.integers(-HALF_SPAN, HALF_SPAN + 1, (7, 3))
        tile.write_levels(k)
        w_nominal = dgrid0.grid.levels[k + HALF_SPAN]
        delta = rng.normal(size=(4, 3))
        assert np.allclose(tile.mvm_backward(delta), delta @ w_nominal.T,
                           rtol=0, atol=1e-12)
        assert np.array_equal(tile.mvm_backward(np.zeros(3)), np.zeros(7))

    def test_shape_checks(self, dgrid):
        tile = CrossbarTile(5, 4, dgrid, np.random.default_rng(0))
        tile.write_levels(np.zeros((5, 4), dtype=int))
        with pytest.raises(ValueError):
            tile.mvm_forward(np.zeros(4))
        with pytest.raises(ValueError):
            tile.mvm_backward(np.zeros(5))

    def test_variability_moves_products(self, dgrid):
        # same nominal levels, different device draws -> different analog result
        k = np.ones((16, 8), dtype=int) * 2
        t1 = CrossbarTile(16, 8, dgrid, np.random.default_rng(1))
        t2 = CrossbarTile(16, 8, dgrid, np.random.default_rng(2))
        t1.write_levels(k)
        t2.write_levels(k)
        x = np.ones(16)
        assert not np.allclose(t1.mvm_forward(x), t2.mvm_forward(x))

    def test_read_noise_resamples_per_call(self, dgrid0):
        tile = CrossbarTile(8, 4, dgrid0, np.random.default_rng(0),
                            read_noise_sigma=1.0)
        tile.write_levels(np.full((8, 4), 3))
        x = np.ones(8)
        a, b = tile.mvm_forward(x), tile.mvm_forward(x)
        assert not np.array_equal(a, b)


class TestHardwareInit:
    """The tiles harness.build_model programs for a fresh crossbar run."""

    @staticmethod
    def build(dtype):
        cfg = ExperimentConfig(dims=(20, 10, 4), dtype=dtype, weight_source="crossbar",
                               grid_source="device").validate()
        return build_model(cfg, np.random.default_rng(0), np.random.default_rng(1))

    def test_everything_in_range_and_projected(self):
        mlp, dgrid, _ = self.build("float64")
        grid = dgrid.grid
        for layer in mlp.layers:
            w = layer.w_hidden
            assert np.all(w >= grid.hidden_lo) and np.all(w <= grid.hidden_hi)
            idx, _ = grid.project(w)
            assert np.array_equal(np.asarray(layer.tile.plus.level, np.int64)
                                  - np.asarray(layer.tile.minus.level, np.int64),
                                  np.asarray(idx, np.int64) - HALF_SPAN)

    def test_ops_equals_two_per_synapse(self):
        mlp, _, ops = self.build("float32")
        assert ops == 2 * (200 + 40)
        for layer in mlp.layers:
            assert np.all(layer.tile.plus.ops == 1) and np.all(layer.tile.minus.ops == 1)


class TestAccounting:
    def test_dump_format(self, dgrid, tmp_path):
        tile = CrossbarTile(3, 2, dgrid, np.random.default_rng(0))
        tile.write_levels(np.full((3, 2), -4))
        path = tmp_path / "devices.tsv"
        dump_tiles_tsv(path, [tile])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "layer\trow\tcol\tside\tlevel\tg_uS\tops"
        assert len(lines) == 1 + 2 * 3 * 2
        first = lines[1].split("\t")
        assert first[0] == "layer0" and first[3] == "plus"

    def test_dump_memory_is_one_block(self, dgrid, tmp_path):
        # numpy reports its buffers to tracemalloc; the 784x512 dump is ~27 MB
        tile = CrossbarTile(784, 512, dgrid, np.random.default_rng(0))
        tile.write_levels(np.random.default_rng(1).integers(-8, 9, tile.shape))
        path = tmp_path / "devices.tsv"
        tracemalloc.start()
        try:
            dump_tiles_tsv(path, [tile])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6 < path.stat().st_size / 3

    def test_state_roundtrip(self, dgrid):
        tile = CrossbarTile(4, 4, dgrid, np.random.default_rng(0))
        tile.write_levels(np.random.default_rng(1).integers(-8, 9, (4, 4)))
        clone = CrossbarTile(4, 4, dgrid, np.random.default_rng(9))
        clone.load_state_dict(tile.state_dict())
        assert np.array_equal(clone.effective_weights(), tile.effective_weights())
        assert clone.total_ops() == tile.total_ops()
