"""The fused consolidation step and the forward pass against their oracles (tests/oracles.py).

The compiled step (``_step.c``) is compared with the plain rule it stands in
for (``optim.metaplastic_update``), with and without a C compiler; the plain
rule itself has no second copy, so ``TestUpdateOracle`` checks its own
properties. The library's re-projection is compared with
``DenseLayer.set_hidden``, its batch norm and ReLU with ``BatchNorm`` and the
``fmax`` ReLU. Every comparison is on bytes: values, dtype and shape, so a
-0.0 for a 0.0 or a changed RNG draw order fails as loudly as a wrong level.
"""

import ctypes
import dataclasses
import hashlib
import importlib.util
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memqnn import harness, net, optim, xbar
from memqnn.data import TaskSpec
from memqnn.device import CellArray, LevelSpec, N_LEVELS, default_levelspec
from memqnn.errors import ConfigError
from memqnn.net import MLP, BatchNorm, DenseLayer, ForwardTape, init_hidden_uniform
from memqnn.optim import Adam, metaplastic_update
from memqnn.quantgrid import QuantGrid, uniform_grid
from memqnn.xbar import HALF_SPAN, CrossbarTile, derive_grid, dump_tiles_tsv, encode_levels

from conftest import uniform_mlp
from oracles import (
    reference_bn_forward,
    reference_decode,
    reference_dump_tiles_tsv,
    reference_encode_levels,
    reference_forward,
    reference_loss_grads,
    reference_program,
    reference_projection,
    reference_train_step,
    reference_write_levels,
)

DTYPES = (np.float32, np.float64)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def device_grid(rng):
    gaps = rng.uniform(0.5, 20.0, N_LEVELS)
    return derive_grid(LevelSpec(np.cumsum(gaps), 0.05 * np.cumsum(gaps)),
                       target_max=rng.uniform(0.5, 3.0))


@st.composite
def grids(draw):
    """Uniform, explicit (up to 80 levels: the binary-search projection) or device grids."""
    kind = draw(st.sampled_from(["uniform", "explicit", "device"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        n = draw(st.integers(2, 24))
        return uniform_grid(n, -rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
    if kind == "explicit":
        n = draw(st.sampled_from([2, 3, 9, 17, 80]))
        return QuantGrid(np.cumsum(rng.uniform(1e-3, 1.0, n)) - rng.uniform(0, n / 2))
    return device_grid(rng).grid


def hidden_weights(rng, grid, dtype, shape, spread=1.0):
    """Random weights plus exact midpoints (ties), levels and clip endpoints."""
    lo, hi = grid.hidden_lo, grid.hidden_hi
    half = 0.5 * (hi - lo)
    w = rng.uniform(lo - spread * half, hi + spread * half, shape).astype(dtype)
    flat = w.reshape(-1)
    specials = np.concatenate((grid.midpoints, grid.levels, [lo, hi])).astype(dtype)
    pick = rng.random(flat.size) < 0.3
    flat[pick] = rng.choice(specials, pick.sum())
    return w


def direction(rng, dtype, shape):
    u = rng.normal(size=shape).astype(dtype)
    u[rng.random(shape) < 0.1] = 0.0  # equality case: no step at all
    return u


class TestUpdateOracle:
    """The plain rule, ``metaplastic_update`` and ``QuantGrid.plasticity``, on its own terms.

    It is the compiled step's oracle (``TestCompiledStep``), so these check
    what it promises by itself: a step toward the level is the plain step,
    a step away from it is never longer, and a level state the caller passes
    gives the bits of the one the rule derives.
    """

    @settings(max_examples=80, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           m_star=st.sampled_from([0.0, 0.3, 3.0, 12.0]), lr=st.sampled_from([1e-3, 0.05, 2.0]))
    def test_metaplastic_update_bit_equal(self, grid, seed, dtype, m_star, lr):
        rng = np.random.default_rng(seed)
        w = grid.clip_hidden(hidden_weights(rng, grid, dtype, (9, 7)))
        idx, wq = reference_projection(grid, w)
        u = direction(rng, dtype, w.shape)
        got = metaplastic_update(w, wq, u, grid, m_star, lr, idx)
        assert same_bytes(got, metaplastic_update(w, wq, u, grid, m_star, lr))
        plain = metaplastic_update(w, wq, u, grid, 0.0, lr)
        away = u * (w - wq) < 0.0
        assert same_bytes(got[~away], plain[~away])
        assert np.all(np.abs(got - w)[away] <= np.abs(plain - w)[away])

    @settings(max_examples=60, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           m_star=st.floats(0.0, 12.0))
    def test_plasticity_bit_equal(self, grid, seed, dtype, m_star):
        rng = np.random.default_rng(seed)
        w = hidden_weights(rng, grid, dtype, (5, 11))
        idx, wq = reference_projection(grid, w)
        got = grid.plasticity(w, m_star, idx, wq)
        assert same_bytes(got, grid.plasticity(w, m_star))
        assert np.all((got >= 0.0) & (got <= 1.0))
        if m_star == 0.0:
            assert np.all(got == 1.0)

    def test_plasticity_scalar_input(self):
        """A scalar weight, as demo 01 passes, gives the bits of a one-weight array."""
        grid = derive_grid(default_levelspec()).grid
        for w in (0.0, 0.1, -0.7, grid.hidden_hi):
            got = grid.plasticity(w, 3.0)
            assert np.ndim(got) == 0
            assert same_bytes(np.reshape(got, 1), grid.plasticity(np.array([w]), 3.0))

    def test_broadcast_direction(self):
        grid = uniform_grid(17, -1.5, 1.5)
        w = np.linspace(-1.6, 1.6, 40)
        idx, wq = reference_projection(grid, w)
        for u in (0.7, -0.7):
            assert same_bytes(metaplastic_update(w, wq, u, grid, 3.0, 0.05, idx),
                              metaplastic_update(w, wq, np.full_like(w, u), grid, 3.0, 0.05, idx))


def rebuilt_slopes(grid, level_idx, m_star, dtype):
    """(upper, negated lower) slope per weight, straight from the interval widths."""
    slope = (2.0 * m_star / grid.widths).astype(dtype)
    idx = np.asarray(level_idx)
    return (slope[np.minimum(idx, grid.n - 2)], -slope[np.maximum(idx - 1, 0)])


class TestLayerDrivenUpdate:
    """The update fed by a layer's kept state over steps that flip levels, and the
    grid's per-level slope tables that the compiled step reads through the level index."""

    @settings(max_examples=60, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           m1=st.floats(0.1, 12.0), m2=st.floats(0.1, 12.0),
           lr=st.sampled_from([1e-3, 0.05, 2.0]))
    def test_steps_bit_equal_reference(self, grid, seed, dtype, m1, m2, lr):
        rng = np.random.default_rng(seed)
        layer = DenseLayer(grid.clip_hidden(hidden_weights(rng, grid, dtype, (9, 7))), grid)
        flips = 0
        for m_star in (0.0, 0.0, m1, m1, m1, m2, m2):
            u = direction(rng, dtype, layer.shape)  # 10% zeros: the equality case
            got = metaplastic_update(layer.w_hidden, layer.w_quant, u, grid, m_star, lr,
                                     layer.level_idx)
            # the kept levels give the bits of a full re-projection
            idx, wq = reference_projection(grid, layer.w_hidden)
            want = metaplastic_update(layer.w_hidden, wq, u, grid, m_star, lr, idx)
            assert same_bytes(got, want)
            # land some weights exactly on midpoints (ties), levels and the clip ends
            ties = hidden_weights(rng, grid, dtype, layer.shape, spread=0.0)
            pick = rng.random(layer.shape) < 0.2
            got[pick] = ties[pick]
            flips += layer.set_hidden(got).size
            if not m_star:
                continue
            # the tables read through the new levels equal slopes rebuilt from them
            tables = grid.slope_tables(m_star, dtype)
            assert grid.slope_tables(m_star, dtype) is tables  # kept, not rebuilt, for one m*
            for t, b in zip(tables, rebuilt_slopes(grid, layer.level_idx, m_star, dtype)):
                a = t[layer.level_idx] if np.ndim(t) else np.broadcast_to(t, layer.shape)
                assert same_bytes(a, b)
        assert flips > 0

    def test_uniform_grid_keeps_scalar_slopes(self):
        upper, neg_lower = uniform_grid(17, -1.5, 1.5).slope_tables(3.0, np.float32)
        assert np.ndim(upper) == np.ndim(neg_lower) == 0
        assert upper == np.float32(32.0) and neg_lower == -upper  # 2 * 3 / 0.1875
        assert upper.dtype == neg_lower.dtype == np.float32

    def test_m_star_zero_step_builds_no_slopes(self, monkeypatch):
        """The m*=0 update reads no slopes, so a pretrain step builds none, and
        ``slope_tables`` refuses m*=0."""
        grid = derive_grid(default_levelspec()).grid  # unequal widths: per-level tables
        with pytest.raises(ValueError, match="m\\* = 0"):
            grid.slope_tables(0.0, np.float64)
        rng = np.random.default_rng(2)
        mlp = uniform_mlp((6, 5, 3), grid, rng)

        def refuse(grid, m_star, dtype):
            raise AssertionError(f"slope_tables({m_star}) built")

        monkeypatch.setattr(QuantGrid, "slope_tables", refuse)
        adam = Adam()
        for _ in range(3):
            harness.train_step(mlp, adam, rng.normal(size=(8, 6)), rng.integers(0, 3, 8),
                               0.0, 0.05)
        assert adam.t == 3

    def test_slopes_rebuilt_when_m_star_changes(self):
        grid = derive_grid(default_levelspec()).grid
        level_idx = grid.project_idx(np.linspace(-2, 2, 12).reshape(3, 4))
        first = grid.slope_tables(3.0, np.float64)
        second = grid.slope_tables(5.0, np.float64)
        assert second is not first
        assert grid.slope_tables(5.0, np.float64) is second
        for m_star, tables in ((3.0, first), (5.0, second)):  # the first ones unchanged
            for a, b in zip(tables, rebuilt_slopes(grid, level_idx, m_star, np.float64)):
                assert same_bytes(a[level_idx], b)

    def test_slope_tables_kept_per_dtype(self):
        """One (m*, dtype) keeps its tables while the other dtype's are made."""
        grid = derive_grid(default_levelspec()).grid
        f32 = grid.slope_tables(3.0, np.float32)
        f64 = grid.slope_tables(3.0, np.float64)
        assert [t.dtype for t in f32 + f64] == [np.float32] * 2 + [np.float64] * 2
        assert grid.slope_tables(3.0, np.float32) is f32
        assert grid.slope_tables(3.0, np.float64) is f64
        assert all(t.shape == (grid.n,) for t in f32 + f64)

    def test_slope_tables_read_only(self):
        grid = derive_grid(default_levelspec()).grid
        for table in grid.slope_tables(3.0, np.float32):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0


class TestIncrementalProjection:
    @settings(max_examples=60, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           lr=st.sampled_from([1e-3, 0.05, 2.0]))
    def test_set_hidden_equals_full_projection(self, grid, seed, dtype, lr):
        rng = np.random.default_rng(seed)
        layer = DenseLayer(grid.clip_hidden(hidden_weights(rng, grid, dtype, (8, 6))), grid)
        for _ in range(4):
            u = direction(rng, dtype, layer.shape)
            w_new = metaplastic_update(layer.w_hidden, layer.w_quant, u, grid, 3.0, lr,
                                       layer.level_idx)
            # land some weights exactly on midpoints, levels and the clip ends
            ties = hidden_weights(rng, grid, dtype, layer.shape, spread=0.0)
            pick = rng.random(layer.shape) < 0.2
            w_new[pick] = ties[pick]
            old_idx = layer.level_idx.copy()
            moved = layer.set_hidden(w_new)
            idx, wq = reference_projection(grid, w_new)
            assert same_bytes(moved, np.flatnonzero(idx != old_idx))
            assert same_bytes(layer.level_idx, idx)
            assert same_bytes(layer.w_quant, wq)
            assert layer.w_hidden is w_new

    def test_multi_level_jump(self):
        grid = uniform_grid(17, -1.5, 1.5)
        layer = DenseLayer(np.zeros((2, 2), np.float32), grid)
        layer.set_hidden(np.array([[1.5, -1.5], [0.0, 0.4]], np.float32))
        assert np.array_equal(layer.level_idx, [[16, 0], [8, 10]])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_and_leaves_layer(self, dtype, bad):
        grid = derive_grid(default_levelspec()).grid
        # weights on the bottom level, inside the grid and on the top level
        layer = DenseLayer(np.linspace(-2, 2, 12, dtype=dtype).reshape(3, 4), grid)
        assert layer.level_idx[0, 0] == 0 and layer.level_idx[2, 3] == grid.n - 1
        before = (layer.w_hidden, layer.level_idx.copy(), layer.w_quant.copy())
        for pos in ((0, 0), (1, 2), (2, 3)):
            w = layer.w_hidden.copy()
            w[pos] = bad
            with pytest.raises(FloatingPointError):
                layer.set_hidden(w)
            assert layer.w_hidden is before[0]
            assert same_bytes(layer.level_idx, before[1]) and same_bytes(layer.w_quant, before[2])

    def test_non_finite_step_raises(self):
        grid = uniform_grid(17, -1.5, 1.5)
        mlp = uniform_mlp((6, 5, 3), grid, np.random.default_rng(0), dtype=np.float32)
        x = np.ones((4, 6), np.float32)
        x[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            harness.train_step(mlp, Adam(), x, np.array([0, 1, 2, 0]), 3.0, 0.01)

    def test_shape_or_dtype_change_rejected(self):
        layer = DenseLayer(np.zeros((3, 4)), uniform_grid(5, -1, 1))
        with pytest.raises(ValueError):
            layer.set_hidden(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            layer.set_hidden(np.zeros((3, 4), np.float32))


def _write_sequence(rng, shape, n):
    k = rng.integers(-HALF_SPAN, HALF_SPAN + 1, shape)
    seq = [k]
    for _ in range(n - 1):
        k = k.copy()
        change = rng.random(shape) < rng.choice([0.0, 0.02, 0.5])
        k[change] = rng.integers(-HALF_SPAN, HALF_SPAN + 1, change.sum())
        seq.append(k)
    seq.append(np.zeros(shape, dtype=np.int64))  # back to matched LCS pairs
    return seq


def _recorded(write):
    """(write's return value, [(category, message)] of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = write()
    return result, [(w.category, str(w.message)) for w in caught]


class TestWriteOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           reads=st.lists(st.sampled_from(["none", "decode", "reload"]), min_size=6, max_size=6))
    def test_write_levels_bit_equal(self, seed, dtype, reads):
        rng = np.random.default_rng(seed)
        dgrid = device_grid(rng)
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        # every pair, the changed pairs only, and the full-matrix oracle
        ours, sparse, ref = (CrossbarTile(*shape, dgrid, np.random.default_rng(seed), dtype=dtype)
                             for _ in range(3))
        previous = None
        for k, read in zip(_write_sequence(rng, shape, 5), reads):
            for tile in (ours, sparse):
                if read == "decode":    # a cached decode must be patched, not left stale
                    tile.effective_weights()
                elif read == "reload":  # a restored tile drops its cached decode
                    tile.load_state_dict(tile.state_dict())
            want = reference_write_levels(ref, k)
            assert ours.write_levels(k) == want
            if previous is None:  # pristine: every pair changes
                assert sparse.write_levels(k) == want
            else:
                where = np.flatnonzero(k != previous)
                assert sparse.write_levels(k.reshape(-1)[where], where=where) == want
            previous = k
            for tile in (ours, sparse):
                for side in ("plus", "minus"):
                    a, b = getattr(tile, side), getattr(ref, side)
                    assert same_bytes(a.g, b.g) and same_bytes(a.level, b.level)
                    assert same_bytes(a.ops, b.ops)
                assert tile.rng.bit_generator.state == ref.rng.bit_generator.state
                assert same_bytes(tile.effective_weights(), reference_decode(tile))
                assert same_bytes(tile.effective_weights(), ref.effective_weights())

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_encode_levels_bit_equal(self, dtype):
        k = np.arange(-HALF_SPAN, HALF_SPAN + 1, dtype=dtype)
        for levels in (k, k.reshape(1, -1)[:, ::-1], k[3]):
            for a, b in zip(encode_levels(levels), reference_encode_levels(levels)):
                assert same_bytes(a, b)
        ku = np.arange(HALF_SPAN + 1, dtype=np.uint8)  # no sign: minus cells stay in LCS
        for a, b in zip(encode_levels(ku), reference_encode_levels(ku)):
            assert same_bytes(a, b)

    def test_out_of_range_level_rejected_after_first_write(self):
        tile = CrossbarTile(2, 2, derive_grid(default_levelspec()), np.random.default_rng(0))
        tile.write_levels(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            tile.write_levels(np.array([[0, 9], [0, 0]]))
        assert tile.write_levels(np.zeros((2, 2), dtype=int)) == 0

    def test_effective_weights_read_only_and_patched(self):
        tile = CrossbarTile(3, 4, derive_grid(default_levelspec()), np.random.default_rng(0))
        tile.write_levels(np.full((3, 4), 2))
        w = tile.effective_weights()
        snapshot = w.copy()
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        k = np.full((3, 4), 2)
        k[1, 1] = -5
        tile.write_levels(k)
        assert same_bytes(tile.effective_weights(), reference_decode(tile))
        assert w[1, 1] == tile.effective_weights()[1, 1] != snapshot[1, 1]  # a view of the cache
        assert np.array_equal(np.delete(w.ravel(), 5), np.delete(snapshot.ravel(), 5))

    def test_program_indices_equal_mask(self):
        spec = default_levelspec()
        rng = np.random.default_rng(5)
        mask = rng.random((6, 7)) < 0.4
        targets = rng.integers(0, N_LEVELS, (6, 7))
        a, b = CellArray((6, 7), spec), CellArray((6, 7), spec)
        ra, rb = np.random.default_rng(1), np.random.default_rng(1)
        for cells, r in ((a, ra), (b, rb)):
            cells.program(np.zeros((6, 7), dtype=int), r)
        n_mask = reference_program(a, targets, ra, where=mask)
        n_idx = b.program(targets[mask], rb, where=np.flatnonzero(mask))
        assert n_mask == n_idx == mask.sum()
        assert same_bytes(a.g, b.g) and same_bytes(a.level, b.level) and same_bytes(a.ops, b.ops)
        assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("where", [
        np.eye(3, dtype=int),            # a 0/1 int mask is not read as a mask
        np.array([0, 4, 2]),             # descending
        np.array([1, 1]),                # repeated
        np.array([-1, 0]),               # negative indices do not wrap
        np.array([8, 9]),                # past the end
    ])
    def test_program_rejects_bad_indices(self, where):
        cells = CellArray((3, 3), default_levelspec())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            cells.program(3, rng, where=where)
        assert (cells.level == -1).all() and not cells.ops.any()
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("where, error", [
        (np.array([0, 4, 2]), ValueError),        # descending
        (np.array([1, 1]), ValueError),           # repeated
        (np.array([-1, 0]), ValueError),          # negative indices do not wrap
        (np.array([8, 9]), ValueError),           # past the end
        (np.eye(3, dtype=bool), TypeError),       # a boolean mask is not a selection mode
    ])
    def test_write_levels_rejects_bad_where(self, where, error):
        tile = CrossbarTile(3, 3, derive_grid(default_levelspec()), np.random.default_rng(0))
        tile.write_levels(np.zeros((3, 3), dtype=int))
        before = {k: v.copy() for k, v in tile.state_dict().items()}, tile.rng.bit_generator.state
        with pytest.raises(error):
            tile.plus.program(3, np.random.default_rng(0), where=where)
        with pytest.raises(error):
            tile.write_levels(5, where=where)
        assert all(same_bytes(v, before[0][k]) for k, v in tile.state_dict().items())
        assert tile.rng.bit_generator.state == before[1]

    def test_program_rejects_non_integer_where(self):
        cells = CellArray((2, 2), default_levelspec())
        with pytest.raises(TypeError):
            cells.program(3, np.random.default_rng(0), where=np.ones((2, 2)))
        # a boolean mask is not a selection mode either
        with pytest.raises(TypeError):
            cells.program(3, np.random.default_rng(0), where=np.eye(2, dtype=bool))
        assert (cells.level == -1).all() and not cells.ops.any()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("spec_name", ["sigma 8%", "zero sigma", "LCS mean 0"])
    def test_wide_tile_bit_equal(self, spec_name, dtype):
        # 257x131 pairs: a whole first write, a whole rewrite that changes 2%
        # of the pairs, one that changes half and a return to matched LCS.
        # With an endurance of 2, cells changed by the last two writes cross
        # the budget.
        means = default_levelspec().means
        spec = {"sigma 8%": default_levelspec(),
                "zero sigma": default_levelspec(sigma_frac=0.0),
                "LCS mean 0": LevelSpec(np.concatenate(([0.0], means[1:])), 0.08 * means),
                }[spec_name]
        dgrid = derive_grid(spec)
        shape = (257, 131)
        rng = np.random.default_rng(31)
        seq = [rng.integers(-HALF_SPAN, HALF_SPAN + 1, shape)]
        for frac in (0.02, 0.5):
            k = seq[-1].copy()
            change = rng.random(shape) < frac
            k[change] = rng.integers(-HALF_SPAN, HALF_SPAN + 1, change.sum())
            seq.append(k)
        seq.append(np.zeros(shape, dtype=np.int64))
        whole, sparse, ref = (CrossbarTile(*shape, dgrid, np.random.default_rng(5),
                                           endurance=2, dtype=dtype) for _ in range(3))
        previous = np.full(shape, HALF_SPAN + 1)  # pristine: every pair is visited
        crossings = 0
        for k in seq:
            where = np.flatnonzero(k != previous)
            want = _recorded(lambda: reference_write_levels(ref, k))
            assert _recorded(lambda: whole.write_levels(k)) == want
            assert _recorded(lambda: sparse.write_levels(k.reshape(-1)[where], where=where)) == want
            crossings += len(want[1])
            previous = k
            for tile in (whole, sparse):
                for side in ("plus", "minus"):
                    a, b = getattr(tile, side), getattr(ref, side)
                    assert same_bytes(a.g, b.g) and same_bytes(a.level, b.level)
                    assert same_bytes(a.ops, b.ops)
                assert tile.rng.bit_generator.state == ref.rng.bit_generator.state
                assert same_bytes(tile.effective_weights(), reference_decode(tile))
                assert same_bytes(tile.effective_weights(), ref.effective_weights())
        assert crossings > 0

    def test_whole_write_programs_every_cell_without_indices(self, monkeypatch):
        seen = []
        program = CellArray.program

        def spy(cells, targets, rng, where=None):
            seen.append(where if where is None else len(where))
            return program(cells, targets, rng, where=where)

        monkeypatch.setattr(CellArray, "program", spy)
        tile = CrossbarTile(4, 5, derive_grid(default_levelspec()), np.random.default_rng(0))
        k = np.full((4, 5), 3)
        tile.write_levels(k)  # pristine: every cell changes
        k[1, 2] = 4           # one plus cell changes, no minus cell
        tile.write_levels(k)
        assert seen == [None, None, 1, 0]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_pristine_tile_decodes_to_positive_zero(self, dtype):
        tile = CrossbarTile(5, 7, derive_grid(default_levelspec()), np.random.default_rng(0),
                            dtype=dtype)
        assert same_bytes(tile.effective_weights(), reference_decode(tile))
        assert not np.signbit(tile.effective_weights()).any()

    @pytest.mark.parametrize("where", [[], (), np.array([], dtype=np.intp)])
    def test_write_levels_empty_where_is_free(self, where):
        tile = CrossbarTile(3, 3, derive_grid(default_levelspec()), np.random.default_rng(0))
        tile.write_levels(np.zeros((3, 3), dtype=int))
        before = {k: v.copy() for k, v in tile.state_dict().items()}, tile.rng.bit_generator.state
        assert tile.write_levels(5, where=where) == 0
        assert tile.write_levels([], where=where) == 0
        assert all(same_bytes(v, before[0][k]) for k, v in tile.state_dict().items())
        assert tile.rng.bit_generator.state == before[1]

    def test_dump_tiles_tsv_bytes(self, tmp_path):
        tiles = [CrossbarTile(5, 3, derive_grid(default_levelspec()), np.random.default_rng(i))
                 for i in range(2)]
        for i, tile in enumerate(tiles):
            tile.write_levels(np.random.default_rng(10 + i).integers(-8, 9, (5, 3)))
        dump_tiles_tsv(tmp_path / "a.tsv", tiles)
        reference_dump_tiles_tsv(tmp_path / "b.tsv", tiles)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def _dump_tile(rows, cols, seed=0):
    return CrossbarTile(rows, cols, derive_grid(default_levelspec()), np.random.default_rng(seed))


def _install_cells(tile, side, **arrays):
    # set directly: the dump writes whatever cells hold, and load_state_dict
    # refuses the negative op counts and conductances these tests write
    cells = getattr(tile, side)
    for name, a in arrays.items():
        setattr(cells, name, np.array(a, dtype=getattr(cells, name).dtype))


class TestDumpOracle:
    """dump_tiles_tsv's byte blocks against the row-by-row reference writer.

    Small blocks put block edges mid-row and at the ends of a tile side.
    """

    @staticmethod
    def assert_same_dump(out_dir, tiles):
        dump_tiles_tsv(out_dir / "a.tsv", tiles)
        reference_dump_tiles_tsv(out_dir / "b.tsv", tiles)
        assert (out_dir / "a.tsv").read_bytes() == (out_dir / "b.tsv").read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (11, 13), (0, 3), (3, 0)])
    @pytest.mark.parametrize("block", [1, 5, 7, xbar.DUMP_BLOCK])
    def test_shapes_and_pristine_cells(self, tmp_path, monkeypatch, shape, block):
        monkeypatch.setattr(xbar, "DUMP_BLOCK", block)
        pristine = _dump_tile(*shape)  # level -1, g 0.0, ops 0
        written = _dump_tile(*shape, seed=1)
        written.write_levels(np.random.default_rng(2).integers(-8, 9, shape))
        self.assert_same_dump(tmp_path, [pristine, written])
        text = (tmp_path / "a.tsv").read_text()
        assert ("\t-1\t0.000000\t0\n" in text) == (0 not in shape)

    def test_op_counts_of_one_to_six_digits(self, tmp_path, monkeypatch):
        monkeypatch.setattr(xbar, "DUMP_BLOCK", 5)
        ops = np.array([0, 1, 9, 10, 99, 100, 999, 1000, 12345, 99999, 100000, 999999])
        tile = _dump_tile(3, 4)
        _install_cells(tile, "plus", ops=ops.reshape(3, 4))
        _install_cells(tile, "minus", ops=ops[::-1].reshape(3, 4))
        self.assert_same_dump(tmp_path, [tile])

    def test_conductance_ties_large_and_special(self, tmp_path, monkeypatch):
        monkeypatch.setattr(xbar, "DUMP_BLOCK", 6)
        g = np.array([j / 128 for j in range(1, 14)]  # odd j: exact half-micro ties
                     + [0.5e-6, 1.5e-6, 2.5e-6, 0.1 + 0.2, 5e-324, 999.9999995, 1000.0,
                        123456.7890125, 999999.9999995, 1e6, 1e9, 2.0 ** 60, 1e300,
                        9895339157.092323,  # rint(fl(g * 1e6)) is not .6f's digits
                        -0.0, -3.25, np.nan, np.inf, -np.inf])
        tile = _dump_tile(1, g.size)
        _install_cells(tile, "plus", g=g[None, :])
        _install_cells(tile, "minus", g=-g[::-1][None, :])
        self.assert_same_dump(tmp_path, [tile])
        text = (tmp_path / "a.tsv").read_text()
        assert "\t0.007812\t" in text and "\t-0.000000\t" in text and "\tnan\t" in text

    def test_names(self, tmp_path, monkeypatch):
        monkeypatch.setattr(xbar, "DUMP_BLOCK", 4)
        tiles = [_dump_tile(3, 2, seed=i) for i in range(3)]
        for i, tile in enumerate(tiles):
            tile.write_levels(np.random.default_rng(10 + i).integers(-8, 9, (3, 2)))
        self.assert_same_dump(tmp_path, tiles)
        names = [line.split("\t")[0] for line in (tmp_path / "a.tsv").read_text().splitlines()]
        assert names == ["layer"] + [f"layer{i}" for i in range(3) for _ in range(12)]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), block=st.integers(1, 9),
           data=st.data())
    def test_random_cells(self, tmp_path_factory, rows, cols, block, data):
        n = rows * cols
        g = st.one_of(st.floats(0, 200), st.integers(0, 2 ** 17).map(lambda j: j / 128),
                      st.floats(allow_nan=True, allow_infinity=True))
        ops = st.one_of(st.integers(0, 10 ** 6), st.integers(-2 ** 63, 2 ** 63 - 1))
        cells = {"level": st.integers(-128, 127), "g": g, "ops": ops}
        tile = _dump_tile(rows, cols)
        for side in ("plus", "minus"):
            _install_cells(tile, side, **{
                name: np.array(data.draw(st.lists(s, min_size=n, max_size=n))).reshape(rows, cols)
                for name, s in cells.items()})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xbar, "DUMP_BLOCK", block)
            self.assert_same_dump(tmp_path_factory.mktemp("dump"), [tile])


class TestAdamOracle:
    """``Adam.directions`` is the Adam rule's one copy (``TestCompiledStep``
    compares the compiled step's moments with it), so this checks it against
    the textbook recurrence: each step's slots and directions from the last
    step's slots, and every direction a new array."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_directions_bit_equal_and_fresh(self, dtype):
        rng = np.random.default_rng(3)
        adam = Adam()
        b1, b2, eps = adam.beta1, adam.beta2, adam.eps
        previous = []
        for t in range(1, 7):
            grads = {"w": rng.normal(size=(7, 5)).astype(dtype),
                     "b": rng.normal(size=5).astype(dtype)}
            last = {name: [a.copy() for a in adam.slots.get(name, (np.zeros_like(g),) * 2)]
                    for name, g in grads.items()}
            got = adam.directions({k: v.copy() for k, v in grads.items()})
            assert adam.t == t
            for name, g in grads.items():
                m = b1 * last[name][0] + (1.0 - b1) * g
                v = b2 * last[name][1] + (1.0 - b2) * (g * g)
                want = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
                assert same_bytes(got[name], want)
                assert all(same_bytes(a, b) for a, b in zip(adam.slots[name], (m, v)))
                for other in [*adam.slots[name], *previous]:
                    assert not np.shares_memory(got[name], other)
            previous = list(got.values())


ODD_WIDTHS = (1, 3, 7, 17, 33)  # no multiple of a SIMD width: the loops' scalar tails run


def plant_specials(rng, bn, frac):
    """Set some features' BN parameters or running stats so that their output
    holds -0.0, NaN, +-inf or subnormals, in train or eval mode."""
    tiny = np.finfo(bn.gamma.dtype).smallest_subnormal
    for j in np.flatnonzero(rng.random(bn.gamma.size) < frac):
        kind = rng.integers(8)
        if kind == 0:    # -0.0 where xhat > 0
            bn.gamma[j] = bn.beta[j] = -0.0
        elif kind == 1:  # -0.0 where xhat < 0: in eval mode, every row
            bn.gamma[j], bn.beta[j], bn.running_mean[j] = 0.0, -0.0, 1e30
        elif kind in (2, 3, 4):
            bn.beta[j] = (np.nan, np.inf, -np.inf)[kind - 2]
        elif kind == 5:  # +-subnormal products
            bn.gamma[j], bn.beta[j] = tiny * rng.integers(1, 6), 0.0
        elif kind == 6:
            bn.gamma[j], bn.beta[j] = 0.0, tiny * rng.choice([-1, 1])
        else:            # NaN in eval mode
            bn.running_mean[j] = np.nan


def compare_forward(mlp, x, train, taped):
    """Run the shipped and the reference forward from the same BN state; compare bytes."""
    state, x_before = mlp.bn_state(), x.copy()
    tapes = (ForwardTape(), ForwardTape()) if taped else (None, None)
    with np.errstate(all="ignore"):  # the planted NaN and inf
        got = mlp.forward(x, train, tapes[0])
        got_state = mlp.bn_state()
        mlp.set_bn_state(state)
        want = reference_forward(mlp, x, train, tapes[1])
    assert same_bytes(got, want)
    assert same_bytes(x, x_before)
    for a, b in zip(got_state, mlp.bn_state()):
        assert all(same_bytes(u, v) for u, v in zip(a, b))
    if taped:
        ours, ref = tapes
        assert len(ours.inputs) == len(ref.inputs)
        assert all(same_bytes(u, v) for u, v in zip(ours.inputs, ref.inputs))
        assert len(ours.bn_caches) == len(ref.bn_caches)
        for a, b in zip(ours.bn_caches, ref.bn_caches):
            assert (a is None) == (b is None) == (not train)
            assert a is None or all(same_bytes(u, v) for u, v in zip(a, b))


def compare_backward(mlp, x, labels):
    """Shipped and reference loss and gradients from the same BN state; compare bytes."""
    state = mlp.bn_state()
    with np.errstate(all="ignore"):
        loss, grads, _ = mlp.loss_grads(x, labels)
        mlp.set_bn_state(state)
        want_loss, want = reference_loss_grads(mlp, x, labels)
    assert same_bytes(loss, want_loss)
    assert list(grads) == list(want)  # the same keys, in the same order
    assert all(same_bytes(grads[k], want[k]) for k in want)


class TestForwardOracle:
    @settings(max_examples=80, deadline=None)
    @given(dims=st.lists(st.sampled_from(ODD_WIDTHS), min_size=3, max_size=4),
           batch=st.sampled_from(ODD_WIDTHS), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from(DTYPES), train=st.booleans(), taped=st.booleans(),
           frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_forward_bit_equal(self, dims, batch, seed, dtype, train, taped, frac):
        rng = np.random.default_rng(seed)
        mlp = uniform_mlp(dims, uniform_grid(17, -1.5, 1.5), rng, dtype=dtype)
        for layer in mlp.layers[:-1]:
            bn = layer.bn
            bn.gamma[:] = rng.uniform(0.5, 1.5, bn.gamma.size)
            bn.beta[:] = rng.normal(0.0, 0.5, bn.beta.size)
            bn.running_mean[:] = rng.normal(0.0, 1.0, bn.gamma.size)
            bn.running_var[:] = rng.uniform(0.5, 4.0, bn.gamma.size)
            plant_specials(rng, bn, frac)
        x = rng.normal(size=(batch, dims[0])).astype(dtype)
        compare_forward(mlp, x, train, taped)
        # eval-mode batch norm on its own: a new output, the input left as it was
        layer = mlp.layers[0]
        z = layer.matmul_forward(x)
        z_before = z.copy()
        with np.errstate(all="ignore"):
            y, cache = layer.bn.forward(z, False)
            want = reference_bn_forward(layer.bn, z_before)
        assert cache is None and same_bytes(z, z_before)
        assert not np.shares_memory(y, z)
        assert same_bytes(y, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("planted", [-0.0, np.nan])
    def test_relu_of_negative_zero_and_nan(self, dtype, train, planted):
        """Every hidden BN output +-0.0 (-0.0 throughout in eval mode) or NaN: the ReLU
        gives +0.0."""
        for width in ODD_WIDTHS:
            mlp = uniform_mlp((5, width, width, 3), uniform_grid(17, -1.5, 1.5),
                              np.random.default_rng(width), dtype=dtype)
            for bn in mlp._bns():
                if np.isnan(planted):
                    bn.beta[:] = np.nan
                else:
                    bn.gamma[:], bn.beta[:], bn.running_mean[:] = 0.0, -0.0, 1e30
            x = np.random.default_rng(0).normal(size=(width, 5)).astype(dtype)
            tape = ForwardTape()
            with np.errstate(invalid="ignore"):
                mlp.forward(x, train, tape)
            for relu_out in tape.inputs[1:]:
                assert not np.signbit(relu_out).any()
            compare_forward(mlp, x, train, taped=True)
            if train:
                compare_backward(mlp, x, np.arange(width) % 3)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.sampled_from(ODD_WIDTHS), min_size=3, max_size=4),
           batch=st.sampled_from(ODD_WIDTHS), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from(DTYPES), frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_backward_gate_bit_equal(self, dims, batch, seed, dtype, frac):
        """Backward gates each hidden layer on the taped ReLU output, as the reference
        gates on ``zb > 0``: BN outputs with -0.0, NaN, +-inf and subnormals planted."""
        rng = np.random.default_rng(seed)
        mlp = uniform_mlp(dims, uniform_grid(17, -1.5, 1.5), rng, dtype=dtype)
        for bn in mlp._bns():
            bn.gamma[:] = rng.uniform(0.5, 1.5, bn.gamma.size)
            bn.beta[:] = rng.normal(0.0, 0.5, bn.beta.size)
            plant_specials(rng, bn, frac)
        x = rng.normal(size=(batch, dims[0])).astype(dtype)
        compare_backward(mlp, x, rng.integers(0, dims[-1], batch))


# -- the compiled step against the plain rule -------------------------------------


@pytest.fixture(scope="module")
def step_lib():
    lib = optim._step_library()
    if lib is None:
        pytest.skip("no C compiler: the numpy path is the only step")
    return lib


def numpy_step(layer, adam, g, m_star, lr):
    u = adam.directions({"w": g})["w"]
    return layer.set_hidden(metaplastic_update(layer.w_hidden, layer.w_quant, u, layer.grid,
                                               m_star, lr, layer.level_idx))


def compiled_step(lib, layer, adam, g, m_star, lr):
    adam._slots({"w": g})
    adam.directions({})  # counts the step, as train_step's batch-norm call does
    return optim._fused_update(lib, layer, adam, "w", g, m_star, lr)


def outcome(step, *args):
    """The moved indices (as bytes), or the type of the error raised."""
    try:
        with np.errstate(all="ignore"):  # NaN and inf gradients
            return np.asarray(step(*args)).tobytes()
    except (FloatingPointError, ConfigError) as e:
        return type(e)


def assert_same_levels(a, b):
    """Layers ``a`` and ``b`` hold the same weights and level state."""
    for attr in ("w_hidden", "w_quant", "level_idx"):
        assert same_bytes(getattr(a, attr), getattr(b, attr)), attr
    for x, y in zip(a._bounds, b._bounds):
        assert same_bytes(x, y)


def assert_same_state(a, b, adam_a, adam_b):
    """Layer ``a`` stepped compiled and ``b`` by the plain rule hold the same state."""
    assert_same_levels(a, b)
    assert adam_a.t == adam_b.t
    for x, y in zip(adam_a.slots["w"], adam_b.slots["w"]):
        assert same_bytes(x, y)


def gradient(rng, dtype, shape, specials):
    g = (rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 1)).astype(dtype)
    if specials:
        pick = rng.random(shape) < 0.02
        g[pick] = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.0], dtype=dtype), pick.sum())
    return g


def twin_layers(grid, w):
    return DenseLayer(w.copy(), grid), DenseLayer(w.copy(), grid)


class TestCompiledStep:
    """``optim._fused_update`` against Adam.directions + metaplastic_update + set_hidden."""

    @settings(max_examples=150, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           shape=st.sampled_from([(0,), (0, 4), (1,), (1, 1), (7, 13), (65, 3), (3, 130)]),
           m_stars=st.lists(st.sampled_from([0.0, 0.3, 1.0, 3.0, 10.0]), min_size=1,
                            max_size=3),
           lr=st.sampled_from([0.0, 1e-3, 0.05, 2.0]), specials=st.booleans())
    def test_steps_bit_equal_numpy_path(self, step_lib, grid, seed, dtype, shape, m_stars, lr,
                                        specials):
        rng = np.random.default_rng(seed)
        ours, theirs = twin_layers(grid, grid.clip_hidden(hidden_weights(rng, grid, dtype, shape)))
        adam_ours, adam_theirs = Adam(), Adam()
        for m_star in m_stars:
            g = gradient(rng, dtype, shape, specials)
            got = outcome(compiled_step, step_lib, ours, adam_ours, g, m_star, lr)
            want = outcome(numpy_step, theirs, adam_theirs, g, m_star, lr)
            assert got == want
            assert_same_state(ours, theirs, adam_ours, adam_theirs)
            if not isinstance(want, bytes):
                break

    def test_non_finite_weight_raises_and_leaves_layer(self, step_lib):
        grid = uniform_grid(17, -1.5, 1.5)
        for dtype in DTYPES:
            for m_star in (0.0, 3.0):
                layer = DenseLayer(np.linspace(-1.6, 1.6, 12, dtype=dtype).reshape(3, 4), grid)
                before = [a.copy() for a in (layer.w_hidden, layer.w_quant, layer.level_idx)]
                g = np.ones((3, 4), dtype=dtype)
                g[1, 2] = np.nan
                with pytest.raises(FloatingPointError):
                    compiled_step(step_lib, layer, Adam(), g, m_star, 0.05)
                after = (layer.w_hidden, layer.w_quant, layer.level_idx)
                assert all(same_bytes(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("path", ["c", "numpy"])
    def test_zero_plasticity_takes_no_away_step(self, step_lib, path):
        """In float32 a weight 0.001 above a level has plasticity exactly 0 at m*=11,
        so an away step leaves it where it is, on either path."""
        grid = uniform_grid(17, -1.5, 1.5)
        w = np.full((2, 3), np.float32(grid.levels[9]) + np.float32(0.001))
        assert np.all(grid.plasticity(w, 10.0) > 0.0)
        assert same_bytes(grid.plasticity(w, 11.0), np.zeros(w.shape, np.float32))
        layer = DenseLayer(w.copy(), grid)
        g = np.full(w.shape, -1.0, np.float32)  # u < 0: the step w - lr * u leads away
        step = compiled_step if path == "c" else lambda lib, *args: numpy_step(*args)
        for _ in range(3):
            assert step(step_lib, layer, Adam(), g, 11.0, 0.05).size == 0
            assert same_bytes(layer.w_hidden, w)
        # the plain step moves it away
        assert np.all(metaplastic_update(w, layer.w_quant, -np.ones_like(w), grid, 0.0, 0.05,
                                         layer.level_idx) > w)

    def test_steps_across_m_star_changes(self, step_lib):
        """The grid's slope tables are built for the first m*, read through the levels
        each flip changes, and rebuilt for a new m*, also after an m*=0 phase."""
        rng = np.random.default_rng(5)
        for grid in (derive_grid(default_levelspec()).grid, uniform_grid(9, -1.0, 1.0)):
            for dtype in DTYPES:
                ours, theirs = twin_layers(grid, grid.clip_hidden(
                    hidden_weights(rng, grid, dtype, (40, 30))))
                adam_ours, adam_theirs = Adam(), Adam()
                flips = 0
                for m_star in (0.0, 0.0, 3.0, 3.0, 3.0, 5.0, 5.0, 0.0, 2.0, 2.0):
                    g = gradient(rng, dtype, ours.shape, False)
                    moved = compiled_step(step_lib, ours, adam_ours, g, m_star, 0.05)
                    assert same_bytes(moved, numpy_step(theirs, adam_theirs, g, m_star, 0.05))
                    assert_same_state(ours, theirs, adam_ours, adam_theirs)
                    if m_star:
                        assert grid._slope_kept[np.dtype(dtype)][0] == m_star
                    flips += moved.size
                assert flips > 0

    def test_handed_weights_never_written(self, step_lib):
        grid = uniform_grid(17, -1.5, 1.5)
        w = np.linspace(-1.6, 1.6, 60).reshape(6, 10)
        kept = w.copy()
        layer, adam = DenseLayer(w, grid), Adam()
        seen = []
        for step in range(4):
            compiled_step(step_lib, layer, adam, np.full((6, 10), 0.1), 3.0, 0.05)
            seen.append(layer.w_hidden)
        assert same_bytes(w, kept)
        assert seen[0] is not seen[1] and seen[2] is seen[0]  # two buffers, swapped

    @pytest.mark.parametrize("setup", ["fortran", "sliced", "set_hidden_fortran",
                                       "adam_fortran"])
    def test_layers_c_contiguous_from_first_step(self, step_lib, monkeypatch, setup):
        """A Fortran-ordered or sliced first layer, a Fortran array given to
        ``set_hidden`` and Fortran moments given to ``Adam.load_state_dict`` each
        leave C-contiguous state, so the compiled step takes every layer from the
        first step, with the bits of the plain rule."""
        grid = uniform_grid(17, -1.5, 1.5)
        rng = np.random.default_rng(8)
        hidden = [init_hidden_uniform(s, grid, rng) for s in ((6, 5), (5, 3))]
        moments = {f"{k}.w{i}": np.asfortranarray(np.abs(rng.normal(size=w.shape)) * 1e-3)
                   for i, w in enumerate(hidden) for k in ("m", "v")}

        def run():
            first = {"fortran": np.asfortranarray, "set_hidden_fortran": np.copy,
                     "sliced": lambda w: np.repeat(w, 2, axis=1)[:, ::2],
                     "adam_fortran": np.copy}[setup](hidden[0])
            kept = first.copy()
            mlp, adam = MLP([first, hidden[1]], grid), Adam()
            if setup == "set_hidden_fortran":
                mlp.layers[0].set_hidden(np.asfortranarray(hidden[0] + 0.01))
            if setup == "adam_fortran":
                adam.load_state_dict({"t": np.asarray(3), **moments},
                                     {name[2:]: a.shape for name, a in moments.items()})
                assert all(a.flags.c_contiguous for pair in adam.slots.values() for a in pair)
            for layer in mlp.layers:
                assert all(a.flags.c_contiguous for a in (layer.w_hidden, layer.w_quant,
                                                          layer.level_idx, *layer._bounds))
            data = np.random.default_rng(9)
            for m_star in (0.0, 3.0, 3.0):
                harness.train_step(mlp, adam, data.normal(size=(8, 6)), data.integers(0, 3, 8),
                                   m_star, 0.05)
            assert same_bytes(first, kept)  # the handed array is never written
            return mlp, adam

        fused = []
        real = optim._fused_update
        monkeypatch.setattr(optim, "_fused_update",
                            lambda lib, layer, *a: fused.append(layer) or real(lib, layer, *a))
        mlp, adam = run()
        assert fused == mlp.layers * 3
        monkeypatch.setattr(optim, "_step_library", lambda: None)
        plain, plain_adam = run()
        assert len(fused) == 6  # the plain run took no compiled step
        for a, b in zip(mlp.layers, plain.layers):
            assert same_bytes(a.w_hidden, b.w_hidden) and same_bytes(a.level_idx, b.level_idx)
        state, plain_state = adam.state_dict(), plain_adam.state_dict()
        assert list(state) == list(plain_state)
        assert all(same_bytes(state[k], plain_state[k]) for k in state)

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.int64])
    def test_layer_dtype_refused(self, dtype):
        """The compiled step has float32 and float64 loops only, so no layer holds another."""
        with pytest.raises(ValueError, match="float32 or float64"):
            DenseLayer(np.zeros((3, 4), dtype), uniform_grid(17, -1.5, 1.5))
        with pytest.raises(ValueError, match="float32 or float64"):
            MLP([np.zeros((3, 4), dtype), np.zeros((4, 2), dtype)], uniform_grid(17, -1.5, 1.5))

    def test_mlp_mixed_dtypes_refused(self):
        grid = uniform_grid(17, -1.5, 1.5)
        for dtypes in ((np.float32, np.float64), (np.float64, np.float32)):
            with pytest.raises(ValueError, match="one dtype"):
                MLP([np.zeros((6, 5), dtypes[0]), np.zeros((5, 3), dtypes[1])], grid)

    @pytest.mark.parametrize("path", ["c", "numpy"])
    def test_adam_slot_of_another_dtype_refused(self, monkeypatch, path):
        """The compiled step reads a slot in its layer's dtype: a loaded float32 slot
        for a float64 layer is refused, on either path, before any state changes."""
        if path == "numpy":
            monkeypatch.setattr(optim, "_step_library", lambda: None)
        mlp = uniform_mlp((6, 5, 3), uniform_grid(17, -1.5, 1.5), np.random.default_rng(1))
        adam = Adam()
        adam.load_state_dict({"t": np.asarray(2), "m.w0": np.zeros((6, 5), np.float32),
                              "v.w0": np.zeros((6, 5), np.float32)}, {"w0": (6, 5)})
        before = [layer.w_hidden.copy() for layer in mlp.layers]
        with pytest.raises(ValueError, match="'w0'"):
            harness.train_step(mlp, adam, np.ones((4, 6)), np.arange(4) % 3, 3.0, 0.05)
        assert adam.t == 2 and list(adam.slots) == ["w0"]
        assert all(same_bytes(l.w_hidden, w) for l, w in zip(mlp.layers, before))

    @pytest.mark.parametrize("path", ["c", "numpy"])
    def test_tile_of_another_dtype_refused(self, monkeypatch, path):
        """A float64 tile on a float32 net makes float64 gradients for float32
        weights: either path refuses them, the compiled one before any pointer."""
        if path == "numpy":
            monkeypatch.setattr(optim, "_step_library", lambda: None)
        dgrid = derive_grid(default_levelspec())
        mlp = uniform_mlp((6, 5, 3), dgrid.grid, np.random.default_rng(1), dtype=np.float32)
        mlp.layers[1].tile = CrossbarTile(5, 3, dgrid, np.random.default_rng(0))  # float64
        before = mlp.layers[0].w_hidden.copy()
        with pytest.raises(ValueError, match="float64.* float32"):
            harness.train_step(mlp, Adam(), np.ones((4, 6), np.float32), np.arange(4) % 3,
                               3.0, 0.05, dgrid)
        assert same_bytes(mlp.layers[0].w_hidden, before)

    def test_slots_keep_their_order(self, step_lib):
        """The checkpoint lists Adam's slots in the order the numpy path made them."""
        grid = uniform_grid(17, -1.5, 1.5)
        mlp = uniform_mlp((6, 5, 4, 3), grid, np.random.default_rng(1), dtype=np.float32)
        adam = Adam()
        harness.train_step(mlp, adam, np.ones((4, 6), np.float32), np.arange(4) % 3, 3.0, 0.05)
        assert list(adam.slots) == ["w2", "bn1.gamma", "bn1.beta", "w1", "bn0.gamma",
                                    "bn0.beta", "w0"]

    def test_setup_builds_and_loads_nothing(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("set-up started a process or loaded a library")

        monkeypatch.setattr(optim, "_lib", None)
        monkeypatch.setattr(subprocess, "run", refuse)
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        for mode, dtype in (("exact", "float32"), ("crossbar", "float64")):
            cfg = _config(tmp_path, tmp_path, mode, dtype).validate()
            rngs = [np.random.default_rng(s) for s in (1, 2)]
            mlp, _, _ = harness.build_model(cfg, *rngs)
            DenseLayer(mlp.layers[0].w_hidden, mlp.grid)
            Adam()
            assert all(layer._work is None for layer in mlp.layers)
        assert optim._lib is None

    def test_failed_build_warns_once_and_runs_numpy(self, monkeypatch):
        monkeypatch.setattr(optim, "_lib", None)
        false = shutil.which("false")  # runs, and exits 1 like a failed compile
        monkeypatch.setattr(shutil, "which", lambda name: false)
        with pytest.warns(RuntimeWarning, match="did not build"):
            assert optim._step_library() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optim._step_library() is None


class TestCompiledRelevel:
    """The re-projection at the end of the library's ``step2`` against ``set_hidden``."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["uniform", "device", "explicit-80"]),
           seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
    def test_bit_equal_relevel(self, step_lib, kind, seed, dtype, bad):
        """With ``t = 0`` and ``out = 0`` the new weights are the planted ones, clipped."""
        rng = np.random.default_rng(seed)
        grid = {"uniform": lambda: uniform_grid(17, -1.5, 1.5),
                "device": lambda: device_grid(rng).grid,
                "explicit-80": lambda: QuantGrid(EXPLICIT_80)}[kind]()
        ours, theirs = twin_layers(grid, grid.clip_hidden(
            hidden_weights(rng, grid, dtype, (9, 13))))
        work = ours._work = optim._Work(step_lib, ours.w_hidden)
        work.k[:] = 0.0
        work.k[-2:] = grid.hidden_lo, grid.hidden_hi  # K_LO, K_HI: the clip ends
        zero = np.zeros_like(ours.w_hidden)
        for step in range(3):
            # weights beyond the clip ends, on midpoints, levels and the clip ends
            w = hidden_weights(rng, grid, dtype, ours.shape, spread=0.5)
            if bad is not None and step == 2:
                w.flat[rng.integers(w.size)] = bad
            new = 1 if ours.w_hidden is work.pair[0] else 0
            work.pair[new][...] = 0.0
            before = ours.w_hidden

            def library_step():
                count = work.step2(w.size, grid.n, w.ctypes.data, zero.ctypes.data,
                                   work.pair_ptrs[new], work.index_ptr, work.k_ptr,
                                   *optim._level_ptrs(ours))
                if count < 0:
                    raise FloatingPointError
                ours.w_hidden = work.pair[new]
                return work.index[:count]

            got = outcome(library_step)
            want = outcome(theirs.set_hidden, grid.clip_hidden(w))
            assert got == want
            if bad is not None and step == 2 and np.isnan(bad):
                assert want is FloatingPointError  # refused before any change
                assert ours.w_hidden is before
            else:  # finite once clipped: +-inf clip to the ends
                assert isinstance(want, bytes)
            assert_same_levels(ours, theirs)


def numpy_bn_relu(bn, z):
    """The batch norm and ReLU of ``MLP.forward`` without the library: the oracle."""
    zb, cache = bn.forward(z, True)
    a = np.fmax(zb, 0.0, out=zb)
    a += 0.0
    return a, cache


def bn_batch(rng, dtype, n, d, plant):
    """A batch with some columns of -0.0 (they sum to +0.0) and, if ``plant``,
    NaN and +-inf entries."""
    z = (rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)).astype(dtype)
    z[:, rng.random(d) < 0.2] = -0.0
    if plant:
        pick = rng.random((n, d)) < 0.05
        z[pick] = rng.choice(np.array([np.nan, np.inf, -np.inf], dtype), pick.sum())
    return z


class TestCompiledBatchNorm:
    """The library's train-mode batch norm and ReLU (``net._bn_relu_forward`` and
    ``net._bn_relu_backward``) against ``BatchNorm`` and the ``fmax`` ReLU.

    A width-1 layer must take the numpy path (numpy sums one column pairwise),
    and non-finite inputs send the call back to numpy with no state changed;
    every other call runs compiled.
    """

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           n=st.sampled_from([1, 2, 3, 100]), d=st.sampled_from([1, 2, 3, 24, 513]),
           plant=st.booleans(), frac=st.sampled_from([0.0, 0.3]))
    def test_forward_backward_bit_equal(self, step_lib, seed, dtype, n, d, plant, frac):
        rng = np.random.default_rng(seed)
        ours, theirs = BatchNorm(d, dtype), BatchNorm(d, dtype)
        ours.gamma[:] = rng.uniform(0.5, 1.5, d)
        ours.beta[:] = rng.normal(0.0, 0.5, d)
        ours.running_mean[:] = rng.normal(0.0, 1.0, d)
        ours.running_var[:] = rng.uniform(0.5, 4.0, d)
        plant_specials(rng, ours, frac)  # -0.0, NaN, +-inf and subnormal parameters
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(theirs, name, getattr(ours, name).copy())
        clean = not plant and frac == 0.0
        z = bn_batch(rng, dtype, n, d, plant)
        z_before, stats = z.copy(), (ours.running_mean.copy(), ours.running_var.copy())
        assert net._compiled_bn(step_lib, ours, z) == (d >= 2)
        with np.errstate(all="ignore"):
            got = net._bn_relu_forward(step_lib, ours, z)
            assert (got is not None) == (d >= 2) or not clean
            if got is None:  # declined: nothing changed, numpy runs
                assert same_bytes(ours.running_mean, stats[0])
                assert same_bytes(ours.running_var, stats[1])
                got = numpy_bn_relu(ours, z)
            want = numpy_bn_relu(theirs, z_before.copy())
        assert same_bytes(z, z_before)
        assert same_bytes(got[0], want[0])
        assert all(same_bytes(u, v) for u, v in zip(got[1], want[1]))  # xhat, var
        for name in ("running_mean", "running_var"):
            assert same_bytes(getattr(ours, name), getattr(theirs, name)), name
        # backward from the forward's own outputs, the incoming error with
        # -0.0 and, if planted, NaN and +-inf
        delta = bn_batch(rng, dtype, n, d, plant)
        a, cache = got
        with np.errstate(all="ignore"):
            out = net._bn_relu_backward(step_lib, ours, delta, a, cache)
            assert (out is not None) == (d >= 2) or not clean
            if out is None:
                out = ours.backward(delta * (a > 0), cache)
            ref = theirs.backward(delta * (want[0] > 0), want[1])
        for u, v in zip(out, ref):  # dx, dgamma, dbeta
            assert same_bytes(u, v)


EXPLICIT_80 = (1.5 * np.sinh(np.linspace(-2.0, 2.0, 80)) / np.sinh(2.0)).tolist()


def _hide_compiler(monkeypatch):
    """The plain rule runs every layer from here on, as on a host without ``cc``."""
    monkeypatch.setattr(optim, "_lib", None)
    monkeypatch.setattr(shutil, "which", lambda name: None)


@pytest.mark.parametrize("mode, dtype, levels", [
    pytest.param("exact", "float32", None, id="exact-float32"),
    pytest.param("crossbar", "float64", None, id="crossbar-float64"),
    pytest.param("exact", "float64", None, id="exact-float64"),
    pytest.param("crossbar", "float32", None, id="crossbar-float32"),
    # binary-search projection, per-level slopes and no tile (tools/run_digests.py)
    pytest.param("exact", "float64", EXPLICIT_80, id="exact-float64-explicit-80"),
])
def test_runs_bytes_equal_without_compiler(synth_data_dir, tmp_path, monkeypatch, step_lib,
                                           mode, dtype, levels):
    def config(out_dir):
        cfg = _config(synth_data_dir, out_dir, mode, dtype)
        if levels is None:
            return cfg
        return dataclasses.replace(cfg, grid_source="explicit", grid_level_values=levels)

    compiled = harness.run_sequential(config(tmp_path / "c"))
    _hide_compiler(monkeypatch)
    plain = harness.run_sequential(config(tmp_path / "numpy"))
    assert optim._step_library() is None
    assert compiled.cum_ops == plain.cum_ops
    assert _run_digest(compiled.out_dir) == _run_digest(plain.out_dir)


@pytest.mark.parametrize("path", ["c", "numpy"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_ideal_device_is_exact_mode(synth_data_dir, tmp_path, monkeypatch, dtype, path):
    """A crossbar with no conductance spread and no read noise is exact mode on the
    device grid, bit for bit: every checkpoint array the two runs share but the
    op count and the device generator, and every metrics.csv column but cum_ops."""
    if path == "numpy":
        _hide_compiler(monkeypatch)
    elif optim._step_library() is None:
        pytest.skip("no C compiler: the numpy path is the only step")
    crossbar = dataclasses.replace(_config(synth_data_dir, tmp_path / "crossbar", "crossbar",
                                           dtype), device_sigma_frac=0.0, read_noise_sigma=0.0)
    exact = dataclasses.replace(crossbar, weight_source="exact", out_dir=str(tmp_path / "exact"))
    runs = [harness.run_sequential(cfg).out_dir for cfg in (crossbar, exact)]
    assert (optim._step_library() is None) == (path == "numpy")
    metrics = [[line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
               for out in runs]
    assert metrics[0][0][-1] == "cum_ops" and len(metrics[0]) > 2
    assert [row[:-1] for row in metrics[0]] == [row[:-1] for row in metrics[1]]
    with np.load(runs[0] / "checkpoint.npz") as a, np.load(runs[1] / "checkpoint.npz") as b:
        shared = set(a.files) & set(b.files)
        assert set(b.files) <= set(a.files)  # the crossbar run adds its tiles
        assert any(name.startswith("tile") for name in a.files)
        for name in sorted(shared - {"config_json", "cum_ops", "device_rng"}):
            assert same_bytes(a[name], b[name]), name
        assert int(a["cum_ops"]) > 0 and int(b["cum_ops"]) == 0


# -- whole runs ------------------------------------------------------------------


def _config(data_dir, out_dir, mode, dtype):
    return harness.ExperimentConfig(
        dims=(64, 24, 24, 10), tasks=[TaskSpec("synthA", 2), TaskSpec("synthB", 1)],
        pretrain_epochs=1, batch_size=64, lr=0.02, m_star=3.0, seed=11, dtype=dtype,
        weight_source=mode, grid_source="device" if mode == "crossbar" else "uniform",
        data_dir=str(data_dir), out_dir=str(out_dir), eval_batch=256)


def _run_digest(out_dir):
    files = {name: (out_dir / name).read_bytes()
             for name in ("metrics.csv", "devices.tsv", "ops_histogram_by_epoch.csv")
             if (out_dir / name).exists()}
    with np.load(out_dir / "checkpoint.npz") as z:  # config_json holds the out_dir
        arrays = {k: (z[k].dtype.str, z[k].shape, hashlib.sha256(z[k].tobytes()).hexdigest())
                  for k in z.files if k != "config_json"}
    return files, arrays


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("mode", ["exact", "crossbar"])
def test_run_bytes_equal_reference_step(synth_data_dir, tmp_path, monkeypatch, mode, dtype):
    shipped = harness.run_sequential(_config(synth_data_dir, tmp_path / "ours", mode, dtype))
    monkeypatch.setattr(harness, "train_step", reference_train_step)
    monkeypatch.setattr(MLP, "forward", reference_forward)  # training and evaluation
    reference = harness.run_sequential(_config(synth_data_dir, tmp_path / "ref", mode, dtype))
    assert shipped.cum_ops == reference.cum_ops
    ours, ref = _run_digest(shipped.out_dir), _run_digest(reference.out_dir)
    assert ours == ref
    assert ("devices.tsv" in ours[0]) == (mode == "crossbar")


@pytest.mark.parametrize("mode", ["exact", "crossbar"])
def test_run_digests_hash_every_output(synth_data_dir, tmp_path, mode):
    """Each file a run writes is in tools/run_digests.py's RUN_FILES, or is config.json
    (it holds the output path) or checkpoint.npz (hashed array by array)."""
    spec = importlib.util.spec_from_file_location(
        "run_digests", Path(__file__).resolve().parents[1] / "tools" / "run_digests.py")
    run_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_digests)
    out = harness.run_sequential(_config(synth_data_dir, tmp_path, mode, "float32")).out_dir
    written = {p.name for p in out.iterdir()} - {"config.json", "checkpoint.npz"}
    assert written <= set(run_digests.RUN_FILES)
    if mode == "crossbar":
        assert written == set(run_digests.RUN_FILES)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("mode", ["exact", "crossbar"])
def test_restore_then_steps_equals_uninterrupted(tmp_path, mode, dtype):
    cfg = _config(tmp_path, tmp_path, mode, dtype).validate()
    init_rng, data_rng, device_rng = (np.random.default_rng(s)
                                      for s in np.random.SeedSequence(cfg.seed).spawn(3))
    mlp, dgrid, _ = harness.build_model(cfg, init_rng, device_rng)
    adam = Adam()
    batch_rng = np.random.default_rng(4)
    batches = [(batch_rng.normal(size=(32, 64)).astype(dtype), batch_rng.integers(0, 10, 32))
               for _ in range(8)]
    for x, y in batches[:4]:
        harness.train_step(mlp, adam, x, y, 3.0, cfg.lr, dgrid)
    cum_ops = sum(layer.tile.total_ops() for layer in mlp.layers if layer.tile is not None)
    harness.save_checkpoint(tmp_path / "ck.npz", cfg, mlp, adam, data_rng, device_rng, 0, cum_ops)
    _, clone, clone_adam, _, clone_device_rng, *_ = harness.restore_run(tmp_path / "ck.npz")
    flips = 0
    for x, y in batches[4:]:
        old = [layer.level_idx.copy() for layer in mlp.layers]
        a = harness.train_step(mlp, adam, x, y, 3.0, cfg.lr, dgrid)
        b = harness.train_step(clone, clone_adam, x, y, 3.0, cfg.lr, dgrid)
        assert a == b
        flips += sum(int((l.level_idx != o).sum()) for l, o in zip(mlp.layers, old))
    assert flips > 0
    for la, lb in zip(mlp.layers, clone.layers):
        for attr in ("w_hidden", "w_quant", "level_idx"):
            assert same_bytes(getattr(la, attr), getattr(lb, attr))
        if mode == "crossbar":
            sa, sb = la.tile.state_dict(), lb.tile.state_dict()
            assert all(same_bytes(sa[k], sb[k]) for k in sa)
            assert same_bytes(la.tile.effective_weights(), lb.tile.effective_weights())
    assert device_rng.bit_generator.state == clone_device_rng.bit_generator.state
    x = batches[0][0]
    assert same_bytes(mlp.forward(x), clone.forward(x))
