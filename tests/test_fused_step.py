"""The fused consolidation step against its full-matrix oracles (tests/oracles.py).

Every comparison is on bytes: values, dtype and shape, so a -0.0 for a 0.0
or a changed RNG draw order fails as loudly as a wrong level.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memqnn import harness
from memqnn.data import TaskSpec
from memqnn.device import CellArray, LevelSpec, N_LEVELS, default_levelspec
from memqnn.net import MLP, DenseLayer
from memqnn.optim import Adam, metaplastic_update
from memqnn.quantgrid import QuantGrid, uniform_grid
from memqnn.xbar import HALF_SPAN, CrossbarTile, derive_grid, dump_tiles_tsv, encode_levels

from oracles import (
    reference_adam_directions,
    reference_decode,
    reference_dump_tiles_tsv,
    reference_encode_levels,
    reference_metaplastic_update,
    reference_plasticity,
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
    @settings(max_examples=80, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           m_star=st.sampled_from([0.0, 0.3, 3.0, 12.0]), lr=st.sampled_from([1e-3, 0.05, 2.0]),
           pass_idx=st.booleans())
    def test_metaplastic_update_bit_equal(self, grid, seed, dtype, m_star, lr, pass_idx):
        rng = np.random.default_rng(seed)
        w = grid.clip_hidden(hidden_weights(rng, grid, dtype, (9, 7)))
        idx, wq = reference_projection(grid, w)
        u = direction(rng, dtype, w.shape)
        level_idx = idx if pass_idx else None
        got = metaplastic_update(w, wq, u, grid, m_star, lr, level_idx)
        want = reference_metaplastic_update(w, wq, u, grid, m_star, lr, level_idx)
        assert same_bytes(got, want)

    @settings(max_examples=60, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           m_star=st.floats(0.0, 12.0), pass_idx=st.booleans())
    def test_plasticity_bit_equal(self, grid, seed, dtype, m_star, pass_idx):
        rng = np.random.default_rng(seed)
        w = hidden_weights(rng, grid, dtype, (5, 11))
        idx, wq = reference_projection(grid, w) if pass_idx else (None, None)
        got = grid.plasticity(w, m_star, idx, wq)
        want = reference_plasticity(grid, w, m_star, idx, wq)
        assert same_bytes(got, want)

    def test_plasticity_scalar_input(self):
        grid = derive_grid(default_levelspec()).grid
        for w in (0.0, 0.1, -0.7, grid.hidden_hi):
            assert float(grid.plasticity(w, 3.0)) == float(reference_plasticity(grid, w, 3.0))

    def test_broadcast_direction(self):
        grid = uniform_grid(17, -1.5, 1.5)
        w = np.linspace(-1.6, 1.6, 40)
        idx, wq = reference_projection(grid, w)
        for u in (0.7, -0.7):
            assert same_bytes(metaplastic_update(w, wq, u, grid, 3.0, 0.05, idx),
                              reference_metaplastic_update(w, wq, u, grid, 3.0, 0.05, idx))


class TestIncrementalProjection:
    @settings(max_examples=60, deadline=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           lr=st.sampled_from([1e-3, 0.05, 2.0]))
    def test_update_hidden_equals_full_projection(self, grid, seed, dtype, lr):
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
            assert layer.update_hidden(w_new) is None
            idx, wq = reference_projection(grid, w_new)
            assert same_bytes(layer.level_idx, idx)
            assert same_bytes(layer.w_quant, wq)
            assert layer.w_hidden is w_new

    def test_multi_level_jump(self):
        grid = uniform_grid(17, -1.5, 1.5)
        layer = DenseLayer(np.zeros((2, 2), np.float32), grid)
        layer.update_hidden(np.array([[1.5, -1.5], [0.0, 0.4]], np.float32))
        assert np.array_equal(layer.level_idx, [[16, 0], [8, 10]])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_and_leaves_layer(self, dtype, bad):
        grid = derive_grid(default_levelspec()).grid
        # weights on the bottom level, inside the grid and on the top level
        layer = DenseLayer(np.linspace(-2, 2, 12, dtype=dtype).reshape(3, 4), grid)
        layer.update_hidden(layer.w_hidden.copy())  # bounds are live now
        assert layer.level_idx[0, 0] == 0 and layer.level_idx[2, 3] == grid.n - 1
        before = (layer.w_hidden, layer.level_idx.copy(), layer.w_quant.copy())
        for pos in ((0, 0), (1, 2), (2, 3)):
            w = layer.w_hidden.copy()
            w[pos] = bad
            with pytest.raises(FloatingPointError):
                layer.update_hidden(w)
            assert layer.w_hidden is before[0]
            assert same_bytes(layer.level_idx, before[1]) and same_bytes(layer.w_quant, before[2])

    def test_non_finite_step_raises(self):
        grid = uniform_grid(17, -1.5, 1.5)
        mlp = MLP((6, 5, 3), grid, np.random.default_rng(0), dtype=np.float32)
        x = np.ones((4, 6), np.float32)
        x[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            harness.train_step(mlp, Adam(), x, np.array([0, 1, 2, 0]), 3.0, 0.01)

    def test_shape_or_dtype_change_rejected(self):
        layer = DenseLayer(np.zeros((3, 4)), uniform_grid(5, -1, 1))
        with pytest.raises(ValueError):
            layer.update_hidden(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            layer.update_hidden(np.zeros((3, 4), np.float32))


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


class TestWriteOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(DTYPES),
           reads=st.lists(st.sampled_from(["none", "decode", "reload"]), min_size=6, max_size=6))
    def test_write_levels_bit_equal(self, seed, dtype, reads):
        rng = np.random.default_rng(seed)
        dgrid = device_grid(rng)
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        ours = CrossbarTile(*shape, dgrid, np.random.default_rng(seed), dtype=dtype)
        ref = CrossbarTile(*shape, dgrid, np.random.default_rng(seed), dtype=dtype)
        for k, read in zip(_write_sequence(rng, shape, 5), reads):
            if read == "decode":    # a cached decode must be patched, not left stale
                ours.effective_weights()
            elif read == "reload":  # restored tiles do not know their last write
                ours.load_state_dict(ours.state_dict())
            assert ours.write_levels(k) == reference_write_levels(ref, k)
            for side in ("plus", "minus"):
                a, b = getattr(ours, side), getattr(ref, side)
                assert same_bytes(a.g, b.g) and same_bytes(a.level, b.level)
                assert same_bytes(a.ops, b.ops)
            assert ours.rng.bit_generator.state == ref.rng.bit_generator.state
            assert same_bytes(ours.effective_weights(), reference_decode(ours))
            assert same_bytes(ours.effective_weights(), ref.effective_weights())

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

    def test_program_rejects_non_integer_where(self):
        cells = CellArray((2, 2), default_levelspec())
        with pytest.raises(TypeError):
            cells.program(3, np.random.default_rng(0), where=np.ones((2, 2)))
        # the same selection as a boolean mask programs
        assert cells.program(3, np.random.default_rng(0), where=np.eye(2, dtype=bool)) == 2

    def test_dump_tiles_tsv_bytes(self, tmp_path):
        tiles = [CrossbarTile(5, 3, derive_grid(default_levelspec()), np.random.default_rng(i))
                 for i in range(2)]
        for i, tile in enumerate(tiles):
            tile.write_levels(np.random.default_rng(10 + i).integers(-8, 9, (5, 3)))
        dump_tiles_tsv(tmp_path / "a.tsv", tiles, ["fc1", "fc2"])
        reference_dump_tiles_tsv(tmp_path / "b.tsv", tiles, ["fc1", "fc2"])
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


class TestAdamOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_directions_bit_equal_and_fresh(self, dtype):
        rng = np.random.default_rng(3)
        ours, ref = Adam(), Adam()
        previous = []
        for _ in range(6):
            grads = {"w": rng.normal(size=(7, 5)).astype(dtype),
                     "b": rng.normal(size=5).astype(dtype)}
            got = ours.directions({k: v.copy() for k, v in grads.items()})
            want = reference_adam_directions(ref, grads)
            for name in grads:
                assert same_bytes(got[name], want[name])
                assert all(same_bytes(a, b) for a, b in zip(ours.slots[name], ref.slots[name]))
                for other in [*ours.slots[name], *previous]:
                    assert not np.shares_memory(got[name], other)
            previous = list(got.values())


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
    reference = harness.run_sequential(_config(synth_data_dir, tmp_path / "ref", mode, dtype))
    assert shipped.cum_ops == reference.cum_ops
    ours, ref = _run_digest(shipped.out_dir), _run_digest(reference.out_dir)
    assert ours == ref
    assert ("devices.tsv" in ours[0]) == (mode == "crossbar")


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
    harness.save_checkpoint(tmp_path / "ck.npz", cfg, mlp, adam, data_rng, device_rng, 0, 0)
    _, clone, clone_adam, _, clone_device_rng = harness.restore_run(
        harness.load_checkpoint(tmp_path / "ck.npz"))
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
