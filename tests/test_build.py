"""The model builder: pinned initial state, tile/layer agreement, public names.

``harness.build_model`` is the only code that draws initial weights, the same
way in both modes; crossbar mode then programs each tile from its layer's
levels. ``harness.restore_run`` builds from a checkpoint's arrays instead,
programs no cell and projects each hidden weight once. The initial state is
pinned by sha256 digests, so a refactor of the builder that moves a single
draw fails here before it shows up in a run's outputs.
"""

import hashlib
import importlib
import json

import numpy as np
import pytest

import memqnn
from memqnn import harness
from memqnn.device import CellArray
from memqnn.optim import Adam
from memqnn.quantgrid import QuantGrid
from memqnn.xbar import encode_levels

SMALL = (64, 24, 24, 10)
DESK = (784, 256, 256, 10)

# sha256 over every layer's hidden weights and level indices, every tile's
# plus/minus cell level, conductance and op count, and the device RNG state
# after the build (seed 11, default device model); the desk-dims build pins
# the conductance draws at benchmark widths
BUILD_DIGESTS = {
    ("exact", "float32", SMALL): "7033ad38e9850ec43bce13fd3afd79c50218a282488922607411e4f8b00b6aca",
    ("exact", "float64", SMALL): "79b0a1b17f024ffac5e7c5403724245039717687fb2707496ce1f30f49e7eb23",
    ("crossbar", "float32", SMALL): "521ad8370b047e7b57aae8068b80ce41ad17f8523b692a8f7d6ebefa2bf6034f",
    ("crossbar", "float64", SMALL): "e5280eeb256d79b5428ba8ad71f0443d96ece8d7a0e8d2743197121d60f8ee7f",
    ("crossbar", "float32", DESK): "fefea8554d88cb3e9dad91758ecf3d70c3fd4fbb34d7d49e4c55e00288bdc3d0",
}


def _digest_id(key):
    mode, dtype, dims = key
    return "-".join([mode, dtype] + ([] if dims == SMALL else [str(d) for d in dims]))


def config(mode, dtype, dims, seed, grid_source=None):
    return harness.ExperimentConfig(
        dims=dims, seed=seed, dtype=dtype, weight_source=mode,
        grid_source=grid_source or ("device" if mode == "crossbar" else "uniform")).validate()


def build(mode, dtype, dims, seed, grid_source=None):
    init_rng, _, device_rng = (np.random.default_rng(s)
                               for s in np.random.SeedSequence(seed).spawn(3))
    mlp, dgrid, ops = harness.build_model(config(mode, dtype, dims, seed, grid_source),
                                          init_rng, device_rng)
    return mlp, dgrid, ops, device_rng


@pytest.mark.parametrize("mode, dtype, dims", sorted(BUILD_DIGESTS),
                         ids=[_digest_id(key) for key in sorted(BUILD_DIGESTS)])
def test_build_state_pinned(mode, dtype, dims):
    mlp, _, ops, device_rng = build(mode, dtype, dims, 11)
    h = hashlib.sha256()
    for layer in mlp.layers:
        arrays = [layer.w_hidden, layer.level_idx]
        if layer.tile is not None:
            for cells in (layer.tile.plus, layer.tile.minus):
                arrays += [cells.level, cells.g, cells.ops]
        for a in arrays:
            h.update(a.dtype.str.encode() + str(a.shape).encode() + a.tobytes())
    h.update(json.dumps(device_rng.bit_generator.state, sort_keys=True).encode())
    assert h.hexdigest() == BUILD_DIGESTS[mode, dtype, dims]
    pairs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    assert ops == (2 * pairs if mode == "crossbar" else 0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_crossbar_and_exact_builds_share_weights(dtype):
    exact, _, _, _ = build("exact", dtype, (64, 24, 24, 10), 11, grid_source="device")
    crossbar, _, _, _ = build("crossbar", dtype, (64, 24, 24, 10), 11)
    for a, b in zip(exact.layers, crossbar.layers):
        for attr in ("w_hidden", "level_idx"):
            x, y = getattr(a, attr), getattr(b, attr)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_float32_tiles_hold_their_layers_levels():
    # seed 66 at desk dims draws w = 0.39204547 (layer 0, flat index 131515),
    # which rounds onto a float32 midpoint: projected in float64 it takes the
    # upper level, in float32 the lower one
    mlp, dgrid, _, _ = build("crossbar", "float32", (784, 256, 256, 10), 66)
    for layer in mlp.layers:
        plus, minus = encode_levels(dgrid.signed_levels(layer.level_idx))
        assert np.array_equal(layer.tile.plus.level, plus)
        assert np.array_equal(layer.tile.minus.level, minus)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_restore_programs_no_cell(tmp_path, monkeypatch, dtype):
    mlp, _, _, device_rng = build("crossbar", dtype, (64, 24, 24, 10), 11)
    cfg = config("crossbar", dtype, (64, 24, 24, 10), 11)
    cum_ops = sum(layer.tile.total_ops() for layer in mlp.layers)
    harness.save_checkpoint(tmp_path / "ck.npz", cfg, mlp, Adam(),
                            np.random.default_rng(1), device_rng, 0, cum_ops)

    def program(*args, **kwargs):
        raise AssertionError("restore_run programmed a cell")

    projected = []
    project = QuantGrid.project

    def counting_project(grid, w_hidden):
        projected.append(np.size(w_hidden))
        return project(grid, w_hidden)

    monkeypatch.setattr(CellArray, "program", program)
    monkeypatch.setattr(QuantGrid, "project", counting_project)
    _, clone, _, _, clone_device_rng, *_ = harness.restore_run(tmp_path / "ck.npz")
    assert sum(projected) == sum(layer.w_hidden.size for layer in mlp.layers)
    assert clone_device_rng.bit_generator.state == device_rng.bit_generator.state
    for a, b in zip(mlp.layers, clone.layers):
        assert b.tile.rng is clone_device_rng
        sa, sb = a.tile.state_dict(), b.tile.state_dict()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)
        assert a.w_hidden.tobytes() == b.w_hidden.tobytes()


def test_public_names_resolve():
    modules = [memqnn] + [importlib.import_module(f"memqnn.{name}") for name in (
        "quantgrid", "net", "optim", "device", "xbar", "data", "harness", "cli", "errors")]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
