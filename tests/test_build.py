"""The model builder: pinned initial state, tile/layer agreement, public names.

``harness.build_model`` is the only code that makes an MLP or a tile, for
fresh runs and (on throwaway generators) for restored ones. Its initial state
is pinned by sha256 digests, so a refactor of the builder that moves a single
draw fails here before it shows up in a run's outputs.
"""

import hashlib
import importlib
import json

import numpy as np
import pytest

import memqnn
from memqnn import harness
from memqnn.xbar import encode_levels

# sha256 over every layer's hidden weights and level indices, every tile's
# plus/minus cell level, conductance and op count, and the device RNG state
# after the build (dims 64-24-24-10, seed 11, default device model)
BUILD_DIGESTS = {
    ("exact", "float32"): "7033ad38e9850ec43bce13fd3afd79c50218a282488922607411e4f8b00b6aca",
    ("exact", "float64"): "79b0a1b17f024ffac5e7c5403724245039717687fb2707496ce1f30f49e7eb23",
    ("crossbar", "float32"): "ac115bf39bdcd5e89d6d59716f4b38945f369f5baf2f896784a114f7e2ac39d2",
    ("crossbar", "float64"): "ae49bcb781e665b0338f11a0571e4c1199637c129617296f0b03afb51d734e8f",
}


def build(mode, dtype, dims, seed):
    cfg = harness.ExperimentConfig(
        dims=dims, seed=seed, dtype=dtype, weight_source=mode,
        grid_source="device" if mode == "crossbar" else "uniform").validate()
    init_rng, _, device_rng = (np.random.default_rng(s)
                               for s in np.random.SeedSequence(seed).spawn(3))
    mlp, dgrid, ops = harness.build_model(cfg, init_rng, device_rng)
    return mlp, dgrid, ops, device_rng


@pytest.mark.parametrize("mode, dtype", sorted(BUILD_DIGESTS))
def test_build_state_pinned(mode, dtype):
    mlp, _, ops, device_rng = build(mode, dtype, (64, 24, 24, 10), 11)
    h = hashlib.sha256()
    for layer in mlp.layers:
        arrays = [layer.w_hidden, layer.level_idx]
        if layer.tile is not None:
            for cells in (layer.tile.plus, layer.tile.minus):
                arrays += [cells.level, cells.g, cells.ops]
        for a in arrays:
            h.update(a.dtype.str.encode() + str(a.shape).encode() + a.tobytes())
    h.update(json.dumps(device_rng.bit_generator.state, sort_keys=True).encode())
    assert h.hexdigest() == BUILD_DIGESTS[mode, dtype]
    assert ops == (2 * (64 * 24 + 24 * 24 + 24 * 10) if mode == "crossbar" else 0)


def test_float32_tiles_hold_their_layers_levels():
    # seed 8 at desk dims draws w = 0.39204547 (layer 0, flat index 92871),
    # which rounds onto a float32 midpoint: projected in float64 it takes the
    # upper level, in float32 the lower one
    mlp, dgrid, _, _ = build("crossbar", "float32", (784, 256, 256, 10), 8)
    for layer in mlp.layers:
        plus, minus = encode_levels(dgrid.signed_levels(layer.level_idx))
        assert np.array_equal(layer.tile.plus.level, plus)
        assert np.array_equal(layer.tile.minus.level, minus)


def test_public_names_resolve():
    modules = [memqnn] + [importlib.import_module(f"memqnn.{name}") for name in (
        "quantgrid", "net", "optim", "device", "xbar", "data", "harness", "cli", "errors")]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
