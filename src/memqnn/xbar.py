"""Crossbar tiles of differential cell pairs storing signed quantized weights.

A signed level k in -8..+8 maps onto two adjacent cells: positive k programs
the plus cell to HCS level k with the minus cell in LCS, negative k mirrors
this, and zero matches both cells in LCS so the nominal difference cancels
exactly. A fixed gain (weight units per microsiemens) calibrates the
conductance difference back to weight scale; the 17 decoded values form the
device-derived quantization grid, unequally spaced wherever the conductance
ladder is.

Matrix-vector products run over the sampled conductances, multiply by Ohm's
law and accumulate by Kirchhoff's current law, so programming variability
propagates into both training and evaluation. Reprogramming follows the
level-change policy: a cell is pulsed only when its target state differs from
the state it currently holds. A tile remembers the signed level of its last
write, so a write touches only the pairs whose level changed (0.2-0.7% per
training step on the synthetic benchmark tasks), programs them in a fixed
order that keeps the device RNG stream reproducible, and patches its cached
decoded weights in place rather than decoding the whole matrix again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import CellArray, LevelSpec, DEFAULT_ENDURANCE, N_LEVELS
from .quantgrid import QuantGrid

__all__ = [
    "HALF_SPAN",
    "encode_level",
    "encode_levels",
    "decode_levels",
    "DeviceGrid",
    "derive_grid",
    "CrossbarTile",
    "init_hardware_weights",
    "dump_tiles_tsv",
]

HALF_SPAN = N_LEVELS - 1  # signed levels run -8..+8


def encode_levels(k):
    """Signed level(s) -> (plus-cell level, minus-cell level), vectorized."""
    k = np.asarray(k)
    if k.size and (k.min() < -HALF_SPAN or k.max() > HALF_SPAN):
        raise ValueError(f"signed levels must lie in -{HALF_SPAN}..+{HALF_SPAN}")
    return np.maximum(k, 0), -np.minimum(k, 0)


def encode_level(k):
    """Scalar convenience wrapper around encode_levels."""
    plus, minus = encode_levels(int(k))
    return int(plus), int(minus)


def decode_levels(plus, minus):
    """Inverse of encode_levels for valid pair encodings."""
    return np.asarray(plus) - np.asarray(minus)


@dataclass(frozen=True)
class DeviceGrid:
    """The quantization grid induced by a conductance ladder plus its calibration."""

    grid: QuantGrid
    gain: float
    spec: LevelSpec

    def signed_levels(self, level_idx):
        """Grid index 0..16 -> signed device level -8..+8."""
        return np.asarray(level_idx) - HALF_SPAN


def derive_grid(spec: LevelSpec, target_max=1.5) -> DeviceGrid:
    """Calibrate the differential encoding so the top level decodes to target_max.

    The decoded value of signed level k is gain * (mean_HCS(|k|) - mean_LCS),
    negated for k < 0 and exactly zero for k = 0. Any strictly monotone
    conductance spec yields a strictly increasing 17-level grid.
    """
    diffs = spec.means[1:] - spec.means[0]
    gain = float(target_max) / float(diffs[-1])
    positive = gain * diffs
    levels = np.concatenate((-positive[::-1], [0.0], positive))
    return DeviceGrid(QuantGrid(levels), gain, spec)


class CrossbarTile:
    """rows x cols differential pairs implementing one layer's quantized weights.

    The tile owns its RNG stream so programming draws are reproducible
    regardless of what the surrounding training loop does. It remembers the
    signed level each pair was last written with, so a write visits only the
    pairs whose level changed; cells must therefore change only through
    ``write_levels`` or ``load_state_dict``, not through ``plus``/``minus``
    directly. Decoded effective weights are cached and
    patched in place when pairs are reprogrammed, because conductances only
    change when a cell is pulsed.
    """

    def __init__(self, rows, cols, dgrid: DeviceGrid, rng,
                 endurance=DEFAULT_ENDURANCE, read_noise_sigma=0.0,
                 physical_tile=None, dtype=np.float64):
        self.rows = int(rows)
        self.cols = int(cols)
        self.dgrid = dgrid
        self.rng = rng
        self.read_noise_sigma = float(read_noise_sigma)
        self.dtype = np.dtype(dtype)  # dtype handed to the MVM consumers
        self.plus = CellArray((rows, cols), dgrid.spec, endurance)
        self.minus = CellArray((rows, cols), dgrid.spec, endurance)
        self.physical_tile = physical_tile  # (rows, cols) of one physical array, or None
        self._w_eff = None
        self._written = None  # signed level of every pair; None: cell states unknown

    @property
    def shape(self):
        return (self.rows, self.cols)

    # -- programming ---------------------------------------------------------

    def write_levels(self, signed_levels):
        """Program cells whose target state changed; returns ops performed.

        The tile remembers the signed level of its last write and visits only
        the pairs whose level changed; a pristine or freshly loaded tile does
        not know its last write, so it visits every pair. A visited cell is
        programmed only if its own target state differs from the state it
        holds, and pristine cells differ from every target, so the first
        write programs every cell exactly once, LCS targets included. Cells
        are programmed plus first, then minus, each in ascending flat order.
        """
        k = np.asarray(signed_levels)
        if k.shape != self.shape:
            raise ValueError(f"level matrix shape {k.shape} != tile shape {self.shape}")
        known = self._written is not None
        pairs = np.flatnonzero(k != self._written) if known else np.arange(k.size)
        k_new = np.take(k, pairs)
        ops = 0
        for cells, targets in zip((self.plus, self.minus), encode_levels(k_new)):
            changed = np.take(cells.level, pairs) != targets
            ops += cells.program(targets[changed], self.rng, where=pairs[changed])
        if not known:
            self._written = np.empty(self.shape, dtype=np.int8)
        self._written.reshape(-1)[pairs] = k_new  # a view: allocated C-contiguous
        if self._w_eff is not None:
            np.put(self._w_eff, pairs,
                   self._decode(np.take(self.plus.g, pairs), np.take(self.minus.g, pairs)))
        return ops

    # -- analog compute --------------------------------------------------------

    def _decode(self, g_plus, g_minus):
        """Signed weights from plus/minus conductances (microsiemens)."""
        return (self.dgrid.gain * (g_plus - g_minus)).astype(self.dtype, copy=False)

    def effective_weights(self, fresh_noise=False):
        """Signed weight matrix decoded from the stored conductances.

        Without fresh read noise this is a read-only view of the tile's
        cache, which later writes patch in place: copy it to keep a snapshot.
        """
        if self.read_noise_sigma and fresh_noise:
            return self._decode(self.plus.read(self.rng, self.read_noise_sigma),
                                self.minus.read(self.rng, self.read_noise_sigma))
        if self._w_eff is None:
            self._w_eff = self._decode(self.plus.g, self.minus.g)
        view = self._w_eff.view()
        view.flags.writeable = False
        return view

    def mvm_forward(self, x):
        """x (.., rows) -> currents accumulated per column, in weight units."""
        x = np.asarray(x)
        if x.shape[-1] != self.rows:
            raise ValueError(f"input length {x.shape[-1]} != tile rows {self.rows}")
        return x @ self.effective_weights(fresh_noise=True)

    def mvm_backward(self, delta):
        """delta (.., cols) -> transpose product, in weight units."""
        delta = np.asarray(delta)
        if delta.shape[-1] != self.cols:
            raise ValueError(f"error length {delta.shape[-1]} != tile cols {self.cols}")
        return delta @ self.effective_weights(fresh_noise=True).T

    # -- accounting -------------------------------------------------------------

    def total_ops(self):
        return int(self.plus.ops.sum() + self.minus.ops.sum())

    def ops_per_cell(self):
        """Flat vector of program counts over both cells of every pair."""
        return np.concatenate((self.plus.ops.ravel(), self.minus.ops.ravel()))

    def physical_tile_count(self):
        if self.physical_tile is None:
            return 1
        tr, tc = self.physical_tile
        return -(-self.rows // tr) * -(-self.cols // tc)

    def ops_by_physical_tile(self):
        """Program-op totals per physical array (both pair halves combined)."""
        if self.physical_tile is None:
            return np.asarray([[self.total_ops()]])
        tr, tc = self.physical_tile
        nr, nc = -(-self.rows // tr), -(-self.cols // tc)
        out = np.zeros((nr, nc), dtype=np.int64)
        ops = self.plus.ops + self.minus.ops
        for i in range(nr):
            for j in range(nc):
                out[i, j] = ops[i * tr:(i + 1) * tr, j * tc:(j + 1) * tc].sum()
        return out

    # -- state -----------------------------------------------------------------

    def state_dict(self, prefix=""):
        state = self.plus.state_dict(prefix + "plus.")
        state.update(self.minus.state_dict(prefix + "minus."))
        return state

    def load_state_dict(self, state, prefix=""):
        self.plus.load_state_dict(state, prefix + "plus.")
        self.minus.load_state_dict(state, prefix + "minus.")
        self._w_eff = None
        self._written = None


def init_hardware_weights(shapes, dgrid: DeviceGrid, rng,
                          endurance=DEFAULT_ENDURANCE, read_noise_sigma=0.0,
                          n_central_intervals=4, sigma_frac=0.25,
                          physical_tile=None, dtype=np.float64):
    """Gaussian hidden-weight init around central interval midpoints, tiles programmed.

    Per synapse a uniformly chosen central interval provides the mean
    (its midpoint) and the scale (sigma_frac times its width) of the draw.
    Quantized projections are written to fresh tiles, so every cell is
    programmed exactly once. Returns (hidden weight arrays, tiles, ops).
    """
    grid = dgrid.grid
    n_int = grid.n - 1
    k = min(int(n_central_intervals), n_int)
    start = (n_int - k) // 2
    choices = np.arange(start, start + k)
    hidden, tiles, ops = [], [], 0
    for shape in shapes:
        pick = rng.choice(choices, size=shape)
        mids = grid.midpoints[pick]
        sds = sigma_frac * grid.widths[pick]
        w = grid.clip_hidden(rng.normal(mids, sds))
        idx, _ = grid.project(w)
        tile = CrossbarTile(shape[0], shape[1], dgrid, rng,
                            endurance=endurance, read_noise_sigma=read_noise_sigma,
                            physical_tile=physical_tile, dtype=dtype)
        ops += tile.write_levels(dgrid.signed_levels(idx))
        hidden.append(w)
        tiles.append(tile)
    return hidden, tiles, ops


def dump_tiles_tsv(path, tiles, layer_names=None):
    """Columnar per-cell state dump: layer, row, col, side, level, g_uS, ops."""
    if layer_names is None:
        layer_names = [f"layer{i}" for i in range(len(tiles))]
    with open(path, "w") as f:
        f.write("layer\trow\tcol\tside\tlevel\tg_uS\tops\n")
        for name, tile in zip(layer_names, tiles):
            for side, cells in (("plus", tile.plus), ("minus", tile.minus)):
                # row by row, from Python scalars: they format faster than
                # numpy ones, to the same text
                for r in range(tile.rows):
                    f.writelines(
                        f"{name}\t{r}\t{c}\t{side}\t{l}\t{gv:.6f}\t{o}\n"
                        for c, (l, gv, o) in enumerate(zip(cells.level[r].tolist(),
                                                           cells.g[r].tolist(),
                                                           cells.ops[r].tolist())))
