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
the state it currently holds. A training step writes only the pairs whose
layer re-projected their weight to a new level (0.2-0.7% per step on the
synthetic benchmark tasks); the tile programs them in a fixed order that keeps
the device RNG stream reproducible and patches its cached decoded weights in
place rather than decoding the whole matrix again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import CellArray, LevelSpec, DEFAULT_ENDURANCE, N_LEVELS, flat_indices
from .quantgrid import QuantGrid

__all__ = [
    "HALF_SPAN",
    "encode_levels",
    "DeviceGrid",
    "derive_grid",
    "CrossbarTile",
    "dump_tiles_tsv",
]

HALF_SPAN = N_LEVELS - 1  # signed levels run -8..+8


def encode_levels(k):
    """Signed level(s) -> (plus-cell level, minus-cell level), vectorized; bool is a TypeError."""
    k = np.asarray(k)
    if k.dtype.kind == "b":
        raise TypeError("signed levels must be integers, not bool")
    if k.size and (k.min() < -HALF_SPAN or k.max() > HALF_SPAN):
        raise ValueError(f"signed levels must lie in -{HALF_SPAN}..+{HALF_SPAN}")
    return np.maximum(k, 0), -np.minimum(k, 0)


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
    regardless of what the surrounding training loop does. Its only state is
    its cells: which pairs to write is the caller's to say. The decoded
    weights are built with the tile (pristine cells decode to 0), decoded
    afresh on ``load_state_dict`` and on the first write of a pristine tile,
    and patched in place for the pairs any other ``write_levels`` visits:
    conductances only change when a cell is pulsed.
    """

    def __init__(self, rows, cols, dgrid: DeviceGrid, rng,
                 endurance=DEFAULT_ENDURANCE, read_noise_sigma=0.0, dtype=np.float64):
        self.rows = int(rows)
        self.cols = int(cols)
        self.dgrid = dgrid
        self.rng = rng
        self.read_noise_sigma = float(read_noise_sigma)
        self.dtype = np.dtype(dtype)  # dtype handed to the MVM consumers
        self.plus = CellArray((rows, cols), dgrid.spec, endurance)
        self.minus = CellArray((rows, cols), dgrid.spec, endurance)
        self._w_eff = np.zeros(self.shape, self.dtype)  # pristine g is 0.0 on both sides

    @property
    def shape(self):
        return (self.rows, self.cols)

    # -- programming ---------------------------------------------------------

    def write_levels(self, signed_levels, where=None):
        """Program the selected pairs' cells whose state changed; returns ops.

        ``where`` selects pairs as ``CellArray.program``'s ``where`` selects
        cells: None visits every pair of a full level matrix, flat indices
        visit only those pairs, one signed level each. A visited cell is
        programmed only if its own target state differs from the state it
        holds, and pristine cells differ from every target, so a first write
        of every pair programs every cell exactly once, LCS targets included.
        Cells are programmed plus first, then minus, each in ascending flat
        order. A full level matrix on a pristine tile (set-up) programs each
        side whole, through a slice; any other full matrix is written as the
        pairs ``0..n-1``. Both give the same draws.
        """
        k = np.asarray(signed_levels)
        if where is None:
            if k.shape != self.shape:
                raise ValueError(f"level matrix shape {k.shape} != tile shape {self.shape}")
            if (self.plus.level < 0).all() and (self.minus.level < 0).all():  # every cell changes
                ops = sum(cells.program(targets, self.rng)
                          for cells, targets in zip((self.plus, self.minus), encode_levels(k)))
                self._w_eff[...] = self._decode(self.plus.g, self.minus.g)
                return ops
            pairs, k = np.arange(self.plus.size), k.reshape(-1)
        else:
            pairs = flat_indices(where, self.plus.size)
            if k.shape != pairs.shape:  # one level for every pair
                k = np.broadcast_to(k, pairs.shape)
        ops = 0
        for cells, targets in zip((self.plus, self.minus), encode_levels(k)):
            changed = cells.level.take(pairs) != targets
            ops += cells.program(targets[changed], self.rng, where=pairs[changed])
        self._w_eff.reshape(-1)[pairs] = self._decode(self.plus.g.take(pairs),
                                                      self.minus.g.take(pairs))
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
        view = self._w_eff.view()
        view.flags.writeable = False
        return view

    def mvm_forward(self, x):
        """x (.., rows) -> currents accumulated per column, in weight units."""
        return x @ self.effective_weights(fresh_noise=True)

    def mvm_backward(self, delta):
        """delta (.., cols) -> transpose product, in weight units."""
        return delta @ self.effective_weights(fresh_noise=True).T

    # -- accounting -------------------------------------------------------------

    def total_ops(self):
        return int(self.plus.ops.sum() + self.minus.ops.sum())

    def ops_per_cell(self):
        """Flat vector of program counts over both cells of every pair."""
        return np.concatenate((self.plus.ops.ravel(), self.minus.ops.ravel()))

    # -- state -----------------------------------------------------------------

    def state_dict(self, prefix=""):
        state = self.plus.state_dict(prefix + "plus.")
        state.update(self.minus.state_dict(prefix + "minus."))
        return state

    def load_state_dict(self, state, prefix=""):
        self.plus.load_state_dict(state, prefix + "plus.")
        self.minus.load_state_dict(state, prefix + "minus.")
        self._w_eff[...] = self._decode(self.plus.g, self.minus.g)


# Cells per block of dump_tiles_tsv: a block's text matrix is about 1.5 MB,
# so the dump's memory does not grow with the tile.
DUMP_BLOCK = 32768


def dump_tiles_tsv(path, tiles):
    """Columnar per-cell state dump: layer, row, col, side, level, g_uS, ops.

    One tab-separated UTF-8 line per cell: plus cells of a tile before its
    minus cells, each in row-major order; tile i is ``layer{i}``. g_uS is
    the conductance as ``f"{g:.6f}"`` writes it. The package never reads it back.

    The lines are built ``DUMP_BLOCK`` cells at a time, as a byte matrix
    with one row per cell. Each field fills its own span of 4-byte words,
    padded with NUL bytes, and dropping every NUL leaves the text, which
    goes out in one write. Each line starts with its newline (the header has
    none; the file ends with one). Row and column text, with the layer name
    and side, comes from per-tile tables; level and ops are signed decimal
    digit groups.

    g_uS is n = rint(g * 1e6), written as its units and six zero-padded
    decimals. ``.6f`` rounds the exact binary value of g, half to even. The
    product fl(g * 1e6) is within half an ulp of the exact one, under 1e-4
    below 1e12, so rint gives the same n unless a half-integer lies that
    close. Cells within 1e-3 of k + 0.5, negative (-0.0 too), not finite or
    at 1e12 and above are written by ``.6f`` itself, into the same span.
    """
    with open(path, "wb") as f:
        f.write(b"layer\trow\tcol\tside\tlevel\tg_uS\tops")
        for i, tile in enumerate(tiles):
            rows = _words([f"\nlayer{i}\t{r}\t" for r in range(tile.rows)])
            for side, cells in (("plus", tile.plus), ("minus", tile.minus)):
                cols = _words([f"{c}\t{side}\t" for c in range(tile.cols)])
                level, g, ops = (a.reshape(-1) for a in (cells.level, cells.g, cells.ops))
                for start in range(0, level.size, DUMP_BLOCK):
                    stop = min(start + DUMP_BLOCK, level.size)
                    cut = slice(start, stop)
                    r, c = np.divmod(np.arange(start, stop), tile.cols)
                    block = np.concatenate((np.take(rows, r, axis=0), np.take(cols, c, axis=0),
                                            _int_words(level[cut]), _g_words(g[cut]),
                                            _int_words(ops[cut])), axis=1)
                    text = block.astype("<u4", copy=False).view(np.uint8)
                    f.write(text[text != 0])
        f.write(b"\n")


def _words(strings, width=None):
    """UTF-8 strings -> NUL-padded rows of little-endian 4-byte words."""
    data = [s.encode() for s in strings]
    width = width or -(-max(map(len, data), default=1) // 4) * 4
    return np.array(data, dtype=f"S{width}").view("<u4").reshape(len(data), width // 4)


# Three digits in bytes 1..3 of a word, byte 0 left for a separator or sign:
# 000..999 zero-padded, then 0..999 NUL-padded for a number's leading group.
_GROUPS = _words([f"\0{i:03d}" for i in range(1000)]
                 + ["\0" + str(i).rjust(3, "\0") for i in range(1000)]).reshape(-1)
_DECIMALS_HI = _GROUPS[:1000] | ord(".")              # ".ddd"
_DECIMALS_LO = _GROUPS[:1000] >> 8 | ord("\t") << 24  # "ddd\t"


def _int_words(v, sep=0):
    """Signed ints -> their decimal text as word columns, byte sep first."""
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2**64: |v|, int64's minimum too
    cols = []
    for k in range((len(str(int(mag.max()))) + 2) // 3):
        high = mag // 1000
        word = np.take(_GROUPS, mag - high * 1000 + (high == 0) * np.uint64(1000))
        cols.append(word * (mag > 0) if k else word)
        mag = high
    if neg.any():
        cols.append(np.where(neg, np.uint32(ord("-") << 8), np.uint32(0)))
    cols[-1] |= np.uint32(sep)
    return np.stack(cols[::-1], axis=1)


def _g_words(g):
    """Conductances -> word columns of a tab, their ``.6f`` text and a tab."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = g * 1e6
        n = np.rint(x)
        slow = ~(x >= 0) | (x >= 1e12) | np.signbit(g) | (np.abs(x - n) >= 0.5 - 1e-3)
    n[slow] = 0
    n = n.astype(np.int64)
    units = n // 10**6
    micro = n - units * 10**6
    high = micro // 1000
    words = np.concatenate((_int_words(units, ord("\t")),
                            np.take(_DECIMALS_HI, high)[:, None],
                            np.take(_DECIMALS_LO, micro - high * 1000)[:, None]), axis=1)
    if slow.any():
        exact = [f"\t{v:.6f}\t" for v in g[slow].tolist()]
        pad = -(-max(map(len, exact)) // 4) - words.shape[1]
        if pad > 0:
            words = np.pad(words, ((0, 0), (pad, 0)))
        words[slow] = _words(exact, 4 * words.shape[1])
    return words
