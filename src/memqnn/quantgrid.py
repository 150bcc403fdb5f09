"""Quantization level sets and the consolidation transfer function.

A grid is an ordered set of representable weight values. Uniform grids cover
the pure-software experiments; grids derived from measured device conductances
are generally unequally spaced (wider around zero), so every computation here
works with per-interval widths rather than a single spacing constant; a grid
whose widths are all bitwise equal uses its one width as a scalar, which
yields the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["QuantGrid", "MetaParams", "uniform_grid"]


@dataclass(frozen=True)
class MetaParams:
    """Consolidation steepness. m_star = 0 turns modulation off entirely."""

    m_star: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.m_star) or self.m_star < 0:
            raise ConfigError(f"m_star must be finite and >= 0, got {self.m_star}")


class QuantGrid:
    """Strictly increasing weight levels plus interval metadata.

    ``levels[i]`` is the value of level ``i``; ``widths[i]`` is the width of
    the interval between levels ``i`` and ``i+1``; ``midpoints[i]`` is the
    projection boundary between them. Hidden weights live in the closed span
    ``[hidden_lo, hidden_hi]``, which extends half an outer interval beyond
    the endpoint levels on each side.
    """

    def __init__(self, levels):
        lv = np.asarray(levels, dtype=np.float64)
        if lv.ndim != 1 or lv.size < 2:
            raise ConfigError("a grid needs a 1-d array of at least 2 levels")
        if not np.all(np.isfinite(lv)):
            raise ConfigError("grid levels must be finite")
        if not np.all(np.diff(lv) > 0):
            raise ConfigError("grid levels must be strictly increasing")
        self.levels = lv
        self.n = int(lv.size)
        self.widths = np.diff(lv)
        self.midpoints = lv[:-1] + 0.5 * self.widths
        self.hidden_lo = float(lv[0] - 0.5 * self.widths[0])
        self.hidden_hi = float(lv[-1] + 0.5 * self.widths[-1])
        self._midpoints_f32 = self.midpoints.astype(np.float32)
        # all widths bitwise equal: the plasticity slope is one scalar
        self._uniform = bool(np.all(self.widths == self.widths[0]))
        # the projection interval (lo, hi] of every level, for float32 weights
        # and for all others; the open ends are -inf and the largest finite
        # value, so a non-finite weight always falls outside its interval
        self._intervals = {}
        for is_f32, mids in ((True, self._midpoints_f32), (False, self.midpoints)):
            lo = np.concatenate(([-np.inf], mids)).astype(mids.dtype)
            hi = np.concatenate((mids, [np.finfo(mids.dtype).max])).astype(mids.dtype)
            self._intervals[is_f32] = (lo, hi)
        for a in (self.levels, self.widths, self.midpoints, self._midpoints_f32,
                  *(b for pair in self._intervals.values() for b in pair)):
            a.flags.writeable = False

    # -- projection --------------------------------------------------------

    def project_idx(self, w_hidden):
        """Index of the level nearest to each hidden weight.

        Out-of-range inputs resolve to the endpoint levels. A weight exactly
        on a midpoint takes the lower-index level.
        """
        w = np.asarray(w_hidden)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("hidden weights must be finite")
        # A midpoint is the boundary between two levels; a weight exactly on
        # one counts as not-yet-crossed, i.e. takes the lower level.
        mids = self._midpoints_f32 if w.dtype == np.float32 else self.midpoints
        if self.n <= 64 and w.ndim:
            # counting boundaries below w beats binary search for small grids
            idx = np.zeros(w.shape, dtype=np.int16)
            for m in mids:
                idx += w > m
            return idx
        return np.searchsorted(mids, w, side="left")

    def project(self, w_hidden):
        """Nearest-level projection; returns (level_index, quantized value)."""
        idx = self.project_idx(w_hidden)
        return idx, self.levels[idx]

    def level_bounds(self, level_idx, dtype):
        """Per weight, the interval (lo, hi] that projects onto its level.

        Bounds are midpoints in the precision ``project_idx`` compares a
        ``dtype`` weight against, so ``lo < w <= hi`` holds exactly when
        ``w`` projects onto ``level_idx``; a non-finite ``w`` never does.
        """
        lo, hi = self._intervals[np.dtype(dtype) == np.float32]
        return lo[level_idx], hi[level_idx]

    # -- metaplastic function ----------------------------------------------

    def plasticity(self, w_hidden, m_star, level_idx=None, w_quant=None):
        """Update-strength factor in (0, 1].

        Equals 1 when the hidden weight sits at the midpoint between two
        levels (fully plastic) and decays to ``1 - tanh(m_star)**2`` as it
        reaches its level (consolidated). The interval width used is the one
        on the side of the projected level that contains the hidden weight;
        beyond the outermost levels the outermost interval is reused, and a
        weight exactly on a level gives the same value for either neighbouring
        interval, so the left one is taken.
        """
        if isinstance(m_star, MetaParams):
            m_star = m_star.m_star
        m = float(m_star)
        if not np.isfinite(m) or m < 0:
            raise ConfigError(f"m_star must be finite and >= 0, got {m}")
        w = np.asarray(w_hidden)
        dt = w.dtype if w.dtype.kind == "f" else np.dtype(np.float64)
        if level_idx is None or w_quant is None:
            level_idx, w_quant = self.project(w)
        # 2*m/width per interval, gathered on the side that contains the weight:
        # interval idx above the level, idx - 1 below it, clamped to the grid
        inv_width = (2.0 * m / self.widths).astype(dt)
        if self._uniform:
            factor = inv_width[0]
        else:
            side = np.asarray(level_idx) - 1 + (w >= w_quant)
            factor = np.take(inv_width, np.clip(side, 0, self.n - 2))
        # 1 - tanh(min(factor * |w - w_quant| - m, 0))**2, evaluated in place.
        # The argument is <= 0 for any weight inside the clipped hidden range
        # (distance to the level is at most half an interval); the cap extends
        # that continuously, keeping far-out weights fully plastic.
        out = np.empty(np.broadcast_shapes(w.shape, np.shape(w_quant)), dtype=dt)
        np.subtract(w, np.asarray(w_quant, dtype=dt), out=out)
        np.abs(out, out=out)
        out *= factor
        out -= dt.type(m)
        np.minimum(out, dt.type(0), out=out)
        np.tanh(out, out=out)
        out *= out
        np.subtract(1.0, out, out=out)
        return out

    # -- hidden-weight support ----------------------------------------------

    def clip_hidden(self, w_hidden):
        """Clip hidden weights to half an outer interval beyond the end levels."""
        return np.clip(w_hidden, self.hidden_lo, self.hidden_hi)

    # -- introspection / serialization ---------------------------------------

    def is_symmetric(self, tol=1e-12):
        return bool(np.all(np.abs(self.levels + self.levels[::-1]) <= tol))

    def to_list(self):
        return [float(v) for v in self.levels]

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"QuantGrid(n={self.n}, range=[{self.levels[0]:g}, {self.levels[-1]:g}])"


def uniform_grid(n, lo, hi):
    """Equally spaced grid of ``n`` levels including both endpoints."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ConfigError(f"need an integer level count >= 2, got {n!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ConfigError(f"need finite bounds with lo < hi, got ({lo}, {hi})")
    return QuantGrid(np.linspace(lo, hi, n))
