"""Quantization level sets and the consolidation transfer function.

A grid is an ordered set of representable weight values. Uniform grids cover
the pure-software experiments; grids derived from measured device conductances
are generally unequally spaced (wider around zero), so every computation here
works with per-interval widths rather than a single spacing constant; a grid
whose widths are all bitwise equal uses its one width as a scalar, which
yields the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["QuantGrid", "uniform_grid"]


def check_m_star(m_star):
    """``m_star`` as a float; ConfigError unless it is finite and >= 0."""
    m = float(m_star)
    if not np.isfinite(m) or m < 0:
        raise ConfigError(f"m_star must be finite and >= 0, got {m}")
    return m


class QuantGrid:
    """Strictly increasing weight levels plus interval metadata.

    ``levels[i]`` is the value of level ``i``; ``widths[i]`` is the width of
    the interval between levels ``i`` and ``i+1``; ``midpoints[i]`` is the
    projection boundary between them. Hidden weights live in the closed span
    ``[hidden_lo, hidden_hi]``, which extends half an outer interval beyond
    the endpoint levels on each side. Level indices are int16, so a grid holds
    at most 32767 levels.
    """

    def __init__(self, levels):
        lv = np.asarray(levels, dtype=np.float64)
        if lv.ndim != 1 or lv.size < 2:
            raise ConfigError("a grid needs a 1-d array of at least 2 levels")
        if not np.all(np.isfinite(lv)):
            raise ConfigError("grid levels must be finite")
        if not np.all(np.diff(lv) > 0):
            raise ConfigError("grid levels must be strictly increasing")
        if lv.size > np.iinfo(np.int16).max:
            raise ConfigError(f"a grid holds at most 32767 levels, got {lv.size}")
        self.levels = lv
        self.n = int(lv.size)
        self.widths = np.diff(lv)
        self.midpoints = lv[:-1] + 0.5 * self.widths
        self.hidden_lo = float(lv[0] - 0.5 * self.widths[0])
        self.hidden_hi = float(lv[-1] + 0.5 * self.widths[-1])
        # all widths bitwise equal: the plasticity slope is one scalar
        self._uniform = bool(np.all(self.widths == self.widths[0]))
        # for float32 weights and for all others: the interval edges and the
        # level values, in the precision a weight is compared in
        self._tables = {}
        for dt in (np.float32, np.float64):
            edges = np.concatenate(([-np.inf], self.midpoints, [np.finfo(dt).max])).astype(dt)
            self._tables[dt == np.float32] = (edges, lv.astype(dt))
        for a in (self.levels, self.widths, self.midpoints,
                  *(b for tables in self._tables.values() for b in tables)):
            a.flags.writeable = False
        self._slope_kept = {}  # dtype -> (m*, slope_tables(m*, dtype))

    # -- projection --------------------------------------------------------

    def level_tables(self, dtype):
        """The interval edges and the level values for ``dtype`` weights.

        ``edges`` is -inf, the midpoints and the largest finite value: level
        ``i`` takes the weights in ``(edges[i], edges[i + 1]]``. Both are in
        the precision ``project_idx`` compares a ``dtype`` weight in (float32
        for float32, float64 for any other). Read-only; made once per grid.
        """
        return self._tables[np.dtype(dtype) == np.float32]

    def project_idx(self, w_hidden):
        """Index (int16) of the level nearest to each hidden weight.

        Out-of-range inputs resolve to the endpoint levels. A weight exactly
        on a midpoint takes the lower-index level.
        """
        w = np.asarray(w_hidden)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("hidden weights must be finite")
        # A midpoint is the boundary between two levels; a weight exactly on
        # one counts as not-yet-crossed, i.e. takes the lower level.
        mids = self.level_tables(w.dtype)[0][1:-1]
        if self.n <= 64 and w.ndim:
            # counting boundaries below w: on whole matrices 4-10x faster than
            # np.searchsorted (1.1 against 8.8 ms on 200k float32 weights)
            idx = np.zeros(w.shape, dtype=np.int16)
            for m in mids:
                idx += w > m
            return idx
        return np.searchsorted(mids, w, side="left").astype(np.int16)

    def project(self, w_hidden):
        """Nearest-level projection: (level_index, value from ``level_tables``)."""
        w = np.asarray(w_hidden)
        idx = self.project_idx(w)
        return idx, self.level_tables(w.dtype)[1][idx]

    def level_bounds(self, level_idx, dtype):
        """Per weight, the interval (lo, hi] that projects onto its level.

        Bounds are midpoints in the precision ``project_idx`` compares a
        ``dtype`` weight against, so ``lo < w <= hi`` holds exactly when
        ``w`` projects onto ``level_idx``; a non-finite ``w`` never does.
        """
        edges = self.level_tables(dtype)[0]
        return edges[:-1][level_idx], edges[1:][level_idx]

    # -- metaplastic function ----------------------------------------------

    def slope_tables(self, m_star, dtype):
        """Per level, the plasticity slopes (upper, negated lower), in ``dtype``.

        ``upper`` is ``2 * m_star / width`` of the interval above the level,
        ``neg_lower`` minus that of the interval below it; beyond the
        outermost levels the outermost interval is reused. For a weight on
        level ``i`` at signed distance ``d = w - w_quant``,
        ``max(d * upper[i], d * neg_lower[i])`` is ``|d|`` times the slope of
        the side that contains the weight, to the bit. A grid whose widths are
        all bitwise equal returns two scalars. Read-only; the grid keeps the
        last m*'s tables per dtype. At m* = 0 the update reads no slope, and
        ``ValueError`` is raised.
        """
        if not m_star:
            raise ValueError("at m* = 0 the update reads no plasticity slope")
        dt = np.dtype(dtype)
        kept = self._slope_kept.get(dt)
        if kept is None or kept[0] != m_star:
            slope = (2.0 * float(m_star) / self.widths).astype(dt)
            if self._uniform:
                tables = slope[0], -slope[0]
            else:
                tables = (np.append(slope, slope[-1]),  # level i: interval min(i, n - 2)
                          -np.insert(slope, 0, slope[0]))  # level i: interval max(i - 1, 0)
                for a in tables:
                    a.flags.writeable = False
            kept = self._slope_kept[dt] = (m_star, tables)
        return kept[1]

    def plasticity(self, w_hidden, m_star, level_idx=None, w_quant=None):
        """Update-strength factor in [0, 1].

        Equals 1 when the hidden weight sits at the midpoint between two
        levels (fully plastic) and decays to ``1 - tanh(m_star)**2`` as it
        reaches its level (consolidated). For large m* that floor is exactly
        0, because ``np.tanh`` rounds to -1: on ``uniform_grid(17, -1.5, 1.5)``
        a float32 weight on a level gets 0.0 from m*=10 on, one 0.001 above it
        1.2e-7 at m*=10 and 0.0 from m*=11; in float64 a weight on a level
        gets 0.0 from m*=19, one 0.001 above it from m*=20. Such a weight takes
        no away step at all. The interval width used is the one on the side
        of the projected level that contains the hidden weight; beyond the
        outermost levels the outermost interval is reused, and a weight
        exactly on a level gives the same value for either neighbouring
        interval. ``level_idx`` and ``w_quant`` are the projection of
        ``w_hidden``, computed here unless both are given.
        """
        m = check_m_star(m_star)
        w = np.asarray(w_hidden)
        dt = w.dtype if w.dtype.kind == "f" else np.dtype(np.float64)
        if level_idx is None or w_quant is None:
            level_idx, w_quant = self.project(w)
        idx = np.asarray(level_idx)
        d = np.abs(w - np.asarray(w_quant, dtype=dt))
        # 1 - tanh(min(slope * |w - w_quant| - m, 0))**2: the argument is <= 0
        # for any weight inside the clipped hidden range (distance to the level
        # is at most half an interval); the cap keeps far-out weights plastic.
        slope = (2.0 * m / self.widths).astype(dt)
        side = np.where(w >= w_quant, slope[np.minimum(idx, self.n - 2)],
                        slope[np.maximum(idx - 1, 0)])
        t = np.tanh(np.minimum(side * d - dt.type(m), dt.type(0)))
        return 1.0 - t * t

    # -- hidden-weight support ----------------------------------------------

    def clip_hidden(self, w_hidden):
        """Clip hidden weights to half an outer interval beyond the end levels."""
        return np.clip(w_hidden, self.hidden_lo, self.hidden_hi)

    def __repr__(self):
        return f"QuantGrid(n={self.n}, range=[{self.levels[0]:g}, {self.levels[-1]:g}])"


def uniform_grid(n, lo, hi):
    """Equally spaced grid of ``n`` levels including both endpoints."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ConfigError(f"need an integer level count >= 2, got {n!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ConfigError(f"need finite bounds with lo < hi, got ({lo}, {hi})")
    return QuantGrid(np.linspace(lo, hi, n))
