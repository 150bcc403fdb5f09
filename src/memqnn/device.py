"""Behavioral model of multi-level 1T1R memristor cells.

Each cell stores one of nine states: the low-conductance state (level 0) or
one of eight high-conductance states (levels 1..8) reached with increasing
compliance current. Programming is single shot: one pulse, one draw from the
state's conductance distribution, no program-verify loop. The resulting
conductance stays frozen until the next program operation. Endurance is
tracked as a per-cell counter of program operations against a budget; blowing
the budget warns rather than aborts.

Conductances are in microsiemens. No drift, relaxation or pulse-shape physics
is modeled; variability enters exclusively through the per-level normal
distributions of the LevelSpec. A program call draws all its cells as one
standard-normal fill, scaled and shifted per cell by its level's sigma and
mean, which is the stream and the bits of a per-cell ``rng.normal`` draw.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, EnduranceWarning

__all__ = ["LevelSpec", "CellArray", "N_LEVELS", "default_levelspec", "flat_indices"]

N_LEVELS = 9  # LCS plus eight compliance-current-defined HCS states

DEFAULT_ENDURANCE = 100_000


class LevelSpec:
    """Mean/standard deviation of the programmed conductance per level.

    Means must be strictly increasing with level index so conductance order
    reflects state order; overlap of the distributions is allowed and nothing
    downstream may assume separability. Sigma zero gives the deterministic
    limit used by the equivalence oracles.
    """

    def __init__(self, means_uS, sigmas_uS):
        means = np.asarray(means_uS, dtype=np.float64)
        sigmas = np.asarray(sigmas_uS, dtype=np.float64)
        if means.shape != (N_LEVELS,) or sigmas.shape != (N_LEVELS,):
            raise ConfigError(f"level spec needs exactly {N_LEVELS} (mean, sigma) rows")
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(sigmas)):
            raise ConfigError("level means and sigmas must be finite")
        if not np.all(np.diff(means) > 0):
            raise ConfigError("level means must be strictly increasing")
        if np.any(means < 0) or np.any(sigmas < 0):
            raise ConfigError("conductances and sigmas must be non-negative")
        self.means = means
        self.sigmas = sigmas
        self.means.flags.writeable = False
        self.sigmas.flags.writeable = False

    @classmethod
    def from_rows(cls, rows):
        rows = sorted((int(k), float(m), float(s)) for k, m, s in rows)
        if [r[0] for r in rows] != list(range(N_LEVELS)):
            raise ConfigError(f"level rows must cover levels 0..{N_LEVELS - 1} exactly")
        return cls([r[1] for r in rows], [r[2] for r in rows])

    def __repr__(self):
        return f"LevelSpec(means={self.means.round(2).tolist()})"


def default_levelspec(sigma_frac=0.08):
    """Working defaults: LCS at 2 uS, HCS ladder 20..90 uS, sigma 8% of mean.

    These numbers are configuration, not measurement; any strictly monotone
    spec is equally valid and the property suite treats them as free
    parameters.
    """
    means = np.concatenate(([2.0], np.linspace(20.0, 90.0, N_LEVELS - 1)))
    return LevelSpec(means, sigma_frac * means)


def flat_indices(where, size):
    """Integer ``where`` as strictly ascending flat (C-order) indices below ``size``.

    A size-0 ``where`` (``[]`` or ``()`` included) selects nothing; a boolean
    mask, or a non-empty array of any other non-integer dtype, is a
    ``TypeError``.
    """
    idx = _integers(where, "where must be None or integer flat indices")
    idx = idx.astype(np.intp, copy=False).ravel()
    if idx.size and (idx[0] < 0 or idx[-1] >= size or (idx[1:] <= idx[:-1]).any()):
        raise ValueError(f"indices must be strictly ascending flat indices in 0..{size - 1}")
    return idx


def _integers(a, message):
    """``a`` as an array, refused with ``TypeError`` unless integer or size-0 non-bool."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and (a.size or a.dtype.kind == "b"):
        raise TypeError(f"{message}, not {a.dtype}")
    return a


class CellArray:
    """An array of independent 1T1R cells (a single cell is the shape-(1,) case).

    ``level`` holds the programmed state index, -1 while pristine. ``g`` is
    the conductance sampled at the last program operation; ``ops`` counts
    program operations and is incremented on every program call regardless of
    whether the target equals the current state. Callers that want the
    program-only-on-change policy must select the cells they pass (see the
    crossbar tile). The three state arrays are C-contiguous. ``load_state_dict``
    refuses a level outside -1..8, an op count that is not a whole number
    >= 0 and a conductance that is negative or not finite.
    """

    def __init__(self, shape, spec: LevelSpec, endurance=DEFAULT_ENDURANCE):
        self.spec = spec
        self.shape = tuple(shape)
        self.level = np.full(self.shape, -1, dtype=np.int8)
        self.g = np.zeros(self.shape, dtype=np.float64)
        self.ops = np.zeros(self.shape, dtype=np.int64)
        self.endurance = int(endurance)

    @property
    def size(self):
        return self.level.size

    def program(self, targets, rng, where=None):
        """Single-shot program of the selected cells.

        ``where`` selects the cells: None for all of them, or flat indices
        checked by ``flat_indices`` (a boolean mask is a ``TypeError``), in
        which case ``targets`` holds one level per index. ``targets`` must
        hold integers: a boolean, float or object array is a ``TypeError``,
        raised before any draw. Every selected cell gets a fresh conductance
        draw from its target level's distribution (clamped at zero) and an
        op-count increment. The draws are one ``rng.standard_normal`` fill in
        ascending flat order, scaled by each target's sigma and shifted by its
        mean: the bits ``rng.normal(mean, sigma)`` gives, from the same
        stream. Returns the number of program operations performed.
        """
        targets = _integers(targets, "target levels must be integers")
        if where is None:
            cells, shape = slice(None), self.shape
        else:
            cells = flat_indices(where, self.size)
            shape = cells.shape
        if targets.shape != shape:  # one level for every cell
            targets = np.broadcast_to(targets, shape)
        picked = targets.reshape(-1)
        if picked.size == 0:
            return 0
        if picked.min() < 0 or picked.max() >= N_LEVELS:
            raise ValueError(f"target levels must lie in 0..{N_LEVELS - 1}")
        # flat views: the state arrays are C-contiguous
        level, g, ops = (a.reshape(-1) for a in (self.level, self.g, self.ops))
        # a program of every cell draws straight into g
        draws = rng.standard_normal(out=g) if where is None else rng.standard_normal(picked.size)
        table_idx = picked.astype(np.intp, copy=False)  # take casts other ints slowly
        draws *= self.spec.sigmas.take(table_idx)
        draws += self.spec.means.take(table_idx)
        np.maximum(draws, 0.0, out=draws)
        level[cells] = picked
        if where is None:
            ops += 1
            counts = ops
        else:
            g[cells] = draws
            counts = ops.take(cells)
            counts += 1
            ops[cells] = counts
        if counts.max() > self.endurance:
            over = int(np.count_nonzero(counts > self.endurance))
            warnings.warn(
                f"{over} cell(s) exceeded the endurance budget of {self.endurance} program ops",
                EnduranceWarning,
                stacklevel=2,
            )
        return int(picked.size)

    def read(self, rng=None, noise_sigma=0.0):
        """Stored conductances, optionally perturbed by zero-mean read noise.

        Noisy reads are clamped at zero; the stored state is never modified.
        """
        if noise_sigma:
            if rng is None:
                raise ValueError("read noise requires an rng")
            return np.maximum(self.g + rng.normal(0.0, noise_sigma, self.shape), 0.0)
        return self.g.copy()

    def state_dict(self, prefix=""):
        return {prefix + "level": self.level, prefix + "g": self.g, prefix + "ops": self.ops}

    def load_state_dict(self, state, prefix=""):
        stored = {name: np.asarray(state[prefix + name]) for name in ("level", "g", "ops")}
        for name, a in stored.items():
            if a.shape != self.shape:
                raise ValueError(f"{prefix}{name} shape {a.shape} != cell array shape {self.shape}")
            if a.dtype.kind not in "iuf":
                raise ValueError(f"{prefix}{name} holds {a.dtype} values, not numbers")
        level, g, ops = stored.values()
        # checked before the casts, which would wrap or truncate a value that does not fit
        if not ((level >= -1) & (level < N_LEVELS) & (level == np.floor(level))).all():
            raise ValueError(f"{prefix}level holds a level outside -1..{N_LEVELS - 1}")
        if (ops < 0).any():
            raise ValueError(f"{prefix}ops holds a negative op count {ops.min()}")
        if not ((ops <= np.iinfo(np.int64).max) & (ops == np.floor(ops))).all():
            raise ValueError(f"{prefix}ops holds an op count that is not a whole number")
        if not ((g >= 0) & (g < np.inf)).all():  # NaN fails both; -0.0 and 0 pass
            raise ValueError(f"{prefix}g holds a conductance that is negative or not finite")
        self.level = level.astype(np.int8, order="C")
        self.g = g.astype(np.float64, order="C")
        self.ops = ops.astype(np.int64, order="C")
