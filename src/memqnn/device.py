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
distributions of the LevelSpec.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, EnduranceWarning

__all__ = ["LevelSpec", "CellArray", "N_LEVELS", "default_levelspec"]

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

    def with_sigma_scale(self, factor):
        """Same means, sigmas scaled by ``factor`` (0 = deterministic)."""
        return LevelSpec(self.means, self.sigmas * float(factor))

    def to_rows(self):
        """(level, mean_uS, sigma_uS) rows for config files."""
        return [[k, float(m), float(s)] for k, (m, s) in enumerate(zip(self.means, self.sigmas))]

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


class CellArray:
    """An array of independent 1T1R cells (a single cell is the shape-(1,) case).

    ``level`` holds the programmed state index, -1 while pristine. ``g`` is
    the conductance sampled at the last program operation; ``ops`` counts
    program operations and is incremented on every program call regardless of
    whether the target equals the current state. Callers that want the
    program-only-on-change policy must select the cells they pass (see the
    crossbar tile). The three state arrays are C-contiguous.
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

        ``where`` selects the cells: None for all of them, a boolean mask, or
        an integer array of strictly ascending flat (C-order) cell indices,
        in which case ``targets`` holds one level per index. An integer array
        is never read as a mask: a 0/1 mask must be passed as booleans, and
        indices that repeat, descend or fall outside the array raise
        ``ValueError``. Every selected cell gets a fresh conductance draw from
        its target level's distribution (clamped at zero) and an op-count
        increment, drawn in ascending flat order. Returns the number of
        program operations performed.
        """
        targets = np.asarray(targets)
        where = None if where is None else np.asarray(where)
        if where is None or where.dtype == bool:
            # targets cover every cell; ``cells`` selects from the flattened state
            targets = np.broadcast_to(targets, self.shape).reshape(-1)
            cells = slice(None) if where is None else (
                np.broadcast_to(where, self.shape).reshape(-1))
            picked = targets[cells]
        elif np.issubdtype(where.dtype, np.integer):
            cells = where.astype(np.intp, copy=False).ravel()
            if cells.size and (cells[0] < 0 or cells[-1] >= self.size
                               or np.any(cells[1:] <= cells[:-1])):
                raise ValueError("cell indices must be strictly ascending flat indices "
                                 f"in 0..{self.size - 1}; pass a boolean array as a mask")
            targets = picked = np.broadcast_to(targets, cells.shape)
        else:
            raise TypeError(f"where must be None, a boolean mask or integer flat indices, "
                            f"not {where.dtype}")
        if targets.size and (targets.min() < 0 or targets.max() >= N_LEVELS):
            raise ValueError(f"target levels must lie in 0..{N_LEVELS - 1}")
        if picked.size == 0:
            return 0
        mu = self.spec.means[picked]
        sd = self.spec.sigmas[picked]
        draws = np.maximum(rng.normal(mu, sd), 0.0)
        # flat views: the state arrays are C-contiguous
        level, g, ops = (a.reshape(-1) for a in (self.level, self.g, self.ops))
        level[cells] = picked
        g[cells] = draws
        counts = ops[cells] + 1
        ops[cells] = counts
        over = int(np.count_nonzero(counts > self.endurance))
        if over:
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
        level = np.asarray(state[prefix + "level"], dtype=np.int8)
        if level.shape != self.shape:
            raise ValueError(f"cell state shape {level.shape} != array shape {self.shape}")
        self.level = level.copy()
        self.g = np.asarray(state[prefix + "g"], dtype=np.float64).reshape(self.shape).copy()
        self.ops = np.asarray(state[prefix + "ops"], dtype=np.int64).reshape(self.shape).copy()
