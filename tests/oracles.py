"""Plain full-matrix implementations of the consolidation step, kept as test oracles.

These are the straightforward versions of what the package now does
incrementally: the plasticity factor and the gated update evaluated on every
weight, a full re-projection of the hidden weights, the Adam directions with
one temporary per operation, a crossbar write that encodes and compares every
pair, cell programming through boolean masks, and the per-cell dump formatted
from numpy scalars. The shipped code must reproduce them bit for bit.
"""

import warnings

import numpy as np

from memqnn.device import N_LEVELS
from memqnn.errors import ConfigError, EnduranceWarning
from memqnn.optim import bn_update
from memqnn.quantgrid import MetaParams
from memqnn.xbar import HALF_SPAN


def reference_plasticity(grid, w_hidden, m_star, level_idx=None, w_quant=None):
    if isinstance(m_star, MetaParams):
        m_star = m_star.m_star
    m = float(m_star)
    if not np.isfinite(m) or m < 0:
        raise ConfigError(f"m_star must be finite and >= 0, got {m}")
    w = np.asarray(w_hidden)
    dt = w.dtype if w.dtype.kind == "f" else np.dtype(np.float64)
    if level_idx is None or w_quant is None:
        level_idx, w_quant = grid.project(w)
    idx = np.asarray(level_idx)
    d = np.abs(w - np.asarray(w_quant, dtype=dt))
    above = w >= w_quant
    inv_width = (2.0 * m / grid.widths).astype(dt)
    factor = np.where(
        above,
        inv_width[np.minimum(idx, grid.n - 2)],
        inv_width[np.maximum(idx - 1, 0)],
    )
    arg = np.minimum(factor * d - dt.type(m), dt.type(0))
    t = np.tanh(arg)
    return 1.0 - t * t


def reference_metaplastic_update(w_hidden, w_quant, u, grid, m_star, lr, level_idx=None):
    if isinstance(m_star, MetaParams):
        m_star = m_star.m_star
    w = np.asarray(w_hidden)
    step = lr * u
    if m_star == 0.0:
        return grid.clip_hidden(w - step)
    away = u * (w - w_quant) < 0.0
    scale = reference_plasticity(grid, w, m_star, level_idx, w_quant).astype(w.dtype, copy=False)
    step = step * np.where(away, scale, np.ones((), dtype=w.dtype))
    return grid.clip_hidden(w - step)


def reference_projection(grid, w_hidden):
    """(level_idx, w_quant) as a full re-projection of every hidden weight."""
    w = np.asarray(w_hidden)
    level_idx, w_quant = grid.project(w)
    return level_idx, w_quant.astype(w.dtype, copy=False)


def reference_adam_directions(adam, grads):
    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    c1 = 1.0 - b1 ** adam.t
    c2 = 1.0 - b2 ** adam.t
    out = {}
    for name, g in grads.items():
        if name not in adam.slots:
            adam.slots[name] = (np.zeros_like(g), np.zeros_like(g))
        m, v = adam.slots[name]
        if m.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != slot shape {m.shape} for {name!r}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        out[name] = (m / c1) / (np.sqrt(v / c2) + adam.eps)
    return out


def reference_program(cells, targets, rng, where=None):
    """CellArray.program with boolean-mask selection only."""
    targets = np.broadcast_to(np.asarray(targets), cells.shape)
    if targets.size and (targets.min() < 0 or targets.max() >= N_LEVELS):
        raise ValueError(f"target levels must lie in 0..{N_LEVELS - 1}")
    if where is None:
        where = np.ones(cells.shape, dtype=bool)
    else:
        where = np.broadcast_to(np.asarray(where, dtype=bool), cells.shape)
    picked = targets[where]
    if picked.size == 0:
        return 0
    mu = cells.spec.means[picked]
    sd = cells.spec.sigmas[picked]
    draws = np.maximum(rng.normal(mu, sd), 0.0)
    cells.level[where] = picked.astype(np.int8)
    cells.g[where] = draws
    cells.ops[where] += 1
    over = int(np.count_nonzero(cells.ops[where] > cells.endurance))
    if over:
        warnings.warn(
            f"{over} cell(s) exceeded the endurance budget of {cells.endurance} program ops",
            EnduranceWarning,
            stacklevel=2,
        )
    return int(picked.size)


def reference_encode_levels(k):
    k = np.asarray(k)
    if k.size and (k.min() < -HALF_SPAN or k.max() > HALF_SPAN):
        raise ValueError(f"signed levels must lie in -{HALF_SPAN}..+{HALF_SPAN}")
    plus = np.where(k > 0, k, 0)
    minus = np.where(k < 0, -k, 0)
    return plus, minus


def reference_write_levels(tile, signed_levels):
    """Encode and compare every pair, program the differing cells.

    The tile is reloaded from its own state afterwards, which drops whatever
    it cached about its cells, so the shipped code can take over from here.
    """
    k = np.asarray(signed_levels)
    if k.shape != tile.shape:
        raise ValueError(f"level matrix shape {k.shape} != tile shape {tile.shape}")
    plus_t, minus_t = reference_encode_levels(k)
    ops = reference_program(tile.plus, plus_t, tile.rng, where=tile.plus.level != plus_t)
    ops += reference_program(tile.minus, minus_t, tile.rng, where=tile.minus.level != minus_t)
    tile.load_state_dict(tile.state_dict())
    return ops


def reference_decode(tile):
    """Effective weights decoded afresh from the stored conductances."""
    return (tile.dgrid.gain * (tile.plus.g - tile.minus.g)).astype(tile.dtype, copy=False)


def reference_train_step(mlp, adam, x, y, m_star, lr, dgrid=None):
    """harness.train_step built from the full-matrix pieces above."""
    loss, grads, _ = mlp.loss_grads(x, y)
    gdict = {}
    for i, g in enumerate(grads):
        gdict[f"w{i}"] = g.w
        if g.gamma is not None:
            gdict[f"bn{i}.gamma"] = g.gamma
            gdict[f"bn{i}.beta"] = g.beta
    u = reference_adam_directions(adam, gdict)
    ops = 0
    for i, layer in enumerate(mlp.layers):
        w_new = reference_metaplastic_update(layer.w_hidden, layer.w_quant, u[f"w{i}"],
                                             mlp.grid, m_star, lr, layer.level_idx)
        layer.set_hidden(w_new)
        if layer.bn is not None:
            bn_update(layer.bn, u[f"bn{i}.gamma"], u[f"bn{i}.beta"], lr)
        if layer.tile is not None:
            ops += reference_write_levels(layer.tile, dgrid.signed_levels(layer.level_idx))
    return loss, ops


def reference_dump_tiles_tsv(path, tiles, layer_names=None):
    if layer_names is None:
        layer_names = [f"layer{i}" for i in range(len(tiles))]
    with open(path, "w") as f:
        f.write("layer\trow\tcol\tside\tlevel\tg_uS\tops\n")
        for name, tile in zip(layer_names, tiles):
            for side, cells in (("plus", tile.plus), ("minus", tile.minus)):
                lv = cells.level.ravel()
                g = cells.g.ravel()
                ops = cells.ops.ravel()
                rows, cols = np.unravel_index(np.arange(lv.size), tile.shape)
                for r, c, l, gv, o in zip(rows, cols, lv, g, ops):
                    f.write(f"{name}\t{r}\t{c}\t{side}\t{l}\t{gv:.6f}\t{o}\n")
