"""Plain full-matrix implementations of package code, kept as test oracles.

These are the straightforward versions of what the package does
incrementally or branch-free: a full re-projection of the hidden weights
(where the layer's ``set_hidden`` re-projects only the weights that left
their level), a crossbar write that encodes and compares every pair, cell
programming through boolean masks, the per-cell dump formatted from numpy
scalars, the forward pass with its ReLU as a masked ``np.where`` and its
eval-mode batch norm from out-of-place temporaries, the backward pass gated
on that mask (where the package reads the ReLU output the tape records), the
evaluation pass as one serial loop over its batches, the op histogram through
``np.histogram`` on bucket edges (where the package counts bucket indices
with ``np.bincount``), and a dataset split scaled to floats as one whole
array (where a split keeps its 8-bit pixels and scales each batch). The
shipped code must reproduce them bit for bit. Three rules have no copy here,
because the package states each once as a plain formula: the hidden-weight
rule (``optim.metaplastic_update``), the Adam directions
(``Adam.directions``) and the train-mode batch norm
(``BatchNorm.forward(x, True)``). ``reference_train_step`` and
``reference_forward`` call them, and the compiled step is tested against
them.
"""

import warnings

import numpy as np

from memqnn.device import N_LEVELS
from memqnn.errors import EnduranceWarning
from memqnn.net import ForwardTape, softmax_cross_entropy
from memqnn.optim import bn_update, metaplastic_update
from memqnn.xbar import HALF_SPAN


def reference_projection(grid, w_hidden):
    """(level_idx, w_quant) as a full re-projection of every hidden weight."""
    return grid.project(w_hidden)


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

    The tile is reloaded from its own state afterwards, which decodes its
    cells afresh, so the shipped code can take over from here.
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
    """harness.train_step built from the full-matrix pieces above.

    The layers' levels come from ``reference_projection``, never from
    ``DenseLayer.set_hidden``; their projection intervals are rebuilt from
    those levels, so the shipped code can take over from here.
    """
    loss, grads, _ = mlp.loss_grads(x, y)
    u = adam.directions(grads)
    ops = 0
    for i, layer in enumerate(mlp.layers):
        w_new = metaplastic_update(layer.w_hidden, layer.w_quant, u[f"w{i}"], mlp.grid,
                                   m_star, lr, layer.level_idx)
        layer.level_idx, layer.w_quant = reference_projection(mlp.grid, w_new)
        layer.w_hidden = w_new
        layer._bounds = mlp.grid.level_bounds(layer.level_idx, w_new.dtype)
        if layer.bn is not None:
            bn_update(layer.bn, u[f"bn{i}.gamma"], u[f"bn{i}.beta"], lr)
        if layer.tile is not None:
            ops += reference_write_levels(layer.tile, dgrid.signed_levels(layer.level_idx))
    return loss, ops


def reference_dump_tiles_tsv(path, tiles):
    with open(path, "w") as f:
        f.write("layer\trow\tcol\tside\tlevel\tg_uS\tops\n")
        for i, tile in enumerate(tiles):
            for side, cells in (("plus", tile.plus), ("minus", tile.minus)):
                lv = cells.level.ravel()
                g = cells.g.ravel()
                ops = cells.ops.ravel()
                rows, cols = np.unravel_index(np.arange(lv.size), tile.shape)
                for r, c, l, gv, o in zip(rows, cols, lv, g, ops):
                    f.write(f"layer{i}\t{r}\t{c}\t{side}\t{l}\t{gv:.6f}\t{o}\n")


def reference_bn_forward(bn, x):
    """BatchNorm.forward(x, False) from out-of-place temporaries."""
    xhat = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    return bn.gamma * xhat + bn.beta


def reference_forward(mlp, x, train=False, tape=None, masks=None):
    """MLP.forward with the ReLU as a select on the positivity mask.

    Same signature as the method, so it can stand in for ``MLP.forward``;
    ``masks``, when given, collects each hidden layer's mask ``zb > 0``.
    """
    a = np.asarray(x, dtype=mlp.dtype)
    if a.ndim != 2 or a.shape[1] != mlp.dims[0]:
        raise ValueError(f"expected input of shape (batch, {mlp.dims[0]}), got {a.shape}")
    for layer in mlp.layers:
        if tape is not None:
            tape.inputs.append(a)
        z = layer.matmul_forward(a)
        if layer.bn is None:
            a = z
            continue
        if train:
            zb, cache = layer.bn.forward(z, True)
        else:
            zb, cache = reference_bn_forward(layer.bn, z), None
        mask = zb > 0
        if tape is not None:
            tape.bn_caches.append(cache)
        if masks is not None:
            masks.append(mask)
        a = np.where(mask, zb, 0.0)
    return a


def reference_loss_grads(mlp, x, labels):
    """MLP.loss_grads from reference_forward, backward gating each hidden
    layer's error on its batch-norm output ``zb > 0``."""
    tape, masks = ForwardTape(), []
    loss, delta = softmax_cross_entropy(reference_forward(mlp, x, True, tape, masks), labels)
    last = len(mlp.layers) - 1
    grads = {f"w{last}": tape.inputs[-1].T @ delta}
    delta = mlp.layers[-1].matmul_backward(delta)
    for i in range(last - 1, -1, -1):
        delta = delta * masks[i]
        delta, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = mlp.layers[i].bn.backward(
            delta, tape.bn_caches[i])
        grads[f"w{i}"] = tape.inputs[i].T @ delta
        if i > 0:
            delta = mlp.layers[i].matmul_backward(delta)
    return loss, grads


def reference_images(split):
    """The whole split's pixels scaled to [0, 1] in its dtype, as one float array."""
    return split.pixels.astype(split.dtype) / split.dtype.type(255)


def reference_evaluate(mlp, split, eval_batch=1000, bn_state=None):
    """harness.evaluate as one serial loop over the batches, on the calling thread."""
    live = mlp.bn_state() if bn_state is not None else None
    try:
        if bn_state is not None:
            mlp.set_bn_state(bn_state)
        images = reference_images(split)
        correct = 0
        for start in range(0, len(split), eval_batch):
            logits = mlp.forward(images[start:start + eval_batch], train=False)
            correct += int((logits.argmax(axis=1)
                            == split.labels[start:start + eval_batch]).sum())
        return 100.0 * correct / len(split)
    finally:
        if live is not None:
            mlp.set_bn_state(live)


def reference_ops_histogram(counts, bucket_width):
    """harness.ops_histogram's rows for a flat array of op counts, from bucket edges."""
    n_buckets = int(counts.max() // bucket_width) + 1
    edges = np.arange(n_buckets + 1) * bucket_width
    hist, _ = np.histogram(counts, bins=edges)
    pct = 100.0 * hist / counts.size
    return [(int(edges[i]), int(edges[i + 1]), float(pct[i])) for i in range(n_buckets)]
