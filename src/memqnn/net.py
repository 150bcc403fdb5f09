"""Dense multilayer perceptron computing on level-quantized weights.

Forward and backward passes only ever see the quantized weight matrices (or
the crossbar tiles standing in for them). The high-precision hidden weights
exist for the optimizer alone: gradients are taken with respect to the
quantized values and applied straight through to the hidden copies, so the
forward map is piecewise constant in the hidden weights.

Layer stack for dims (d0, d1, ..., dk): affine -> batch norm -> relu for every
hidden layer, a bare affine for the output scores. No biases; the batch-norm
shift plays that role on hidden layers.

The ReLU is an in-place ``fmax(z, 0)``, not ``np.where`` on the mask ``z > 0``:
a masked select runs a branchy per-element loop, over ten times the cost on
a random mask. Backward needs no mask of its own: the ReLU output, which the
tape records as the next layer's input, is positive exactly where ``z > 0``.

In train mode, where the compiled library of ``optim._step_library`` loads,
a hidden layer's batch norm and ReLU run as one compiled loop forward
(statistics, running statistics, ``xhat`` and the ReLU output) and one
backward (the ReLU gate, ``dgamma``, ``dbeta`` and ``dx``), with the bits of
``BatchNorm`` and the ``fmax`` ReLU. Those stay as the path without a C
compiler and as the loops' test oracle, and they run wherever the loops
cannot give numpy's bits: on a layer 1 wide, because numpy sums a single
column pairwise where the loops (like numpy for 2 or more columns) add row
by row; on a non-finite batch statistic, parameter or backward input,
because numpy's choice between two NaNs depends on the array length; and on
a batch whose dtype is not the batch norm's (a tile of another dtype).
Eval mode is numpy only, so evaluation never builds the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import optim
from .quantgrid import QuantGrid

__all__ = [
    "BatchNorm",
    "DenseLayer",
    "ForwardTape",
    "MLP",
    "softmax_cross_entropy",
    "init_hidden_uniform",
]


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross entropy and its gradient w.r.t. the logits.

    The returned gradient already carries the 1/batch factor.
    """
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    rows = np.arange(n)
    loss = float(-logp[rows, labels].mean())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


_BN_FIELDS = ("gamma", "beta", "running_mean", "running_var")  # a bn_state() tuple


class BatchNorm:
    """Per-feature batch normalization with learnable gain and shift."""

    eps = 1e-5
    momentum = 0.1

    def __init__(self, dim, dtype=np.float64):
        self.gamma = np.ones(dim, dtype=dtype)
        self.beta = np.zeros(dim, dtype=dtype)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)

    def forward(self, x, train):
        """Returns (output, cache); cache is None in eval mode."""
        if train:
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            xhat = (x - mu) / np.sqrt(var + self.eps)
            n = x.shape[0]
            unbiased = var * (n / max(n - 1, 1))
            self.running_mean += self.momentum * (mu - self.running_mean)
            self.running_var += self.momentum * (unbiased - self.running_var)
            return self.gamma * xhat + self.beta, (xhat, var)
        # one new array, the operations in the order of gamma * xhat + beta
        y = x - self.running_mean
        y /= np.sqrt(self.running_var + self.eps)
        y *= self.gamma
        y += self.beta
        return y, None

    def backward(self, dy, cache):
        """Gradients through the minibatch statistics; returns (dx, dgamma, dbeta)."""
        xhat, var = cache
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dxhat = dy * self.gamma
        inv = 1.0 / np.sqrt(var + self.eps)
        dx = inv * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
        return dx, dgamma, dbeta


def _compiled_bn(lib, bn, *batches):
    """True where the compiled batch-norm loops take these (n, d) batches.

    They need the library, C-ordered batches in the batch norm's dtype, n >= 1
    and d >= 2: numpy sums a width-1 column pairwise, not row by row, so a
    width-1 layer runs ``BatchNorm`` and the ``fmax`` ReLU. The batch norm's
    own four arrays are C-ordered in its dtype and width by construction
    (``__init__``, ``MLP.set_bn_state``; ``bn_update`` writes in place).
    """
    n, d = batches[0].shape
    return lib is not None and n >= 1 and d >= 2 and d == bn.gamma.size and all(
        b.dtype == bn.gamma.dtype and b.flags.c_contiguous for b in batches)


def _bn_relu_forward(lib, bn, z):
    """``BatchNorm.forward(z, True)`` and the ReLU, compiled: (relu output, cache).

    None, with no state changed, where ``_compiled_bn`` refuses ``z`` or a
    batch statistic or a parameter is not finite: there only numpy gives
    numpy's NaN bits (``_step.c``).
    """
    if not _compiled_bn(lib, bn, z):
        return None
    n, d = z.shape
    xhat, a = np.empty_like(z), np.empty_like(z)
    var, work = np.empty(d, z.dtype), np.empty(2 * d, z.dtype)  # work: mean, sqrt(var + eps)
    fn = lib.bn_forward_f32 if z.dtype == np.float32 else lib.bn_forward_f64
    pw = work.ctypes.data
    if fn(n, d, z.ctypes.data, bn.gamma.ctypes.data, bn.beta.ctypes.data,
          bn.running_mean.ctypes.data, bn.running_var.ctypes.data, var.ctypes.data,
          xhat.ctypes.data, a.ctypes.data, pw, pw + d * z.itemsize,
          bn.eps, bn.momentum, n / max(n - 1, 1)):
        return None
    return a, (xhat, var)


def _bn_relu_backward(lib, bn, delta, a, cache):
    """The ReLU gate on ``a`` and ``BatchNorm.backward``, compiled: (dx, dgamma, dbeta).

    None where ``_compiled_bn`` refuses the batches or an input is not
    finite, as in ``_bn_relu_forward``.
    """
    xhat, var = cache
    if not _compiled_bn(lib, bn, delta, a, xhat):
        return None
    n, d = delta.shape
    dx, dgamma, dbeta = np.empty_like(delta), np.empty(d, delta.dtype), np.empty(d, delta.dtype)
    work = np.empty(3 * d, delta.dtype)  # the two column means and 1 / sqrt(var + eps)
    fn = lib.bn_backward_f32 if delta.dtype == np.float32 else lib.bn_backward_f64
    pw, step = work.ctypes.data, d * delta.itemsize
    if fn(n, d, delta.ctypes.data, a.ctypes.data, xhat.ctypes.data, var.ctypes.data,
          bn.gamma.ctypes.data, dx.ctypes.data, dgamma.ctypes.data, dbeta.ctypes.data,
          pw, pw + step, pw + 2 * step, bn.eps):
        return None
    return dx, dgamma, dbeta


class DenseLayer:
    """One affine stage: hidden weights, their quantized image, optional BN.

    ``w_quant`` and ``level_idx`` are kept equal to the elementwise
    projection of ``w_hidden`` at all times outside the optimizer step. The
    constructor projects every weight once; ``set_hidden`` keeps the
    invariant by re-projecting only the weights that left their level's
    interval and patching ``w_quant``, ``level_idx`` and the intervals in
    place; the compiled step does the same at the end of its update call.
    The intervals and the level values come from the grid's tables in the
    weights' precision (``QuantGrid.level_tables``), so ``w_quant`` has the
    hidden weights' dtype. The plasticity slopes stay with the grid,
    one per level (``QuantGrid.slope_tables``), and the update reads them
    through ``level_idx``. When a crossbar tile is bound, the matrix
    products route through it instead of ``w_quant``. The hidden weights are
    C-contiguous float32 or float64, as the compiled step needs: an array in
    another order is copied, another dtype raises ``ValueError``. The
    compiled step writes its new weights into two buffers that swap roles
    each step, so an array read from ``w_hidden`` is written over two steps
    later (the numpy path never writes an old array): copy it to keep a
    snapshot.
    """

    def __init__(self, w_hidden, grid: QuantGrid, bn: BatchNorm | None = None):
        w = np.ascontiguousarray(w_hidden)
        if w.dtype not in (np.float32, np.float64):
            raise ValueError(f"hidden weights must be float32 or float64, not {w.dtype}")
        self.grid = grid
        self.bn = bn
        self.tile = None
        self.w_hidden = w
        self.level_idx, self.w_quant = grid.project(w)
        self._bounds = grid.level_bounds(self.level_idx, w.dtype)  # (lo, hi] of each level
        self._work = None  # the compiled step's buffers (optim._Work)

    @property
    def shape(self):
        return self.w_hidden.shape

    def set_hidden(self, w_hidden):
        """Replace the hidden weights; returns the flat indices whose level changed.

        Costs one comparison pass plus work on the weights whose level
        changed: a weight outside the interval (lo, hi] of its current level
        is re-projected, which may jump several levels, and its flat index is
        returned (ascending); every other weight keeps its level. The shape
        and dtype must match the current hidden weights. Non-finite weights
        raise ``FloatingPointError`` and leave the layer unchanged.
        """
        w = np.ascontiguousarray(w_hidden)
        if w.shape != self.w_hidden.shape or w.dtype != self.w_hidden.dtype:
            raise ValueError(f"hidden weights {w.dtype}{w.shape} != layer's "
                             f"{self.w_hidden.dtype}{self.w_hidden.shape}")
        lo, hi = self._bounds
        inside = w > lo
        inside &= w <= hi
        moved = np.flatnonzero(~inside)  # NaN compares false: it moves
        idx, w_quant = self.grid.project(np.take(w, moved))  # raises before any change
        np.put(self.level_idx, moved, idx)
        np.put(self.w_quant, moved, w_quant)
        for bound, new in zip(self._bounds, self.grid.level_bounds(idx, w.dtype)):
            np.put(bound, moved, new)
        self.w_hidden = w
        return moved

    def matmul_forward(self, x):
        if self.tile is not None:
            return self.tile.mvm_forward(x)
        return x @ self.w_quant

    def matmul_backward(self, delta):
        if self.tile is not None:
            return self.tile.mvm_backward(delta)
        return delta @ self.w_quant.T


@dataclass
class ForwardTape:
    """Per-layer intermediates recorded during a training-mode forward pass."""

    inputs: list = field(default_factory=list)       # activation fed to each layer
    bn_caches: list = field(default_factory=list)    # (xhat, var) per hidden layer
    logits: np.ndarray | None = None


class MLP:
    """Quantized-weight perceptron; the last layer has no BN and no activation.

    Built from one hidden-weight matrix per layer; the dims and the dtype
    come from the matrices, which must share one dtype.
    """

    def __init__(self, hidden, grid: QuantGrid):
        shapes = [np.shape(w) for w in hidden]
        if not shapes or any(len(s) != 2 for s in shapes) or any(
                a[1] != b[0] for a, b in zip(shapes, shapes[1:])):
            raise ValueError(f"need chained 2-d weight matrices, got shapes {shapes}")
        dtypes = [np.asarray(w).dtype for w in hidden]
        if len(set(dtypes)) > 1:
            raise ValueError(f"need weight matrices of one dtype, got {dtypes}")
        self.dims = (shapes[0][0], *(s[1] for s in shapes))
        self.grid = grid
        self.dtype = dtypes[0]
        self.layers = []
        for i, w in enumerate(hidden):
            bn = BatchNorm(shapes[i][1], dtype=self.dtype) if i < len(shapes) - 1 else None
            self.layers.append(DenseLayer(w, grid, bn))

    # -- inference ------------------------------------------------------------

    def forward(self, x, train=False, tape: ForwardTape | None = None):
        """Class scores for a batch. Pass a tape in train mode to enable backward."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim != 2 or a.shape[1] != self.dims[0]:
            raise ValueError(f"expected input of shape (batch, {self.dims[0]}), got {a.shape}")
        lib = optim._step_library() if train else None
        for layer in self.layers:
            if tape is not None:
                tape.inputs.append(a)
            z = layer.matmul_forward(a)
            if layer.bn is None:
                a = z
                continue
            out = _bn_relu_forward(lib, layer.bn, z)
            if out is not None:
                a, cache = out
            else:
                zb, cache = layer.bn.forward(z, train)
                a = np.fmax(zb, 0.0, out=zb)  # NaN -> 0, as a masked select gives
                a += 0.0  # the -0.0 fmax may keep -> +0.0; every other value stays
            if tape is not None:
                tape.bn_caches.append(cache)
        return a

    def backward(self, tape: ForwardTape, labels):
        """Loss and gradients w.r.t. quantized weights and BN parameters.

        Gradients are keyed by parameter name: ``w<i>`` for layer i's weights,
        ``bn<i>.gamma``/``bn<i>.beta`` for its batch norm. Requires the tape
        of a training-mode forward pass; the error back-propagation product
        routes through the bound tiles when present.
        """
        if tape is None or tape.logits is None:
            raise RuntimeError("backward needs the tape of a training-mode forward pass")
        loss, delta = softmax_cross_entropy(tape.logits, labels)
        lib = optim._step_library()
        grads = {}
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if layer.bn is not None:
                relu_out, cache = tape.inputs[i + 1], tape.bn_caches[i]
                out = _bn_relu_backward(lib, layer.bn, delta, relu_out, cache)
                if out is None:
                    delta = delta * (relu_out > 0)  # the ReLU output, > 0 where zb > 0
                    out = layer.bn.backward(delta, cache)
                delta, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = out
            grads[f"w{i}"] = tape.inputs[i].T @ delta
            if i > 0:  # the input layer's input gradient is never used
                delta = layer.matmul_backward(delta)
        return loss, grads

    def loss_grads(self, x, y):
        """One supervised step's loss, gradients and logits (train-mode forward inside)."""
        tape = ForwardTape()
        tape.logits = self.forward(x, train=True, tape=tape)
        loss, grads = self.backward(tape, y)
        return loss, grads, tape.logits

    # -- state ----------------------------------------------------------------

    def bn_state(self):
        """Copy of every BN layer's learned and running state.

        Sequential-task evaluation stores one of these per finished task so a
        task is always measured under the normalization it was trained with;
        the synaptic weights themselves are shared across tasks.
        """
        return [tuple(getattr(bn, name).copy() for name in _BN_FIELDS) for bn in self._bns()]

    def set_bn_state(self, state):
        """Install copies of a ``bn_state`` result, cast to the net dtype."""
        bns = self._bns()
        if len(state) != len(bns):
            raise ValueError(f"bn state holds {len(state)} layers, net has {len(bns)}")
        for bn, arrays in zip(bns, state):
            for name, a in zip(_BN_FIELDS, arrays, strict=True):
                a = np.array(a, dtype=self.dtype)
                if a.shape != getattr(bn, name).shape:
                    raise ValueError(f"bn {name} shape {a.shape} != {getattr(bn, name).shape}")
                setattr(bn, name, a)

    def _bns(self):
        return [layer.bn for layer in self.layers if layer.bn is not None]


def init_hidden_uniform(shape, grid: QuantGrid, rng, span=2.0):
    """Hidden weights uniform over the central ``2*span`` quantization intervals.

    Keeps initial quantized weights on the small-magnitude levels with a
    spread wide enough that a useful fraction projects away from zero.
    """
    mid = grid.n // 2
    central = float(grid.widths[max(mid - 1, 0):mid + 1].mean())
    half = span * central
    return rng.uniform(-half, half, size=shape)
