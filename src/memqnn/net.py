"""Dense multilayer perceptron computing on level-quantized weights.

Forward and backward passes only ever see the quantized weight matrices (or
the crossbar tiles standing in for them). The high-precision hidden weights
exist for the optimizer alone: gradients are taken with respect to the
quantized values and applied straight through to the hidden copies, so the
forward map is piecewise constant in the hidden weights.

Layer stack for dims (d0, d1, ..., dk): affine -> batch norm -> relu for every
hidden layer, a bare affine for the output scores. No biases; the batch-norm
shift plays that role on hidden layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


class BatchNorm:
    """Per-feature batch normalization with learnable gain and shift."""

    def __init__(self, dim, eps=1e-5, momentum=0.1, dtype=np.float64):
        self.gamma = np.ones(dim, dtype=dtype)
        self.beta = np.zeros(dim, dtype=dtype)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)
        self.eps = float(eps)
        self.momentum = float(momentum)

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
        xhat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return self.gamma * xhat + self.beta, None

    def backward(self, dy, cache):
        """Gradients through the minibatch statistics; returns (dx, dgamma, dbeta)."""
        xhat, var = cache
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dxhat = dy * self.gamma
        inv = 1.0 / np.sqrt(var + self.eps)
        dx = inv * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
        return dx, dgamma, dbeta


class DenseLayer:
    """One affine stage: hidden weights, their quantized image, optional BN.

    ``w_quant`` and ``level_idx`` are kept equal to the elementwise
    projection of ``w_hidden`` at all times outside the optimizer step.
    ``set_hidden`` establishes the invariant by projecting every weight;
    ``update_hidden`` re-establishes it after an optimizer step by projecting
    only the weights that left their level's interval, and patches
    ``w_quant`` and ``level_idx`` in place. When a crossbar tile is bound,
    the matrix products route through it instead of ``w_quant``.
    """

    def __init__(self, w_hidden, grid: QuantGrid, bn: BatchNorm | None = None):
        self.grid = grid
        self.bn = bn
        self.tile = None
        self.w_hidden = None
        self.w_quant = None
        self.level_idx = None
        self._bounds = None  # (lo, hi] of each weight's level, built on first update
        self.set_hidden(w_hidden)

    @property
    def shape(self):
        return self.w_hidden.shape

    def set_hidden(self, w_hidden):
        """Replace the hidden weights and project all of them."""
        w = np.asarray(w_hidden)
        level_idx, w_quant = self.grid.project(w)
        self.w_hidden = w
        self.level_idx = level_idx
        self.w_quant = w_quant.astype(w.dtype, copy=False)
        self._bounds = None

    def update_hidden(self, w_hidden):
        """Replace the hidden weights after an optimizer update.

        Same result as ``set_hidden``, at the cost of one comparison pass plus
        work on the weights whose level changed: a weight outside the
        interval (lo, hi] of its current level is re-projected, which may jump
        several levels; every other weight keeps its level. The shape and
        dtype must match the current hidden weights. Non-finite weights raise
        ``FloatingPointError`` and leave the layer unchanged.
        """
        w = np.asarray(w_hidden)
        if w.shape != self.w_hidden.shape or w.dtype != self.w_hidden.dtype:
            raise ValueError(f"update of {w.dtype}{w.shape} != hidden weights "
                             f"{self.w_hidden.dtype}{self.w_hidden.shape}")
        if self._bounds is None:
            self._bounds = self.grid.level_bounds(self.level_idx, w.dtype)
        lo, hi = self._bounds
        inside = w > lo
        inside &= w <= hi
        moved = np.flatnonzero(~inside)  # NaN compares false: it moves, and project raises
        idx, w_quant = self.grid.project(np.take(w, moved))
        np.put(self.level_idx, moved, idx)
        np.put(self.w_quant, moved, w_quant)
        for bound, new in zip(self._bounds, self.grid.level_bounds(idx, w.dtype)):
            np.put(bound, moved, new)
        self.w_hidden = w

    def bind_tile(self, tile):
        if tile.shape != self.w_hidden.shape:
            raise ValueError(f"tile shape {tile.shape} != weight shape {self.w_hidden.shape}")
        self.tile = tile

    def matmul_forward(self, x):
        if self.tile is not None:
            return self.tile.mvm_forward(x)
        if x.shape[-1] != self.w_quant.shape[0]:
            raise ValueError(f"input dim {x.shape[-1]} != fan-in {self.w_quant.shape[0]}")
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
    relu_masks: list = field(default_factory=list)   # post-BN positivity per hidden layer
    logits: np.ndarray | None = None


@dataclass
class LayerGrads:
    w: np.ndarray
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None


class MLP:
    """Quantized-weight perceptron; the last layer has no BN and no activation."""

    def __init__(self, dims, grid: QuantGrid, rng, dtype=np.float64,
                 init_span=2.0, bn_eps=1e-5, bn_momentum=0.1):
        if len(dims) < 2:
            raise ValueError("need at least an input and an output dimension")
        self.dims = tuple(int(d) for d in dims)
        self.grid = grid
        self.dtype = np.dtype(dtype)
        self.layers = []
        for i, (fi, fo) in enumerate(zip(self.dims[:-1], self.dims[1:])):
            w = init_hidden_uniform((fi, fo), grid, rng, span=init_span).astype(self.dtype)
            bn = None
            if i < len(self.dims) - 2:
                bn = BatchNorm(fo, eps=bn_eps, momentum=bn_momentum, dtype=self.dtype)
            self.layers.append(DenseLayer(w, grid, bn))

    # -- inference ------------------------------------------------------------

    def forward(self, x, train=False, tape: ForwardTape | None = None):
        """Class scores for a batch. Pass a tape in train mode to enable backward."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim != 2 or a.shape[1] != self.dims[0]:
            raise ValueError(f"expected input of shape (batch, {self.dims[0]}), got {a.shape}")
        for layer in self.layers:
            if tape is not None:
                tape.inputs.append(a)
            z = layer.matmul_forward(a)
            if layer.bn is None:
                a = z
                continue
            zb, cache = layer.bn.forward(z, train)
            mask = zb > 0
            if tape is not None:
                tape.bn_caches.append(cache)
                tape.relu_masks.append(mask)
            a = np.where(mask, zb, 0.0)
        return a

    def forward_tape(self, x):
        """Training-mode forward; returns (logits, tape)."""
        tape = ForwardTape()
        logits = self.forward(x, train=True, tape=tape)
        tape.logits = logits
        return logits, tape

    def backward(self, tape: ForwardTape, labels):
        """Loss and gradients w.r.t. quantized weights and BN parameters.

        Requires the tape of a training-mode forward pass; the error
        back-propagation product routes through the bound tiles when present.
        """
        if tape is None or tape.logits is None:
            raise RuntimeError("backward needs the tape of a training-mode forward pass")
        loss, delta = softmax_cross_entropy(tape.logits, labels)
        grads = [None] * len(self.layers)
        # output layer: input is the last recorded activation
        a_last = tape.inputs[-1]
        grads[-1] = LayerGrads(w=a_last.T @ delta)
        delta = self.layers[-1].matmul_backward(delta)
        for i in range(len(self.layers) - 2, -1, -1):
            layer = self.layers[i]
            delta = delta * tape.relu_masks[i]
            delta, dgamma, dbeta = layer.bn.backward(delta, tape.bn_caches[i])
            grads[i] = LayerGrads(w=tape.inputs[i].T @ delta, gamma=dgamma, beta=dbeta)
            if i > 0:
                delta = layer.matmul_backward(delta)
        return loss, grads

    def loss_grads(self, x, y):
        """One supervised step's loss and gradients (train-mode forward inside)."""
        logits, tape = self.forward_tape(x)
        loss, grads = self.backward(tape, y)
        return loss, grads, logits

    # -- state ----------------------------------------------------------------

    def bn_state(self):
        """Copy of every BN layer's learned and running state.

        Sequential-task evaluation stores one of these per finished task so a
        task is always measured under the normalization it was trained with;
        the synaptic weights themselves are shared across tasks.
        """
        out = []
        for layer in self.layers:
            if layer.bn is not None:
                bn = layer.bn
                out.append((bn.gamma.copy(), bn.beta.copy(),
                            bn.running_mean.copy(), bn.running_var.copy()))
        return out

    def set_bn_state(self, state):
        bns = [layer.bn for layer in self.layers if layer.bn is not None]
        if len(state) != len(bns):
            raise ValueError(f"bn state holds {len(state)} layers, net has {len(bns)}")
        for bn, (gamma, beta, mean, var) in zip(bns, state):
            bn.gamma = gamma.copy()
            bn.beta = beta.copy()
            bn.running_mean = mean.copy()
            bn.running_var = var.copy()

    def state_dict(self):
        state = {"dims": np.asarray(self.dims), "grid_levels": self.grid.levels}
        for i, layer in enumerate(self.layers):
            state[f"layer{i}.w_hidden"] = layer.w_hidden
            state[f"layer{i}.level_idx"] = layer.level_idx.astype(np.int16)
            if layer.bn is not None:
                bn = layer.bn
                state[f"layer{i}.bn.gamma"] = bn.gamma
                state[f"layer{i}.bn.beta"] = bn.beta
                state[f"layer{i}.bn.running_mean"] = bn.running_mean
                state[f"layer{i}.bn.running_var"] = bn.running_var
        return state

    def load_state_dict(self, state):
        if tuple(state["dims"]) != self.dims:
            raise ValueError(f"checkpoint dims {tuple(state['dims'])} != net dims {self.dims}")
        for i, layer in enumerate(self.layers):
            layer.set_hidden(np.asarray(state[f"layer{i}.w_hidden"], dtype=self.dtype))
            if layer.bn is not None:
                bn = layer.bn
                bn.gamma = np.asarray(state[f"layer{i}.bn.gamma"], dtype=self.dtype)
                bn.beta = np.asarray(state[f"layer{i}.bn.beta"], dtype=self.dtype)
                bn.running_mean = np.asarray(state[f"layer{i}.bn.running_mean"], dtype=self.dtype)
                bn.running_var = np.asarray(state[f"layer{i}.bn.running_var"], dtype=self.dtype)


def init_hidden_uniform(shape, grid: QuantGrid, rng, span=2.0):
    """Hidden weights uniform over the central ``2*span`` quantization intervals.

    Keeps initial quantized weights on the small-magnitude levels with a
    spread wide enough that a useful fraction projects away from zero.
    """
    mid = grid.n // 2
    central = float(grid.widths[max(mid - 1, 0):mid + 1].mean())
    half = span * central
    return rng.uniform(-half, half, size=shape)
