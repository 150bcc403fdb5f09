"""Adam moment estimation and the consolidation-gated hidden-weight update.

The optimizer turns raw gradients into bias-corrected unit-scale directions;
the learning rate is applied once, outside, when the hidden weights move. An
update whose direction would push a hidden weight away from its current
quantized level is scaled by the grid's plasticity factor, which is what makes
well-settled synapses progressively harder to dislodge. Updates toward the
level, and all batch-norm updates, are applied at full strength.

Only the away-branch weights pay for the plasticity factor: the update finds
them in one pass over ``u * (w_hidden - w_quant)`` and evaluates the factor on
that subset alone. The layer then re-projects only the weights that left
their level (``DenseLayer.update_hidden``), so a step costs a few passes over
the weights plus work proportional to the damped updates and level flips.
"""

from __future__ import annotations

import numpy as np

from .quantgrid import MetaParams, QuantGrid

__all__ = ["Adam", "metaplastic_update", "bn_update"]


class Adam:
    """Bias-corrected first/second moment estimates, one slot per parameter.

    ``directions`` consumes a dict of gradients keyed by parameter name and
    returns same-shaped update directions m_hat / (sqrt(v_hat) + eps). Slots
    are created on first use; the step counter is shared across parameters.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.slots = {}

    def directions(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        out = {}
        for name, g in grads.items():
            if name not in self.slots:
                self.slots[name] = (np.zeros_like(g), np.zeros_like(g))
            m, v = self.slots[name]
            if m.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} != slot shape {m.shape} for {name!r}")
            # same operations, in the same order, as
            # m_hat / (sqrt(v_hat) + eps), through one scratch array
            tmp = (1.0 - b1) * g
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            d = m / c1
            d /= tmp
            out[name] = d
        return out

    def state_dict(self):
        state = {"t": np.asarray(self.t),
                 "betas_eps": np.asarray([self.beta1, self.beta2, self.eps])}
        for name, (m, v) in self.slots.items():
            state[f"m.{name}"] = m
            state[f"v.{name}"] = v
        return state

    def load_state_dict(self, state):
        self.t = int(state["t"])
        self.beta1, self.beta2, self.eps = (float(x) for x in state["betas_eps"])
        self.slots = {}
        for key, value in state.items():
            if key.startswith("m."):
                name = key[2:]
                self.slots[name] = (np.array(value), np.array(state[f"v.{name}"]))


def metaplastic_update(w_hidden, w_quant, u, grid: QuantGrid, m_star, lr, level_idx=None):
    """One hidden-weight update step; returns the new, clipped hidden weights.

    Elementwise rule: where ``u * (w_hidden - w_quant) < 0`` the step would
    carry the hidden weight away from its level, so it is scaled by the
    plasticity factor evaluated at the current state; everywhere else (the
    equality case included) the plain step applies. ``w_quant`` must be the
    current projection of ``w_hidden`` (and ``level_idx``, when given, its
    level index). The plasticity factor is evaluated for the away-branch
    weights only, so a toward step costs no transcendental function.
    """
    if isinstance(m_star, MetaParams):
        m_star = m_star.m_star
    w = np.asarray(w_hidden)
    if m_star == 0.0:
        return grid.clip_hidden(w - lr * u)
    w, w_quant, u = np.broadcast_arrays(w, w_quant, u)
    step = np.asarray(lr * u)
    step = step.astype(np.result_type(step, w), order="C", copy=False)
    away = np.flatnonzero(u * (w - w_quant) < 0.0)
    idx = None if level_idx is None else np.take(np.broadcast_to(level_idx, w.shape), away)
    scale = grid.plasticity(np.take(w, away), m_star, idx, np.take(w_quant, away))
    step.reshape(-1)[away] *= scale.astype(w.dtype, copy=False)  # C order: a view
    np.subtract(w, step, out=step)
    return grid.clip_hidden(step)


def bn_update(bn, u_gamma, u_beta, lr):
    """Plain (non-metaplastic) update of the batch-norm gain and shift."""
    if bn.gamma.shape != np.shape(u_gamma) or bn.beta.shape != np.shape(u_beta):
        raise ValueError("batch-norm update shape mismatch")
    bn.gamma -= lr * u_gamma
    bn.beta -= lr * u_beta
