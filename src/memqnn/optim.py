"""Adam moment estimation and the consolidation-gated hidden-weight update.

The optimizer turns raw gradients into bias-corrected unit-scale directions;
the learning rate is applied once, outside, when the hidden weights move. An
update whose direction would push a hidden weight away from its current
quantized level is scaled by the grid's plasticity factor, which is what makes
well-settled synapses progressively harder to dislodge. Updates toward the
level, and all batch-norm updates, are applied at full strength.

The factor is evaluated on every weight in a few in-place passes, with no
gather or scatter: the away mask multiplies the tanh argument, so an update
toward the level gets a factor of exactly 1, and each weight's side slopes
(``2 m* / width``) come from its layer (``DenseLayer.side_slopes``), which
keeps them current instead of gathering them every step. The layer then
re-projects only the weights that left their level (``DenseLayer.set_hidden``),
so a step costs a fixed number of passes over the weights plus work
proportional to the level flips.
"""

from __future__ import annotations

import numpy as np

from .quantgrid import QuantGrid

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
        """Step counter and moment slots; the hyperparameters stay with the caller."""
        state = {"t": np.asarray(self.t)}
        for name, (m, v) in self.slots.items():
            state[f"m.{name}"] = m
            state[f"v.{name}"] = v
        return state

    def load_state_dict(self, state, shapes):
        """Install a ``state_dict``; ``shapes`` maps each parameter name to its shape.

        A slot whose name is not in ``shapes``, or whose moments have another
        shape, raises ``ValueError``. Any other key (``betas_eps`` in older
        checkpoints) is ignored: the constructor's hyperparameters hold.
        """
        t = int(state["t"])
        slots = {}
        for key, value in state.items():
            if key.startswith("m."):
                name = key[2:]
                m, v = np.array(value), np.array(state[f"v.{name}"])
                if name not in shapes or not m.shape == v.shape == tuple(shapes[name]):
                    raise ValueError(f"adam slot {name!r} of shape {m.shape}/{v.shape} fits "
                                     f"no parameter (shape {shapes.get(name)})")
                slots[name] = (m, v)
        self.t, self.slots = t, slots


def metaplastic_update(w_hidden, w_quant, u, grid: QuantGrid, m_star, lr, level_idx=None,
                       slopes=None):
    """One hidden-weight update step; returns the new, clipped hidden weights.

    Elementwise rule: where ``u * (w_hidden - w_quant) < 0`` the step would
    carry the hidden weight away from its level, so it is scaled by the
    plasticity factor evaluated at the current state; everywhere else (the
    equality case included) the plain step applies. ``w_quant`` must be the
    current projection of ``w_hidden``, and ``level_idx`` its level index or
    ``slopes`` its ``grid.side_slopes`` for ``m_star`` (either is derived
    when neither is given). The factor is evaluated on every weight, and is
    exactly 1 off the away branch.
    """
    w = np.asarray(w_hidden)
    if m_star == 0.0:
        return grid.clip_hidden(w - lr * u)
    w, w_quant, u = np.broadcast_arrays(w, w_quant, u)
    scale = grid.plasticity(w, m_star, level_idx, w_quant, slopes, u)
    step = np.asarray(lr * u)
    step = step.astype(np.result_type(step, w), copy=False)
    step *= scale.astype(w.dtype, copy=False)
    del scale
    np.subtract(w, step, out=step)
    return grid.clip_hidden(step)


def bn_update(bn, u_gamma, u_beta, lr):
    """Plain (non-metaplastic) update of the batch-norm gain and shift."""
    if bn.gamma.shape != np.shape(u_gamma) or bn.beta.shape != np.shape(u_beta):
        raise ValueError("batch-norm update shape mismatch")
    bn.gamma -= lr * u_gamma
    bn.beta -= lr * u_beta
