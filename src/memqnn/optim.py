"""Adam moment estimation and the consolidation-gated hidden-weight update.

The optimizer turns raw gradients into bias-corrected unit-scale directions;
the learning rate is applied once, outside, when the hidden weights move. An
update whose direction would push a hidden weight away from its current
quantized level is scaled by the grid's plasticity factor, which is what makes
well-settled synapses progressively harder to dislodge. Updates toward the
level, and all batch-norm updates, are applied at full strength.

``metaplastic_update`` states that rule once, as a full-matrix formula. The
compiled step (``_step.c``) computes its bits, Adam moments included, in a
few loops per layer, reading the side slopes each layer keeps
(``DenseLayer.side_slopes``); training runs it wherever a C compiler is
found, and the formula is its fallback and its test oracle. Either way the
layer then re-projects only the weights that left their level.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from .quantgrid import QuantGrid, check_m_star

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
        slots = self._slots(grads)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        out = {}
        for (name, g), (m, v) in zip(grads.items(), slots):
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

    def _slots(self, grads):
        """The (m, v) slot of each gradient, in ``grads`` order; missing ones are made.

        Every shape and dtype (the compiled step reads a slot in its gradient's
        dtype) is checked before a slot is made, so a refused call changes nothing.
        """
        for name, g in grads.items():
            m = self.slots[name][0] if name in self.slots else None
            if m is not None and (m.shape, m.dtype) != (np.shape(g), np.asarray(g).dtype):
                raise ValueError(f"gradient {np.asarray(g).dtype}{np.shape(g)} != slot "
                                 f"{m.dtype}{m.shape} for {name!r}")
        for name, g in grads.items():
            if name not in self.slots:
                self.slots[name] = (np.zeros_like(g), np.zeros_like(g))
        return [self.slots[name] for name in grads]

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
                m, v = np.array(value, order="C"), np.array(state[f"v.{name}"], order="C")
                if name not in shapes or not m.shape == v.shape == tuple(shapes[name]):
                    raise ValueError(f"adam slot {name!r} of shape {m.shape}/{v.shape} fits "
                                     f"no parameter (shape {shapes.get(name)})")
                slots[name] = (m, v)
        self.t, self.slots = t, slots


def metaplastic_update(w_hidden, w_quant, u, grid: QuantGrid, m_star, lr, level_idx=None):
    """One hidden-weight update step; returns the new, clipped hidden weights.

    Elementwise rule: where ``u * (w_hidden - w_quant) < 0`` the step would
    carry the hidden weight away from its level, so it is scaled by the
    plasticity factor evaluated at the current state; everywhere else (the
    equality case included) the plain step applies. ``w_quant`` must be the
    current projection of ``w_hidden`` and ``level_idx`` its level index
    (derived when not given).
    """
    w = np.asarray(w_hidden)
    step = lr * u
    if m_star == 0.0:
        return grid.clip_hidden(w - step)
    away = u * (w - w_quant) < 0.0
    scale = grid.plasticity(w, m_star, level_idx, w_quant).astype(w.dtype, copy=False)
    step = step * np.where(away, scale, np.ones((), dtype=w.dtype))
    return grid.clip_hidden(w - step)


def bn_update(bn, u_gamma, u_beta, lr):
    """Plain (non-metaplastic) update of the batch-norm gain and shift."""
    if bn.gamma.shape != np.shape(u_gamma) or bn.beta.shape != np.shape(u_beta):
        raise ValueError("batch-norm update shape mismatch")
    bn.gamma -= lr * u_gamma
    bn.beta -= lr * u_beta


# -- the compiled step -------------------------------------------------------------

_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_lib = None  # the loaded _step.c; False once it could not be built
_build_lock = threading.Lock()


def _step_library():
    """The compiled step, built from ``_step.c`` at the first call; None without one.

    The system ``cc`` builds it into a private directory, removed as soon as
    the library is loaded: nothing is cached on disk, and every process builds
    for its own CPU. Without ``cc`` the numpy path runs; a ``cc`` that fails
    gives one ``RuntimeWarning`` and the numpy path runs too.
    """
    global _lib
    with _build_lock:
        if _lib is None:
            _lib = _build_step() or False
    return _lib or None


def _build_step():
    cc = shutil.which("cc")
    if cc is None:
        return None
    tmp = tempfile.mkdtemp(prefix="memqnn-step-")
    try:
        so = os.path.join(tmp, "_step.so")
        done = subprocess.run([cc, *_CFLAGS, "-o", so, str(Path(__file__).with_name("_step.c"))],
                              capture_output=True, text=True)
        if done.returncode:
            raise OSError(done.stderr.strip())
        lib = ctypes.CDLL(so)
    except OSError as e:
        warnings.warn(f"the compiled step did not build, numpy runs the update: {e}",
                      RuntimeWarning, stacklevel=4)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for loop in ("f32", "f64"):  # a weight count, then pointers; step2 and step0 count moves
        for step, arrays, restype in (("step1", 10, None), ("step2", 7, ctypes.c_int64),
                                      ("step0", 9, ctypes.c_int64)):
            fn = getattr(lib, f"{step}_{loop}")
            fn.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * arrays
            fn.restype = restype
    return lib


def _fused_update(lib, layer, adam, name, g, m_star, lr):
    """Adam on slot ``name``, ``metaplastic_update`` and ``set_hidden``, compiled.

    ``adam.t`` must already count this step (``Adam.directions`` advances it)
    and slot ``name`` be made for ``g`` (``Adam._slots``). Returns the flat
    indices whose level changed, as ``set_hidden`` does; they stay valid until
    the layer's next step. A non-finite new weight raises
    ``FloatingPointError`` and leaves the layer as it was, its moments updated;
    a gradient not C-ordered in the layer's shape and dtype raises ValueError.
    """
    w, grid, (lo, hi) = layer.w_hidden, layer.grid, layer._bounds
    if (g.dtype, g.shape) != (w.dtype, w.shape) or not g.flags.c_contiguous:
        raise ValueError(f"gradient {g.dtype}{g.shape} does not fit layer {w.dtype}{w.shape}")
    m, v = adam.slots[name]
    slopes = layer.side_slopes(m_star)
    out, arg, index = layer._step_buffers()
    up = neg_lower = None  # per-weight slopes; a grid of equal widths passes its one in k
    slope = 0.0
    if m_star != 0.0:
        check_m_star(m_star)
        if np.ndim(slopes[0]):
            up, neg_lower = slopes
        else:
            slope = slopes[0]
    k = np.array([adam.beta1, 1.0 - adam.beta1, adam.beta2, 1.0 - adam.beta2,
                  1.0 - adam.beta1 ** adam.t, 1.0 - adam.beta2 ** adam.t, adam.eps, lr,
                  m_star, slope, grid.hidden_lo, grid.hidden_hi], dtype=np.float64)
    loop = "f32" if w.dtype == np.float32 else "f64"
    if m_star == 0.0:
        count = _run(lib, "step0", loop, w.size, g, m, v, w, out, lo, hi, index, k)
    else:
        _run(lib, "step1", loop, w.size, g, m, v, w, layer.w_quant, up, neg_lower, arg, out, k)
        np.tanh(arg, out=arg)
        count = _run(lib, "step2", loop, w.size, w, arg, out, lo, hi, index, k)
    return layer._relevel(out, index[:count])


def _run(lib, step, loop, n, *arrays):
    """Call the library's ``<step>_<loop>`` on ``n`` weights; None passes a null pointer."""
    return getattr(lib, f"{step}_{loop}")(n, *(None if a is None else a.ctypes.data
                                                for a in arrays))
