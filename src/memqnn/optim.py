"""Adam moment estimation and the consolidation-gated hidden-weight update.

The optimizer turns raw gradients into bias-corrected unit-scale directions;
the learning rate is applied once, outside, when the hidden weights move. An
update whose direction would push a hidden weight away from its current
quantized level is scaled by the grid's plasticity factor, which is what makes
well-settled synapses progressively harder to dislodge. Updates toward the
level, and all batch-norm updates, are applied at full strength.

``metaplastic_update`` states that rule once, as a full-matrix formula. The
compiled step (``_step.c``) computes its bits, Adam moments included, in a
few loops per layer, reading each weight's slopes through its level index
from the grid's per-level tables (``QuantGrid.slope_tables``); training runs
it wherever a C compiler is found, and the formula is its fallback and its
test oracle. Either way only the weights that left their level are
re-projected: at the end of the library's update loop on the compiled path,
by ``DenseLayer.set_hidden`` on the numpy path.
The library also holds the train-mode batch norm and ReLU that ``net.MLP``
runs; this module builds and loads it once per process, at the first
train-mode forward pass (in training, the first step's).
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


def check_count(a, name):
    """A stored count ``a`` as an int; ValueError unless it is one whole number >= 0."""
    a = np.asarray(a)
    if a.shape or a.dtype.kind not in "iuf" or not (np.isfinite(a) and a >= 0 and a % 1 == 0):
        raise ValueError(f"{name} = {a} is not a whole number >= 0")
    return int(a)


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
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            out[name] = (m / c1) / (np.sqrt(v / c2) + self.eps)
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
        shape, raises ``ValueError``; so do a step count ``t`` that is not a
        whole number >= 0, or is 0 while slots are stored, a moment that is
        not finite and a negative second moment, none of which a step makes.
        A moment without its pair, and at ``t`` > 0 a parameter without a slot
        (a step makes every parameter's), raise ``KeyError`` naming the
        missing moment. Any other key (``betas_eps`` in older checkpoints) is
        ignored: the constructor's hyperparameters hold.
        """
        t = check_count(state["t"], "adam step count t")
        names = dict.fromkeys(key[2:] for key in state if key[:2] in ("m.", "v."))
        if t > 0:
            names.update(dict.fromkeys(shapes))
        slots = {}
        for name in names:
            m, v = np.array(state[f"m.{name}"], order="C"), np.array(state[f"v.{name}"], order="C")
            if name not in shapes or not m.shape == v.shape == tuple(shapes[name]):
                raise ValueError(f"adam slot {name!r} of shape {m.shape}/{v.shape} fits "
                                 f"no parameter (shape {shapes.get(name)})")
            if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
                raise ValueError(f"adam slot {name!r} holds a moment that is not finite")
            if np.any(v < 0):
                raise ValueError(f"adam slot {name!r} holds a negative second moment")
            slots[name] = (m, v)
        if slots and t == 0:
            raise ValueError("adam step count t = 0 with moment slots stored")
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

# -O2 with -O3's vectorizer cost model, and no vector loop of its own for the few
# elements after the last full vector (they run scalar): the loops run as fast
# as at -O3 and build in about half the time. The last two are gcc options;
# clang is meant to ignore them (not tested).
_CFLAGS = ("-O2", "-fvect-cost-model=dynamic", "--param=vect-epilogues-nomask=0",
           "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
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
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    for loop in ("f32", "f64"):  # counts first, then pointers, then double constants
        for name, args, restype in (("step1", [i64] + [ptr] * 11, None),
                                    ("step2", [i64] * 2 + [ptr] * 11, i64),
                                    ("step0", [i64] * 2 + [ptr] * 13, i64),
                                    ("bn_forward", [i64, i64] + [ptr] * 10 + [dbl] * 3, i64),
                                    ("bn_backward", [i64, i64] + [ptr] * 11 + [dbl], i64)):
            fn = getattr(lib, f"{name}_{loop}")
            fn.argtypes = args
            fn.restype = restype
    return lib


_K = 12  # constants in k, in the order of _step.c's K_* names


class _Work:
    """One layer's compiled-step buffers and loops.

    Made at the layer's first compiled step; the hidden weights keep their
    shape and dtype. The new weights go to whichever of two buffers the hidden
    weights are not, so the buffers swap roles each step and an array handed
    to the layer is never written.
    """

    def __init__(self, lib, w):
        loop = "f32" if w.dtype == np.float32 else "f64"
        self.step1, self.step2, self.step0 = (
            getattr(lib, f"{name}_{loop}") for name in ("step1", "step2", "step0"))
        self.pair = (np.empty_like(w), np.empty_like(w))
        self.scratch = np.empty_like(w)  # plasticity's tanh argument
        self.index = np.empty(w.size, dtype=np.int64)  # moved flat indices
        self.k = np.empty(_K, dtype=np.float64)
        self.pair_ptrs = tuple(a.ctypes.data for a in self.pair)
        self.scratch_ptr, self.index_ptr, self.k_ptr = (
            a.ctypes.data for a in (self.scratch, self.index, self.k))


def _level_ptrs(layer):
    """Addresses of the layer's level state and the grid's level tables.

    In ``step0``'s and ``step2``'s order: level_idx, w_quant, lo, hi, then
    the grid's edges and level values.
    """
    return tuple(a.ctypes.data for a in (layer.level_idx, layer.w_quant, *layer._bounds,
                                         *layer.grid.level_tables(layer.w_hidden.dtype)))


def _fused_update(lib, layer, adam, name, g, m_star, lr):
    """Adam on slot ``name``, ``metaplastic_update`` and ``set_hidden``, compiled.

    ``adam.t`` must already count this step (``Adam.directions`` advances it)
    and slot ``name`` be made for ``g`` (``Adam._slots``). Returns the flat
    indices whose level changed, as ``set_hidden`` does; they stay valid until
    the layer's next step. One library call per phase also re-projects the
    moved weights. A non-finite new weight raises ``FloatingPointError`` and
    leaves the layer as it was, its moments updated; a gradient not C-ordered
    in the layer's shape and dtype raises ValueError.
    """
    w, grid = layer.w_hidden, layer.grid
    if (g.dtype, g.shape) != (w.dtype, w.shape) or not g.flags.c_contiguous:
        raise ValueError(f"gradient {g.dtype}{g.shape} does not fit layer {w.dtype}{w.shape}")
    slope, pup, pnl = 0.0, None, None  # a grid of equal widths passes its one slope in k
    if m_star != 0.0:
        check_m_star(m_star)
        up, nl = grid.slope_tables(m_star, w.dtype)
        if np.ndim(up):
            pup, pnl = up.ctypes.data, nl.ctypes.data
        else:
            slope = up
    work = layer._work
    if work is None:
        work = layer._work = _Work(lib, w)
    pm, pv = (a.ctypes.data for a in adam.slots[name])
    levels = _level_ptrs(layer)
    new = 1 if w is work.pair[0] else 0  # the buffer the new weights go to
    pout = work.pair_ptrs[new]
    pw = work.pair_ptrs[1 - new] if w is work.pair[1 - new] else w.ctypes.data
    work.k[:] = (adam.beta1, 1.0 - adam.beta1, adam.beta2, 1.0 - adam.beta2,
                 1.0 - adam.beta1 ** adam.t, 1.0 - adam.beta2 ** adam.t, adam.eps, lr,
                 m_star, slope, grid.hidden_lo, grid.hidden_hi)
    n, pg, pmoved, pk = w.size, g.ctypes.data, work.index_ptr, work.k_ptr
    if m_star == 0.0:
        count = work.step0(n, grid.n, pg, pm, pv, pw, pout, pmoved, pk, *levels)
    else:
        work.step1(n, pg, pm, pv, pw, levels[1], levels[0], pup, pnl, work.scratch_ptr, pout, pk)
        np.tanh(work.scratch, out=work.scratch)
        count = work.step2(n, grid.n, pw, work.scratch_ptr, pout, pmoved, pk, *levels)
    if count < 0:
        raise FloatingPointError("hidden weights must be finite")
    layer.w_hidden = work.pair[new]
    return work.index[:count]
