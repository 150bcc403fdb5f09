"""Spans around calls into memqnn's layers, installed from outside the package.

Only the traced run installs these wrappers. Each wrapper replaces a function
at the name its caller resolves (``memqnn.harness.metaplastic_update``, not
``memqnn.optim.metaplastic_update``) or a method on its class, and times the
call with ``perf_counter``. Wrappers draw no random numbers and pass every
argument and result through unchanged, so a traced episode computes the same
bits as an untraced one; the benchmark checks that.

Spans nest: a layer's self time is its span minus the spans of its children.
Work the benchmark itself does inside a span (counting away-branch updates)
runs under ``untimed`` and is taken out of every span that is open.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from memqnn import data, device, harness, net, optim, quantgrid, xbar

# Span names that carry a ``.L<i>`` layer suffix: the i-th call within one
# root span is layer i. Children without a counter of their own (program
# inside write) inherit the layer of their parent.
LAYER_SPANS = ("optim.update", "quantgrid.plasticity", "quantgrid.project",
             "xbar.write", "device.program")
_COUNTED = ("optim.update", "quantgrid.project", "xbar.write")


class Tracer:
    def __init__(self):
        self.roots = []            # (root name, {metric key: self seconds}, {count: n})
        self.missing = set()       # wrap targets not found in the program
        self.enabled = True        # False: wrappers call straight through
        self._stack = []           # open frames: [name, layer, t0, excluded0, child_s]
        self._excluded = 0.0
        self._self = None
        self._counts = None
        self._calls = None

    def enter(self, name):
        if not self._stack:
            self._self = defaultdict(float)
            self._counts = defaultdict(float)
            self._calls = defaultdict(int)
        layer = None
        if name in _COUNTED:
            layer = self._calls[name]
            self._calls[name] += 1
        elif self._stack:
            layer = self._stack[-1][1]
        self._stack.append([name, layer, perf_counter(), self._excluded, 0.0])

    def exit(self):
        t1 = perf_counter()
        name, layer, t0, excl0, child_s = self._stack.pop()
        dur = (t1 - t0) - (self._excluded - excl0)
        key = f"{name}.L{layer}" if name in LAYER_SPANS and layer is not None else name
        self._self[key] += dur - child_s
        if self._stack:
            self._stack[-1][4] += dur
        else:
            self._self["total:" + name] = dur
            self.roots.append((name, dict(self._self), dict(self._counts)))

    def count(self, key, n):
        self._counts[key] += n

    @contextmanager
    def untimed(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self._excluded += perf_counter() - t0

    def span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.enter(name(args, kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def timed_iter(self, gen, name):
        """Re-yield ``gen``, timing each ``next`` as one root-level span."""
        while True:
            enabled = self.enabled
            if enabled:
                self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                if enabled:
                    self._stack.pop()
                return
            if enabled:
                self.exit()
            yield item


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "net.forward" if train else "net.eval_forward"


@contextmanager
def installed(tracer: Tracer):
    """Wrap memqnn's layer entry points for the duration of the block."""
    def update_with_away(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w_hidden, w_quant, u, _, m_star = args[:5]
            if tracer.enabled and m_star != 0.0:  # plasticity runs on consolidated steps only
                with tracer.untimed():
                    away = np.count_nonzero(u * (w_hidden - w_quant) < 0.0)
                    tracer.count("optim.away", away)
                    tracer.count("optim.plasticity_computed", w_hidden.size)
            return fn(*args, **kwargs)
        return tracer.span(wrapper, "optim.update")

    def batches(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.timed_iter(fn(*args, **kwargs), "data.batch")
        return wrapper

    def span(name):
        return lambda fn: tracer.span(fn, name)

    targets = [
        (harness, "train_step", span("harness.train_step")),
        (harness, "evaluate", span("harness.evaluate")),
        (harness, "build_model", span("harness.build_model")),
        (harness, "ops_histogram", span("harness.ops_histogram")),
        (harness, "save_checkpoint", span("harness.save_checkpoint")),
        (harness, "dump_tiles_tsv", span("xbar.dump_tiles")),
        (harness, "metaplastic_update", update_with_away),
        (harness, "bn_update", span("optim.bn_update")),
        (harness, "load_dataset", span("data.load")),
        (data, "load_dataset", span("data.load")),
        (harness, "batches", batches),
        (data, "batches", batches),
        (optim.Adam, "directions", span("optim.adam")),
        (net.MLP, "forward", lambda fn: tracer.span(fn, _forward_name)),
        (net.MLP, "backward", span("net.backward")),
        (quantgrid.QuantGrid, "plasticity", span("quantgrid.plasticity")),
        (quantgrid.QuantGrid, "project", span("quantgrid.project")),
        (quantgrid.QuantGrid, "clip_hidden", span("quantgrid.clip")),
        (xbar.CrossbarTile, "write_levels", span("xbar.write")),
        (xbar.CrossbarTile, "mvm_forward", span("xbar.mvm")),
        (xbar.CrossbarTile, "mvm_backward", span("xbar.mvm")),
        (xbar.CrossbarTile, "effective_weights", span("xbar.decode")),
        (device.CellArray, "program", span("device.program")),
    ]
    saved = []
    try:
        for owner, attr, make in targets:
            orig = owner.__dict__.get(attr)
            if orig is None:  # renamed or removed: the run fails a check for it
                tracer.missing.add(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
