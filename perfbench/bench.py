"""Closed-loop episodes over memqnn's public API, their checks and their metrics.

One episode is a complete, seeded run of a workload's schedule from a fresh
set-up: load both tasks, build the model, pretrain task A at m*=0, train A
consolidated, then B, evaluating both tasks at phase ends and every
``eval_every`` steps, and write the final outputs. Every episode of a run uses
the same seed, so its simulated statistics (program ops, accuracies, final
levels) must repeat bit for bit; that is one of the checks. A run repeats
episodes until ``seconds`` have passed, at least ``MIN_EPISODES`` times, and
reports percentiles over all of them.

The step-loop workloads drive ``harness.train_step`` / ``harness.evaluate``
/ ``harness.build_model`` directly. ``sequential-run`` calls
``harness.run_sequential`` and times it at three boundaries it resolves by
name (``train_step``, ``evaluate``, ``batches``); those three thin timers are
the measurement, not tracing, and are present in the untraced run too.

In a traced run the first episode is untraced. Later episodes trace all
work outside the training steps and every other step, so the traced and
untraced steps interleave and the run measures its own tracing overhead. The
check that every episode repeats the first one's results shows that tracing
changes none.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from memqnn import data, harness, optim, xbar
from memqnn.data import TaskSpec

from . import tracing
from .workloads import TASKS, Workload, write_task_pair

MIN_EPISODES = 3
SETUP_REPEATS = 3           # set-ups per step-loop episode, for a steadier setup_s
SAMPLES_PER_EPOCH = 60_000
EVAL_SAMPLES = 10_000

# (name, unit, better) of the end-to-end metrics; BENCHMARK.json bounds each.
# The times after set-up are each a sum or mean over one episode, then the
# median over the run's episodes. The cores of the machine the bounds were
# set on run at two speeds; a sum or mean over many steps moves smoothly with
# the share of time spent slow, while a percentile of single steps jumps
# between the two speeds.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_epoch_s", "s", "lower"),
    ("eval_pass_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# (name, unit) of figures the record gives beside them, unbounded. Over ten
# seeds their quartile spread reached 0.23 (step_ms_p50, sequential-run), 0.21
# (step_ms_p90, exact-desk) and 0.28 (finalize_s, sequential-run: one ~2 s
# stretch per episode) of the median, near or past the largest bound a metric
# may have. run_s holds the output writing of finalize_s.
UNBOUNDED = (("step_ms_p50", "ms"), ("step_ms_p90", "ms"), ("finalize_s", "s"))

N_LAYERS = 3
_L = [f".L{i}" for i in range(N_LAYERS)]
# (name, unit) of every per-layer metric of the traced run.
PER_LAYER = tuple(
    [(f"optim.update_ms{s}", "ms") for s in _L]
    + [(f"quantgrid.plasticity_ms{s}", "ms") for s in _L]
    + [(f"quantgrid.project_ms{s}", "ms") for s in _L]
    + [("quantgrid.clip_ms", "ms"), ("optim.adam_ms", "ms"), ("optim.bn_update_ms", "ms"),
       ("optim.away_frac", "%"),
       ("net.forward_ms", "ms"), ("net.backward_ms", "ms"), ("net.eval_forward_ms", "ms")]
    + [(f"xbar.write_ms{s}", "ms") for s in _L]
    + [("xbar.mvm_ms", "ms"), ("xbar.decode_ms", "ms")]
    + [(f"xbar.flip_frac{s}", "%") for s in _L]
    + [("xbar.pairs_programmed", "count")]
    + [(f"device.program_ms{s}", "ms") for s in _L]
    + [("device.program_ops", "count"), ("device.max_cell_ops", "count"),
       ("data.load_ms", "ms"), ("data.batch_ms", "ms"),
       ("harness.build_model_ms", "ms"), ("harness.train_step_self_ms", "ms"),
       ("harness.evaluate_ms", "ms"), ("harness.ops_histogram_ms", "ms"),
       ("harness.save_checkpoint_ms", "ms"), ("xbar.dump_tiles_ms", "ms"),
       ("trace.step_ms_p50", "ms"), ("trace.overhead_pct", "%"),
       ("trace.accounted_pct", "%")]
)



class Checks:
    """Correctness checks; every check attempted counts toward ``fail_frac``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)


class StepChecker:
    """Invariants checked after every training step of one episode."""

    def __init__(self, checks: Checks, mlp, dgrid):
        self.checks = checks
        self.dgrid = dgrid
        self.tiles = [layer.tile for layer in mlp.layers if layer.tile is not None]
        self.ops_total = sum(t.total_ops() for t in self.tiles)
        self.flips = np.zeros(len(mlp.layers), dtype=np.int64)
        self.steps = 0
        self.step_ops = 0

    def after_step(self, mlp, loss, ops, old_idx):
        c = self.checks
        grid = mlp.grid
        c.expect(np.isfinite(loss), f"step {self.steps}: loss {loss} not finite")
        for i, layer in enumerate(mlp.layers):
            w = layer.w_hidden
            idx = grid.project_idx(w)
            c.expect(np.array_equal(layer.w_quant, grid.levels[idx].astype(w.dtype))
                     and np.array_equal(layer.level_idx, idx),
                     f"step {self.steps} L{i}: w_quant is not the projection of w_hidden")
            # bounds in the weight dtype: clip_hidden clips float32 weights to them
            lo, hi = w.dtype.type(grid.hidden_lo), w.dtype.type(grid.hidden_hi)
            c.expect(bool(w.min() >= lo and w.max() <= hi),
                     f"step {self.steps} L{i}: hidden weight outside [{lo}, {hi}]")
            if layer.tile is not None:
                plus, minus = xbar.encode_levels(self.dgrid.signed_levels(layer.level_idx))
                c.expect(np.array_equal(layer.tile.plus.level, plus)
                         and np.array_equal(layer.tile.minus.level, minus),
                         f"step {self.steps} L{i}: tile levels differ from encode_levels")
            self.flips[i] += np.count_nonzero(layer.level_idx != old_idx[i])
        if self.tiles:
            total = sum(t.total_ops() for t in self.tiles)
            c.expect(total == self.ops_total + ops,
                     f"step {self.steps}: train_step reported {ops} ops, tiles gained "
                     f"{total - self.ops_total}")
            self.ops_total = total
        self.steps += 1
        self.step_ops += ops


@dataclass
class Episode:
    """Host times and simulated results of one episode."""

    traced: bool
    setup_s: list = field(default_factory=list)
    run_s: float = 0.0
    finalize_s: float = 0.0
    check_s: float = 0.0
    step_s: list = field(default_factory=list)
    step_traced: list = field(default_factory=list)
    batch_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    samples: int = 0
    simulated: dict = field(default_factory=dict)
    flips: np.ndarray | None = None
    step_ops: int = 0
    synapses: list = field(default_factory=list)


def experiment_config(w: Workload, seed, data_dir, out_dir):
    return harness.ExperimentConfig(
        dims=w.dims, grid_source=w.grid_source, weight_source=w.mode,
        pretrain_epochs=w.pretrain_epochs,
        tasks=[TaskSpec(TASKS[0], max(w.pretrain_epochs + w.a_epochs, 1)),
               TaskSpec(TASKS[1], max(w.b_epochs, 1))],
        seed=seed, data_dir=str(data_dir), out_dir=str(out_dir),
    ).validate()


def _simulated(mlp, cfg, program_ops, acc_a, acc_b):
    digest = hashlib.sha256()
    for layer in mlp.layers:
        digest.update(np.ascontiguousarray(layer.level_idx, dtype=np.int16).tobytes())
    tiles = [layer.tile for layer in mlp.layers if layer.tile is not None]
    max_ops = max((int(t.ops_per_cell().max()) for t in tiles), default=0)
    return {
        "program_ops": int(program_ops),
        "max_cell_ops": max_ops,
        "max_cell_ops_frac": max_ops / cfg.endurance,
        "retention_pct": float(acc_a),
        "new_task_pct": float(acc_b),
        "levels_sha256": digest.hexdigest(),
    }


def _rngs(seed):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def _timed_step(ep, checker, tracer, step_fn, mlp, adam, x, y, m_star, lr, dgrid):
    """One train_step: timed, then checked; a traced episode traces every other step."""
    t0 = perf_counter()
    old_idx = [layer.level_idx.copy() for layer in mlp.layers]
    traced = tracer is not None and len(ep.step_s) % 2 == 1
    if tracer is not None:
        tracer.enabled = traced
    t1 = perf_counter()
    loss, ops = step_fn(mlp, adam, x, y, m_star, lr, dgrid)
    t2 = perf_counter()
    if tracer is not None:
        tracer.enabled = True
    checker.after_step(mlp, loss, ops, old_idx)
    ep.check_s += (t1 - t0) + (perf_counter() - t2)
    ep.step_s.append(t2 - t1)
    ep.step_traced.append(traced)
    ep.samples += len(y)
    return loss, ops


def step_loop_episode(w, cfg, ep: Episode, checks: Checks, out_dir, tracer):
    """Set up, train the three phases through harness.train_step, evaluate, finalize."""
    dtype = np.dtype(cfg.dtype)
    for _ in range(SETUP_REPEATS):  # identical set-ups; the last one is trained
        train = test = mlp = adam = None  # free the previous set-up: peak RSS of one
        t_start = perf_counter()
        init_rng, data_rng, device_rng = _rngs(cfg.seed)
        train, test = {}, {}
        for task in TASKS:
            task_dir = Path(cfg.data_dir) / task
            train[task] = data.load_dataset(task_dir, "train", name=task, dtype=dtype)
            test[task] = data.load_dataset(task_dir, "test", name=task, dtype=dtype)
        mlp, dgrid, init_ops = harness.build_model(cfg, init_rng, device_rng)
        adam = optim.Adam(cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        ep.setup_s.append(perf_counter() - t_start)

    checker = StepChecker(checks, mlp, dgrid)
    snapshots = {}
    accs = {}
    phases = (("A", 0.0, w.pretrain_steps), ("A", cfg.m_star, w.a_steps),
              ("B", cfg.m_star, w.b_steps))
    for task, m_eff, n_steps in phases:
        batches = data.batches(train[task], cfg.batch_size, data_rng)
        for i in range(1, n_steps + 1):
            t0 = perf_counter()
            try:
                x, y = next(batches)
            except StopIteration:
                batches = data.batches(train[task], cfg.batch_size, data_rng)
                x, y = next(batches)
            ep.batch_s.append(perf_counter() - t0)
            _timed_step(ep, checker, tracer, harness.train_step,
                        mlp, adam, x, y, m_eff, cfg.lr, dgrid)
            if i % w.eval_every and i < n_steps:
                continue
            if i == n_steps and m_eff and task == "A":
                snapshots["A"] = mlp.bn_state()
            for name in TASKS:
                t0 = perf_counter()
                accs[name] = harness.evaluate(mlp, test[name], cfg.eval_batch,
                                              bn_state=snapshots.get(name))
                ep.eval_s.append((perf_counter() - t0) * EVAL_SAMPLES / len(test[name]))

    t0 = perf_counter()
    program_ops = init_ops + checker.step_ops
    harness.save_checkpoint(Path(out_dir) / "checkpoint.npz", cfg, mlp, adam, data_rng,
                            device_rng, 0, program_ops, bn_snapshots=snapshots)
    if checker.tiles:
        harness.ops_histogram(checker.tiles)
    t1 = perf_counter()
    ep.finalize_s = t1 - t0
    ep.run_s = t1 - t_start - ep.check_s
    _finish(ep, checker, mlp, cfg, program_ops, accs)


def _finish(ep, checker, mlp, cfg, program_ops, accs):
    ep.simulated = _simulated(mlp, cfg, program_ops, accs["A"], accs["B"])
    ep.flips = checker.flips
    ep.step_ops = checker.step_ops
    ep.synapses = [layer.w_hidden.size for layer in mlp.layers]


def sequential_episode(w, cfg, ep: Episode, checks: Checks, out_dir, tracer):
    """One harness.run_sequential, timed at its train_step/evaluate/batches boundaries."""
    state = {"checker": None, "mlp": None, "first_step": None, "last_eval_end": None}
    orig_step, orig_eval, orig_batches = harness.train_step, harness.evaluate, harness.batches

    def train_step(mlp, adam, x, y, m_star, lr, dgrid=None):
        if state["checker"] is None:
            state["first_step"] = perf_counter()
            state["checker"] = StepChecker(checks, mlp, dgrid)
            state["mlp"] = mlp
            ep.check_s += perf_counter() - state["first_step"]
        return _timed_step(ep, state["checker"], tracer, orig_step,
                           mlp, adam, x, y, m_star, lr, dgrid)

    def evaluate(mlp, split, eval_batch=1000, bn_state=None):
        t0 = perf_counter()
        acc = orig_eval(mlp, split, eval_batch, bn_state=bn_state)
        state["last_eval_end"] = t1 = perf_counter()
        ep.eval_s.append((t1 - t0) * EVAL_SAMPLES / len(split))
        return acc

    def batches(split, batch_size, rng):
        gen = orig_batches(split, batch_size, rng)
        while True:
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            ep.batch_s.append(perf_counter() - t0)
            yield item

    harness.train_step, harness.evaluate, harness.batches = train_step, evaluate, batches
    try:
        t_start = perf_counter()
        result = harness.run_sequential(cfg)
        t_end = perf_counter()
    finally:
        harness.train_step, harness.evaluate, harness.batches = (
            orig_step, orig_eval, orig_batches)
    ep.setup_s.append(state["first_step"] - t_start)
    ep.finalize_s = t_end - state["last_eval_end"]
    ep.run_s = t_end - t_start - ep.check_s
    _finish(ep, state["checker"], state["mlp"], cfg, result.cum_ops,
            {t: result.final_accuracy(t) for t in TASKS})


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def end_to_end(episodes):
    """Bounded metrics and unbounded figures, as two {name: {value, unit}} dicts."""
    steps_ms = 1e3 * np.concatenate([e.step_s for e in episodes])
    epoch_s = [(sum(e.step_s) + sum(e.batch_s)) / e.samples * SAMPLES_PER_EPOCH
               for e in episodes]
    values = {
        "setup_s": _median([s for e in episodes for s in e.setup_s]),
        "train_epoch_s": _median(epoch_s),
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        "eval_pass_s": _median([np.mean(e.eval_s) for e in episodes]),
        "run_s": _median([e.run_s for e in episodes]),
        "finalize_s": _median([e.finalize_s for e in episodes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    bounded = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    unbounded = {name: {"value": values[name], "unit": unit} for name, unit in UNBOUNDED}
    return bounded, unbounded


def per_layer(tracer: tracing.Tracer, traced, crossbar):
    """Per-step medians of self time from the traced steps, plus traffic counts."""
    roots = {}
    for name, selfs, counts in tracer.roots:
        roots.setdefault(name, []).append((selfs, counts))

    def med(root, key, total=False):
        k = ("total:" + key) if total else key
        return 1e3 * _median([s.get(k, 0.0) for s, _ in roots.get(root, [])])

    v = {}
    steps = roots.get("harness.train_step", [])
    keys = {k for s, _ in steps for k in s if not k.startswith("total:")}
    for key in keys:
        base, _, layer = key.partition(".L")
        v[base + "_ms" + (f".L{layer}" if layer else "")] = med("harness.train_step", key)
    v["harness.train_step_self_ms"] = v.pop("harness.train_step_ms", 0.0)
    layers_ms = sum(v.values()) - v["harness.train_step_self_ms"]  # traced layers in a step
    away = sum(c.get("optim.away", 0) for _, c in steps)
    computed = sum(c.get("optim.plasticity_computed", 0) for _, c in steps)
    v["optim.away_frac"] = 100.0 * away / computed if computed else 0.0
    v["net.eval_forward_ms"] = med("harness.evaluate", "net.eval_forward")
    v["harness.evaluate_ms"] = med("harness.evaluate", "harness.evaluate", total=True)
    for root, metric in (("data.load", "data.load_ms"), ("data.batch", "data.batch_ms"),
                         ("harness.build_model", "harness.build_model_ms"),
                         ("harness.ops_histogram", "harness.ops_histogram_ms"),
                         ("harness.save_checkpoint", "harness.save_checkpoint_ms"),
                         ("xbar.dump_tiles", "xbar.dump_tiles_ms")):
        v[metric] = med(root, root, total=True)

    e = traced[0]
    n_steps = sum(len(x.step_s) for x in traced)
    flips = sum(x.flips for x in traced)
    for i, size in enumerate(e.synapses):
        v[f"xbar.flip_frac.L{i}"] = 100.0 * flips[i] / (n_steps * size)
    v["xbar.pairs_programmed"] = float(flips.sum()) / n_steps if crossbar else 0.0
    v["device.program_ops"] = sum(x.step_ops for x in traced) / n_steps
    v["device.max_cell_ops"] = e.simulated["max_cell_ops"]

    # traced steps: their span, net of the benchmark's own counting inside it
    traced_p50 = med("harness.train_step", "harness.train_step", total=True)
    step_ms = 1e3 * np.concatenate([x.step_s for x in traced])
    step_traced = np.concatenate([x.step_traced for x in traced])
    plain_p50 = float(np.median(step_ms[~step_traced]))
    v["trace.step_ms_p50"] = traced_p50
    v["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    v["trace.accounted_pct"] = 100.0 * layers_ms / plain_p50
    return {name: {"value": float(v.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}


def run_workload(w: Workload, seed, seconds, trace, workdir):
    """Run episodes of ``w`` for ``seconds``; returns (contract result, record)."""
    workdir = Path(workdir)
    data_dir = write_task_pair(w, seed, workdir / "data")
    checks = Checks()
    tracer = tracing.Tracer()
    episodes = []
    episode_fn = sequential_episode if w.sequential else step_loop_episode
    started = perf_counter()
    try:
        while len(episodes) < MIN_EPISODES or perf_counter() - started < seconds:
            traced = bool(trace) and len(episodes) > 0
            out_dir = workdir / f"run{len(episodes)}"
            out_dir.mkdir(parents=True)
            cfg = experiment_config(w, seed, data_dir, out_dir)
            ep = Episode(traced=traced)
            if traced:
                with tracing.installed(tracer):
                    episode_fn(w, cfg, ep, checks, out_dir, tracer)
            else:
                episode_fn(w, cfg, ep, checks, out_dir, None)
            shutil.rmtree(out_dir)
            if episodes:
                same = (ep.simulated == episodes[0].simulated
                        and np.array_equal(ep.flips, episodes[0].flips))
                checks.expect(same, f"episode {len(episodes)} (traced={traced}) simulated "
                              f"{ep.simulated} != episode 0 {episodes[0].simulated}")
            episodes.append(ep)
    finally:
        shutil.rmtree(workdir / "data", ignore_errors=True)
    for target in sorted(tracer.missing):  # its per-layer metrics would read 0
        checks.expect(False, f"trace target {target} not found in the program")

    untraced = [e for e in episodes if not e.traced]
    traced = [e for e in episodes if e.traced]
    if trace:
        metrics = per_layer(tracer, traced, w.mode == "crossbar")
    else:
        metrics, _ = end_to_end(episodes)
    e0 = episodes[0]
    n_steps = sum(len(e.step_s) for e in episodes)
    record = {
        "workload": w.name,
        "seed": seed,
        "episodes": len(episodes),
        "steps": n_steps,
        "step_samples": sum(len(e.step_s) for e in untraced),
        "eval_passes": sum(len(e.eval_s) for e in untraced),
        "inputs": {"n_train": w.n_train, "n_test": w.n_test, "label_noise": w.label_noise,
                   "contrast": w.contrast, "why": w.noise_why},
        "simulated": e0.simulated,
        "flip_frac_pct": [100.0 * f / (len(e0.step_s) * s) for f, s in zip(e0.flips, e0.synapses)],
        "fail_frac": checks.failed / checks.attempted,
        "checks_attempted": checks.attempted,
        "first_failures": checks.first_failures,
        "end_to_end": dict(zip(("bounded", "unbounded"), end_to_end(untraced))),
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, record
