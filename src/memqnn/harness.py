"""Experiment orchestration: sequential-task training, sweeps, cost profiles.

A run is described by an ExperimentConfig, fully serialized into its output
directory next to the metrics it produces, so any result can be reproduced
from the directory alone. Outputs per run:

    config.json      the exact configuration used
    metrics.csv      epoch, task, acc_<task>..., cum_ops (one row per epoch)
    run.json         wall-clock and summary numbers (kept out of metrics.csv
                     so identical runs produce byte-identical metrics)
    checkpoint.npz   hidden weights, BN and its per-task snapshots, optimizer,
                     RNG state and tile cells; no level (they derive from these)
    devices.tsv      per-cell level/conductance/op-count text export (crossbar
                     only); no command reads it, hist-ops reads the checkpoint

Every epoch evaluates on every task's held-out test split, which is what
makes the forgetting curves observable rather than just the final numbers.
In crossbar mode the evaluation forward passes read conductances back from
the tiles; the software copy of the quantized weights is never consulted.

Batch-norm protocol: the gain/shift/statistics are trained continuously like
any other digital parameter, but when a task finishes its state is snapshotted
and later evaluations of that task swap the snapshot in (per_task_bn, default
on). The synaptic weights, which hold essentially all parameters and all of
the cross-task interference, are always shared; the snapshot only pins each
task's normalization context, matching how the sequential-task baselines this
engine reproduces are measured. Turn it off to watch the shared-normalization
collapse instead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import optim
from .data import TaskSpec, batches, load_dataset
from .device import LevelSpec, default_levelspec
from .errors import ConfigError
from .net import _BN_FIELDS, MLP, init_hidden_uniform
from .optim import Adam, bn_update, metaplastic_update
from .quantgrid import QuantGrid, uniform_grid
from .xbar import CrossbarTile, derive_grid, dump_tiles_tsv, encode_levels

__all__ = [
    "ExperimentConfig",
    "MetricsRecord",
    "RunResult",
    "preset",
    "load_task_splits",
    "evaluate",
    "run_sequential",
    "run_repeated",
    "run_sweep",
    "schedule",
    "ops_histogram",
    "write_ops_histogram_csv",
    "read_ops_counts",
    "save_checkpoint",
    "restore_run",
]

CHECKPOINT_VERSION = 1
_BN_PARTS = ("gamma", "beta", "mean", "var")  # a bn_state() tuple in a BN snapshot
_HIST_HEADER = ["ops_lo", "ops_hi", "pct_devices"]  # the columns of an ops_histogram row


@dataclass
class ExperimentConfig:
    """Declarative description of one training run."""

    dims: tuple = (784, 512, 512, 10)
    grid_source: str = "uniform"            # uniform | device | explicit
    grid_levels: int = 17
    grid_lo: float = -1.5
    grid_hi: float = 1.5
    grid_level_values: list | None = None   # explicit level list (grid_source=explicit)
    m_star: float = 3.0
    pretrain_epochs: int = 10               # leading epochs of task 1 run with m*=0
    lr: float = 5e-3
    batch_size: int = 100
    tasks: list = field(default_factory=lambda: [
        TaskSpec("mnist", 50),
        TaskSpec("fmnist", 50, dataset="fashion-mnist"),
    ])
    weight_source: str = "exact"            # exact | crossbar
    device_rows: list | None = None         # LevelSpec rows; default ladder when None
    device_sigma_frac: float = 0.08
    target_max: float = 1.5
    read_noise_sigma: float = 0.0
    endurance: int = 100_000
    seed: int = 0
    dtype: str = "float32"
    init_span: float = 2.0
    per_task_bn: bool = True  # evaluate finished tasks under their own BN state
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    data_dir: str = "data"
    out_dir: str = "runs/run"
    eval_batch: int = 1000

    def validate(self):
        problems = []
        if len(self.dims) < 2 or not all(isinstance(d, (int, np.integer))
                                         and not isinstance(d, bool) and d > 0
                                         for d in self.dims):
            problems.append(f"dims must be >= 2 positive ints, got {self.dims}")
        infinite = [name for name in ("lr", "target_max", "device_sigma_frac",
                                      "read_noise_sigma") if not np.isfinite(getattr(self, name))]
        if infinite:
            problems.append(f"{', '.join(infinite)} must be finite")
        if self.grid_source not in ("uniform", "device", "explicit"):
            problems.append(f"grid_source must be uniform|device|explicit, got {self.grid_source!r}")
        if self.weight_source not in ("exact", "crossbar"):
            problems.append(f"weight_source must be exact|crossbar, got {self.weight_source!r}")
        if self.weight_source == "crossbar" and self.grid_source != "device":
            problems.append("crossbar mode requires the device-derived grid")
        m_stars = [("", self.m_star)] + [(f"task {t.name!r}: ", t.m_star)
                                          for t in self.tasks if t.m_star is not None]
        problems += [f"{label}m_star must be finite and >= 0, got {m}"
                     for label, m in m_stars if not (np.isfinite(m) and m >= 0)]
        if self.seed < 0:  # SeedSequence takes non-negative entropy only
            problems.append(f"seed must be >= 0, got {self.seed}")
        if self.pretrain_epochs < 0:
            problems.append("pretrain_epochs must be >= 0")
        if self.tasks and self.pretrain_epochs > self.tasks[0].epochs:
            problems.append(f"pretrain_epochs {self.pretrain_epochs} exceeds the "
                            f"{self.tasks[0].epochs} epochs of the first task")
        if self.lr < 0:  # zero is allowed: freezes learning, useful for diagnostics
            problems.append("lr must be >= 0")
        if self.batch_size < 1 or self.eval_batch < 1:
            problems.append("batch sizes must be >= 1")
        if self.dtype not in ("float32", "float64"):
            problems.append(f"dtype must be float32|float64, got {self.dtype!r}")
        if self.target_max <= 0:
            problems.append("target_max must be positive")
        if self.read_noise_sigma < 0 or self.device_sigma_frac < 0:
            problems.append("noise magnitudes must be >= 0")
        if self.endurance < 1:
            problems.append("endurance must be >= 1")
        if not (np.isfinite(self.init_span) and self.init_span > 0):
            problems.append(f"init_span must be finite and > 0, got {self.init_span}")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            problems.append("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            problems.append("adam_eps must be > 0")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            problems.append(f"task names must be unique, got {names}")
        bad = [n for n in names if not n or any(c in n for c in ',"\r\n')]
        if bad:  # a name is a run-table column: acc_<name>
            problems.append(f"task names must be non-empty, without comma, quote, CR or LF, "
                            f"got {bad}")
        if problems:
            raise ConfigError("; ".join(problems))
        try:  # the grid builders own the grid rules; a malformed entry raises in them
            narrowest = build_grid(self)[0].widths.min()
        except (TypeError, ValueError, OverflowError) as e:  # a ConfigError is a ValueError
            raise ConfigError(f"grid_source {self.grid_source!r}: {e}") from None
        # the steepest plasticity slope, 2 * m* / (narrowest width), must be finite
        with np.errstate(over="ignore"):
            problems = [f"{label}m_star {m} overflows the plasticity slope in {self.dtype}"
                        for label, m in m_stars
                        if not np.isfinite(np.asarray(2.0 * m / narrowest, self.dtype))]
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        return dataclasses.asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d):
        _check_keys("config", cls, d)
        d = dict(d)
        if "dims" in d:
            d["dims"] = tuple(d["dims"])
        for i, t in enumerate(d.get("tasks", [])):
            _check_keys(f"tasks[{i}]", TaskSpec, t)
        d["tasks"] = [TaskSpec(**t) for t in d.get("tasks", [])]
        return cls(**d)

    @classmethod
    def from_json(cls, text):
        """A config from JSON text, or from bytes in a JSON encoding (UTF-8, -16 or -32)."""
        try:
            d = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        return cls.from_dict(d)


# exact types, so that a JSON true is not taken for an int
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,),
               "list": (list,), "tuple": (list, tuple), "None": (type(None),)}


def _check_keys(what, cls, d):
    """ConfigError naming the keys of ``d`` that ``cls`` does not know, needs or types."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(d) - {f.name for f in fields})
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    problems = [f"{kind} keys {keys}"
                for kind, keys in (("unknown", unknown), ("missing", missing)) if keys]
    problems += [f"{f.name} must be {f.type}, got {d[f.name]!r}" for f in fields
                 if f.name in d and type(d[f.name]) not in sum(
                     (_JSON_TYPES[t] for t in f.type.split(" | ")), ())]
    if problems:
        raise ConfigError(f"{what}: " + ", ".join(problems))


def preset(tier, **overrides):
    """Named experiment scales: 'desk' (784-256-256-10, 15 + 15 epochs) or 'full'
    (784-512-512-10, 50 + 50 epochs); README gives measured wall times."""
    if tier == "full":
        cfg = ExperimentConfig()
    elif tier == "desk":
        cfg = ExperimentConfig(
            dims=(784, 256, 256, 10),
            pretrain_epochs=3,
            tasks=[TaskSpec("mnist", 15), TaskSpec("fmnist", 15, dataset="fashion-mnist")],
        )
    else:
        raise ConfigError(f"unknown preset {tier!r}; choose desk or full")
    return dataclasses.replace(cfg, **overrides)


@dataclass
class MetricsRecord:
    """Per-epoch result row. Accuracies are percentages in [0, 100]."""

    epoch: int
    task: str
    accuracies: dict
    cum_ops: int


@dataclass
class RunResult:
    out_dir: Path
    config: ExperimentConfig
    records: list
    cum_ops: int

    def final_accuracy(self, task_name):
        return self.records[-1].accuracies[task_name] if self.records else float("nan")

    def max_accuracy(self, task_name):
        return max(r.accuracies[task_name] for r in self.records) if self.records else float("nan")


# -- building blocks -------------------------------------------------------------


def build_grid(config):
    """(grid, device_grid-or-None) per the config's grid source."""
    if config.grid_source == "uniform":
        return uniform_grid(config.grid_levels, config.grid_lo, config.grid_hi), None
    if config.grid_source == "explicit":
        return QuantGrid(config.grid_level_values), None
    spec = (default_levelspec(config.device_sigma_frac) if config.device_rows is None
            else LevelSpec.from_rows(config.device_rows))
    dgrid = derive_grid(spec, config.target_max)
    return dgrid.grid, dgrid


def build_model(config, init_rng, device_rng):
    """MLP (plus programmed tiles in crossbar mode); returns (mlp, dgrid, init_ops).

    Both modes draw the hidden weights the same way, uniform over the central
    ``2 * init_span`` intervals from ``init_rng``. Crossbar mode then programs
    every pair of each layer's tile from the levels the layer projected, so
    ``device_rng`` draws only conductances.
    """
    grid, dgrid = build_grid(config)
    try:
        with np.errstate(over="raise"):
            hidden = [init_hidden_uniform(s, grid, init_rng, span=config.init_span)
                      .astype(config.dtype) for s in zip(config.dims[:-1], config.dims[1:])]
    except (OverflowError, FloatingPointError):
        raise ConfigError(f"init_span {config.init_span} overflows {config.dtype}") from None
    mlp = _bind_tiles(config, MLP(hidden, grid), dgrid, device_rng)
    init_ops = sum(layer.tile.write_levels(dgrid.signed_levels(layer.level_idx))
                   for layer in mlp.layers if layer.tile is not None)
    return mlp, dgrid, init_ops


def _bind_tiles(config, mlp, dgrid, device_rng):
    """``mlp`` with one unprogrammed tile per layer bound in crossbar mode."""
    if config.weight_source == "crossbar":
        for layer in mlp.layers:
            layer.tile = CrossbarTile(*layer.shape, dgrid, device_rng,
                                      endurance=config.endurance,
                                      read_noise_sigma=config.read_noise_sigma,
                                      dtype=config.dtype)
    return mlp


def load_task_splits(config, parts=("train", "test")):
    """{part: {task name: split}} from ``config.data_dir``, in the run dtype.

    Splits load task by task, in ``parts`` order; one whose pixel count or
    labels do not fit ``config.dims`` raises ConfigError.
    """
    splits = {part: {} for part in parts}
    for task in config.tasks:
        task_dir = Path(config.data_dir) / task.data_name
        for part in parts:
            split = load_dataset(task_dir, part, name=task.name, dtype=np.dtype(config.dtype))
            top = split.labels.max(initial=0)
            if split.pixels.shape[1] != config.dims[0] or top >= config.dims[-1]:
                raise ConfigError(f"{task_dir} {part}: {split.pixels.shape[1]} pixels and "
                                  f"labels up to {top} do not fit dims {config.dims}")
            splits[part][task.name] = split
    return splits


def _usable_cores():
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def evaluate(mlp, split, eval_batch=1000, bn_state=None):
    """Test accuracy in percent; crossbar-bound layers read back from tiles.

    ``bn_state`` temporarily swaps in a stored batch-norm state (the
    per-finished-task protocol); the live state is restored afterwards.

    The batches run on ``k = min(usable cores, batches)`` threads: the
    usable cores are the process's CPU affinity mask (``os.cpu_count()``
    where there is none), and numpy's products release the GIL. The caller
    takes batches ``0, k, 2k, ...`` and a pool of ``k - 1`` threads the
    rest. Each share scales its own batches from the split's 8-bit pixels
    (``split.rows``), on its own thread. An eval-mode forward changes
    nothing and each share counts its correct labels as an int, so the
    accuracy is the same float as one thread's. A tile with read noise
    draws from the shared ``device_rng`` in every product; such a model
    keeps ``k = 1`` and the serial draw order. A multi-threaded BLAS
    contends with these threads: run with one BLAS thread.
    """
    starts = range(0, len(split), eval_batch)
    noisy = any(layer.tile is not None and layer.tile.read_noise_sigma for layer in mlp.layers)
    k = 1 if noisy else max(1, min(_usable_cores(), len(starts)))

    def correct(share):
        n = 0
        for start in share:
            logits = mlp.forward(split.rows(slice(start, start + eval_batch)), train=False)
            n += int((logits.argmax(axis=1) == split.labels[start:start + eval_batch]).sum())
        return n

    live = mlp.bn_state() if bn_state is not None else None
    try:
        if bn_state is not None:
            mlp.set_bn_state(bn_state)
        # threads start on submit, so k = 1 starts none; the with joins every one
        with ThreadPoolExecutor(max(k - 1, 1)) as pool:
            shares = [pool.submit(correct, starts[i::k]) for i in range(1, k)]
            n = correct(starts[0::k])
            n += sum(share.result() for share in shares)
        return 100.0 * n / len(split)
    finally:
        if live is not None:
            mlp.set_bn_state(live)


def train_step(mlp, adam, x, y, m_star, lr, dgrid=None):
    """One optimizer step; returns (loss, programming ops this step).

    Each layer's hidden weights take ``metaplastic_update`` and ``set_hidden``,
    its batch norm ``bn_update``, on ``Adam.directions``; where a C compiler is
    found, the compiled step (``optim._fused_update``) does the weights' part,
    Adam moments and the re-projection of the moved weights included, with
    the same bits, and ``loss_grads`` runs the batch norms compiled too (see
    ``net``). A ``metaplastic_update`` replaced in this module (a timing
    wrapper, a stand-in) is called for every layer instead, so it sees every
    update; the batch norms stay compiled.
    """
    loss, grads, _ = mlp.loss_grads(x, y)
    lib = optim._step_library() if metaplastic_update is optim.metaplastic_update else None
    if lib is not None:
        adam._slots(grads)  # every slot, made in grads order as directions would make them
    u = adam.directions({name: g for name, g in grads.items()
                         if lib is None or name.startswith("bn")})
    ops = 0
    for i, layer in enumerate(mlp.layers):
        if lib is not None:
            moved = optim._fused_update(lib, layer, adam, f"w{i}", grads[f"w{i}"], m_star, lr)
        else:
            moved = layer.set_hidden(metaplastic_update(
                layer.w_hidden, layer.w_quant, u[f"w{i}"], mlp.grid, m_star, lr, layer.level_idx))
        if layer.bn is not None:
            bn_update(layer.bn, u[f"bn{i}.gamma"], u[f"bn{i}.beta"], lr)
        if layer.tile is not None:
            ops += layer.tile.write_levels(
                dgrid.signed_levels(np.take(layer.level_idx, moved)), where=moved)
    return loss, ops


def schedule(config):
    """(epoch, task, m*, last epoch of its task?) for every epoch, counting from 1.

    The first ``pretrain_epochs`` epochs train at m*=0 (``validate`` keeps them
    within the first task); every other epoch trains at its task's own m*, or
    the config's when the task has none.
    """
    epoch = 0
    for task in config.tasks:
        m = config.m_star if task.m_star is None else task.m_star
        for e in range(task.epochs):
            epoch += 1
            yield epoch, task, 0.0 if epoch <= config.pretrain_epochs else m, e == task.epochs - 1


def _write_csv(path, header, rows):
    """``header`` and each row of cells as comma-joined lines; cells go through str()."""
    Path(path).write_text("".join(",".join(map(str, r)) + "\n" for r in [header, *rows]))


def _hist_cells(lo, hi, pct):
    return lo, hi, f"{pct:.6f}"


# -- checkpointing ----------------------------------------------------------------


def _pack_json(obj):
    return np.frombuffer(json.dumps(obj).encode(), dtype=np.uint8)


def _unpack_json(arr):
    return json.loads(np.asarray(arr, dtype=np.uint8).tobytes().decode())


def _restore_rng(state, key):
    """A generator in the bit-generator state packed as ``state[key]``."""
    packed, rng = _unpack_json(state[key]), np.random.default_rng(0)
    try:
        rng.bit_generator.state = packed
    except (TypeError, KeyError):  # the setter indexes whatever it is given
        raise ValueError(f"{key} holds no bit-generator state") from None
    return rng


def _bn_keys(task, i):
    """Checkpoint names of BN layer i's ``bn_state()`` tuple: live, or ``task``'s snapshot."""
    if task is None:
        return [f"layer{i}.bn.{name}" for name in _BN_FIELDS]
    return [f"bnsnap.{task}.{i}.{part}" for part in _BN_PARTS]


def save_checkpoint(path, config, mlp, adam, data_rng, device_rng, epoch, cum_ops,
                    bn_snapshots=None):
    """Single-file run state, read back by ``restore_run``; no level is stored.

    The Adam hyperparameters are not stored either: the config holds them.
    """
    state = {
        "format_version": np.asarray(CHECKPOINT_VERSION),
        "epoch": np.asarray(epoch),
        "cum_ops": np.asarray(cum_ops),
        "config_json": _pack_json(config.to_dict()),
        "data_rng": _pack_json(data_rng.bit_generator.state),
        "device_rng": _pack_json(device_rng.bit_generator.state),
    }
    for i, layer in enumerate(mlp.layers):
        state[f"layer{i}.w_hidden"] = layer.w_hidden
        if layer.tile is not None:
            state.update(layer.tile.state_dict(prefix=f"tile{i}."))
    for task, snap in [(None, mlp.bn_state()), *(bn_snapshots or {}).items()]:
        for i, arrays in enumerate(snap):
            state.update(zip(_bn_keys(task, i), arrays))
    state.update({f"adam.{k}": v for k, v in adam.state_dict().items()})
    np.savez(path, **state)  # uncompressed: deflating costs seconds at full crossbar dims


def restore_run(path):
    """``save_checkpoint``'s arguments, in its order, read back from ``path``.

    Nothing is drawn or programmed: the MLP is built from the stored hidden
    weights and the tiles take their cells from the file. A file that is not
    a checkpoint of this version, a missing or malformed array (an Adam slot
    that fits no parameter or the run dtype, and a parameter without its slot
    after a step, included), weights that do not chain as the config's dims,
    and a tile whose cells do not encode its layer's levels raise
    ConfigError: training rewrites only pairs whose level changes, so it
    would never mend such a tile. So do a generator state numpy does not
    take, an ``epoch`` or ``cum_ops`` that is not one whole number >= 0, an
    ``epoch`` past the schedule's end, and a ``cum_ops`` other than the sum
    of the tiles' program ops (0 without tiles): it counts every program op
    since set-up. Compressed (``np.savez_compressed``) files load as well.
    """
    try:
        with np.load(path) as z:
            state = {k: z[k] for k in z.files}
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile):  # TypeError: a .npy file
        raise ConfigError(f"{path} is not a checkpoint (.npz) file") from None
    version = state.get("format_version")
    if version is None or version.shape or version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    try:
        config = ExperimentConfig.from_dict(_unpack_json(state["config_json"])).validate()
        data_rng, device_rng = _restore_rng(state, "data_rng"), _restore_rng(state, "device_rng")
        grid, dgrid = build_grid(config)
        mlp = MLP([np.asarray(state[f"layer{i}.w_hidden"], dtype=config.dtype)
                   for i in range(len(config.dims) - 1)], grid)
        if mlp.dims != tuple(config.dims):
            raise ConfigError(f"the weights chain as dims {mlp.dims}, "
                              f"the config says dims {tuple(config.dims)}")
        _bind_tiles(config, mlp, dgrid, device_rng)  # the tiles keep drawing from device_rng
        for i, layer in enumerate(mlp.layers):
            if layer.tile is not None:
                layer.tile.load_state_dict(state, prefix=f"tile{i}.")
                if not all(map(np.array_equal, (layer.tile.plus.level, layer.tile.minus.level),
                               encode_levels(dgrid.signed_levels(layer.level_idx)))):
                    raise ConfigError(f"tile{i} cells do not encode layer {i}'s levels")
        n_bn = len(mlp.layers) - 1
        bn_snapshots = {t.name: [tuple(state[k] for k in _bn_keys(t.name, i)) for i in range(n_bn)]
                        for t in config.tasks if _bn_keys(t.name, 0)[0] in state}
        live = [tuple(state[k] for k in _bn_keys(None, i)) for i in range(n_bn)]
        for snap in (*bn_snapshots.values(), live):  # each install checks shapes; live goes last
            mlp.set_bn_state(snap)
        adam = Adam(config.adam_beta1, config.adam_beta2, config.adam_eps)
        shapes = {f"w{i}": layer.shape for i, layer in enumerate(mlp.layers)}
        shapes.update({f"bn{i}.{p}": layer.bn.gamma.shape for i, layer in enumerate(mlp.layers)
                       if layer.bn is not None for p in ("gamma", "beta")})
        try:
            adam.load_state_dict({k[len("adam."):]: v for k, v in state.items()
                                  if k.startswith("adam.")}, shapes)
        except KeyError as e:  # named as the checkpoint names it
            raise ConfigError(f"checkpoint lacks array 'adam.{e.args[0]}'") from None
        if any(a.dtype != mlp.dtype for slot in adam.slots.values() for a in slot):
            raise ConfigError(f"adam slots are not all {mlp.dtype}")
        epoch, cum_ops = (optim.check_count(state[k], k) for k in ("epoch", "cum_ops"))
        if epoch > sum(t.epochs for t in config.tasks):
            raise ConfigError(f"epoch {epoch} is past the schedule's end")
        tile_ops = sum(layer.tile.total_ops() for layer in mlp.layers if layer.tile is not None)
        if cum_ops != tile_ops:
            raise ConfigError(f"cum_ops {cum_ops} != {tile_ops}, the program ops of the tiles")
    except KeyError as e:
        raise ConfigError(f"{path}: checkpoint lacks array {e}") from None
    except (ValueError, FloatingPointError) as e:  # a ConfigError is a ValueError
        raise ConfigError(f"{path}: {e}") from None
    return config, mlp, adam, data_rng, device_rng, epoch, cum_ops, bn_snapshots


# -- top-level runs -----------------------------------------------------------------


def run_sequential(config: ExperimentConfig, log=None) -> RunResult:
    """Train through the task schedule, evaluating every task after every epoch."""
    config.validate()
    init_ss, data_ss, device_ss = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(init_ss)
    data_rng = np.random.default_rng(data_ss)
    device_rng = np.random.default_rng(device_ss)
    mlp, dgrid, cum_ops = build_model(config, init_rng, device_rng)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json())
    splits = load_task_splits(config)

    adam = Adam(config.adam_beta1, config.adam_beta2, config.adam_eps)
    task_names = [t.name for t in config.tasks]
    records = []
    bn_snapshots = {}  # task name -> BN state frozen when its training ended
    hist_rows = []     # (epoch, lo, hi, pct) cells, crossbar only
    started = time.perf_counter()
    for epoch, task, m_eff, last in schedule(config):
        for x, y in batches(splits["train"][task.name], config.batch_size, data_rng):
            _, ops = train_step(mlp, adam, x, y, m_eff, config.lr, dgrid)
            cum_ops += ops
        accs = {name: evaluate(mlp, splits["test"][name], config.eval_batch,
                               bn_state=bn_snapshots.get(name))
                for name in task_names}
        records.append(MetricsRecord(epoch, task.name, accs, cum_ops))
        if config.weight_source == "crossbar":
            hist_rows += [(epoch, *_hist_cells(*row))
                          for row in ops_histogram([l.tile for l in mlp.layers])]
        if log:
            accs_s = " ".join(f"{n}={accs[n]:.2f}" for n in task_names)
            log(f"epoch {epoch:3d} [{task.name} m*={m_eff:g}] {accs_s} ops={cum_ops}")
        if last and config.per_task_bn:
            bn_snapshots[task.name] = mlp.bn_state()

    _write_csv(out / "metrics.csv",
               ["epoch", "task", *(f"acc_{n}" for n in task_names), "cum_ops"],
               [(r.epoch, r.task, *(f"{r.accuracies[n]:.4f}" for n in task_names), r.cum_ops)
                for r in records])
    save_checkpoint(out / "checkpoint.npz", config, mlp, adam, data_rng, device_rng,
                    len(records), cum_ops, bn_snapshots=bn_snapshots)
    if config.weight_source == "crossbar":
        dump_tiles_tsv(out / "devices.tsv", [l.tile for l in mlp.layers])
        write_ops_histogram_csv(out / "ops_histogram.csv",
                                ops_histogram([l.tile for l in mlp.layers]))
        _write_csv(out / "ops_histogram_by_epoch.csv", ["epoch", *_HIST_HEADER], hist_rows)
    result = RunResult(out, config, records, int(cum_ops))
    summary = {
        "wall_seconds": time.perf_counter() - started,
        "cum_ops": result.cum_ops,
        "final": {n: result.final_accuracy(n) for n in task_names},
        "max": {n: result.max_accuracy(n) for n in task_names},
    }
    (out / "run.json").write_text(json.dumps(summary, indent=2) + "\n")
    return result


def _run_each(config, subs, log):
    """run_sequential per (sub-directory, overrides) pair, under ``config.out_dir``."""
    base_out = Path(config.out_dir)
    base_out.mkdir(parents=True, exist_ok=True)
    return [run_sequential(dataclasses.replace(config, out_dir=str(base_out / name), **kw),
                           log=log)
            for name, kw in subs]


def run_repeated(config: ExperimentConfig, repeats, log=None):
    """Independent repeats (seed + i); writes mean/std summary next to the runs."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    results = _run_each(config, [(f"rep{i}", {"seed": config.seed + i})
                                 for i in range(repeats)], log)
    rows = []
    for name in (t.name for t in config.tasks):
        finals = np.array([r.final_accuracy(name) for r in results])
        maxes = np.array([r.max_accuracy(name) for r in results])
        rows.append([name] + [f"{v:.4f}" for v in (finals.mean(), finals.std(),
                                                    maxes.mean(), maxes.std())])
    _write_csv(Path(config.out_dir) / "summary.csv",
               ["task", "final_mean", "final_std", "max_mean", "max_std"], rows)
    return results


def run_sweep(config: ExperimentConfig, m_values, log=None):
    """One sequential run per consolidation value, shared seed and data order."""
    values = list(m_values)
    if not values:
        raise ConfigError("sweep needs at least one m* value")
    names = [f"{m:g}" for m in values]
    if len(set(names)) != len(names):
        raise ConfigError(f"sweep m* values {names} name one run directory twice")
    if all(epoch <= config.pretrain_epochs or task.m_star is not None
           for epoch, task, _, _ in schedule(config)):
        raise ConfigError("sweep: no epoch trains at the config's m*: every epoch after "
                          "pretraining belongs to a task with its own m_star")
    for m in values:  # each run's config (its m* and slope), before any run starts
        dataclasses.replace(config, m_star=float(m)).validate()
    results = _run_each(config, [(f"mstar_{name}", {"m_star": float(m)})
                                 for name, m in zip(names, values)], log)
    task_names = [t.name for t in config.tasks]
    _write_csv(Path(config.out_dir) / "sweep.csv",
               ["m_star", *(f"final_acc_{n}" for n in task_names),
                *(f"max_acc_{n}" for n in task_names), "cum_ops"],
               [(name, *(f"{res.final_accuracy(n):.4f}" for n in task_names),
                 *(f"{res.max_accuracy(n):.4f}" for n in task_names), res.cum_ops)
                for name, res in zip(names, results)])
    return results


# -- programming-cost profile ----------------------------------------------------------


def read_ops_counts(source):
    """Per-cell op counts of a list of tiles, or of a run directory's checkpoint.

    Each tile gives its plus cells, then its minus cells, in row-major order.
    A run directory's tiles come from ``restore_run`` on its checkpoint.npz:
    a missing checkpoint, one that ``restore_run`` refuses (damaged cells
    included) and an exact-mode one, which has no tiles, raise ConfigError,
    as does a list with no cells (empty, or of zero-size tiles).
    """
    if isinstance(source, (str, Path)):
        path = Path(source) / "checkpoint.npz"
        if not path.exists():
            raise ConfigError(f"no checkpoint at {path}")
        source = [layer.tile for layer in restore_run(path)[1].layers if layer.tile is not None]
        if not source:
            raise ConfigError(f"{path}: an exact-mode checkpoint has no tiles")
    counts = [tile.ops_per_cell() for tile in source]
    if not sum(c.size for c in counts):  # no tiles, or only zero-size ones
        raise ConfigError("no device cells in source")
    return np.concatenate(counts)


def ops_histogram(source, bucket_width=5):
    """Histogram rows (bucket_lo, bucket_hi, percent of devices)."""
    if bucket_width < 1:
        raise ConfigError("bucket_width must be >= 1")
    counts = read_ops_counts(source)  # a new array, so it is bucketed in place
    pct = 100.0 * np.bincount(np.floor_divide(counts, bucket_width, out=counts)) / counts.size
    return [(i * bucket_width, (i + 1) * bucket_width, float(p)) for i, p in enumerate(pct)]


def write_ops_histogram_csv(path, rows):
    _write_csv(path, _HIST_HEADER, [_hist_cells(*row) for row in rows])
