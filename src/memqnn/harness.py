"""Experiment orchestration: sequential-task training, sweeps, cost profiles.

A run is described by an ExperimentConfig, fully serialized into its output
directory next to the metrics it produces, so any result can be reproduced
from the directory alone. Outputs per run:

    config.json      the exact configuration used
    metrics.csv      epoch, task, acc_<task>..., cum_ops (one row per epoch)
    run.json         wall-clock and summary numbers (kept out of metrics.csv
                     so identical runs produce byte-identical metrics)
    checkpoint.npz   hidden/quantized weights, BN, optimizer and RNG state,
                     tile state in crossbar mode
    devices.tsv      per-cell level/conductance/op-count dump (crossbar only)

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
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import TaskSpec, batches, load_dataset
from .device import LevelSpec, default_levelspec
from .errors import ConfigError
from .net import MLP
from .optim import Adam, bn_update, metaplastic_update
from .quantgrid import QuantGrid, uniform_grid
from .xbar import derive_grid, dump_tiles_tsv, init_hardware_weights

__all__ = [
    "ExperimentConfig",
    "MetricsRecord",
    "RunResult",
    "preset",
    "evaluate",
    "run_sequential",
    "run_repeated",
    "run_sweep",
    "ops_histogram",
    "write_ops_histogram_csv",
    "read_ops_counts",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_bn_snapshots",
    "restore_run",
]

CHECKPOINT_VERSION = 1


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
    physical_tile: tuple | None = None
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
        if len(self.dims) < 2 or any(int(d) <= 0 for d in self.dims):
            problems.append(f"dims must be >= 2 positive sizes, got {self.dims}")
        if self.grid_source not in ("uniform", "device", "explicit"):
            problems.append(f"grid_source must be uniform|device|explicit, got {self.grid_source!r}")
        if self.weight_source not in ("exact", "crossbar"):
            problems.append(f"weight_source must be exact|crossbar, got {self.weight_source!r}")
        if self.weight_source == "crossbar" and self.grid_source != "device":
            problems.append("crossbar mode requires the device-derived grid")
        if self.grid_source == "uniform":
            if self.grid_levels < 2:
                problems.append("grid_levels must be >= 2")
            if not self.grid_lo < self.grid_hi:
                problems.append("grid_lo must be < grid_hi")
        if self.grid_source == "explicit":
            if not self.grid_level_values or len(self.grid_level_values) < 2:
                problems.append("grid_source=explicit needs grid_level_values (>= 2 levels)")
        if self.m_star < 0:
            problems.append("m_star must be >= 0")
        if self.pretrain_epochs < 0:
            problems.append("pretrain_epochs must be >= 0")
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
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            problems.append(f"task names must be unique, got {names}")
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["dims"] = list(self.dims)
        d["tasks"] = [dataclasses.asdict(t) for t in self.tasks]
        if self.physical_tile is not None:
            d["physical_tile"] = list(self.physical_tile)
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["dims"] = tuple(d["dims"])
        d["tasks"] = [TaskSpec(**t) for t in d.get("tasks", [])]
        if d.get("physical_tile") is not None:
            d["physical_tile"] = tuple(d["physical_tile"])
        return cls(**d)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def level_spec(self):
        if self.device_rows is not None:
            return LevelSpec.from_rows(self.device_rows)
        return default_levelspec(self.device_sigma_frac)


def preset(tier, **overrides):
    """Named experiment scales: 'desk' (CI, minutes) or 'full' (hours)."""
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
    wall_seconds: float


@dataclass
class RunResult:
    out_dir: Path
    config: ExperimentConfig
    records: list
    cum_ops: int

    def accuracy_curve(self, task_name):
        return [r.accuracies[task_name] for r in self.records]

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
    dgrid = derive_grid(config.level_spec(), config.target_max)
    return dgrid.grid, dgrid


def build_model(config, init_rng, device_rng):
    """MLP (plus programmed tiles in crossbar mode); returns (mlp, dgrid, init_ops)."""
    grid, dgrid = build_grid(config)
    dtype = np.dtype(config.dtype)
    mlp = MLP(config.dims, grid, init_rng, dtype=dtype, init_span=config.init_span)
    init_ops = 0
    if config.weight_source == "crossbar":
        shapes = [layer.shape for layer in mlp.layers]
        hidden, tiles, init_ops = init_hardware_weights(
            shapes, dgrid, device_rng,
            endurance=config.endurance,
            read_noise_sigma=config.read_noise_sigma,
            physical_tile=config.physical_tile,
            dtype=dtype,
        )
        for layer, w, tile in zip(mlp.layers, hidden, tiles):
            layer.set_hidden(w.astype(dtype))
            layer.bind_tile(tile)
    return mlp, dgrid, init_ops


def evaluate(mlp, split, eval_batch=1000, bn_state=None):
    """Test accuracy in percent; crossbar-bound layers read back from tiles.

    ``bn_state`` temporarily swaps in a stored batch-norm state (the
    per-finished-task protocol); the live state is restored afterwards.
    """
    live = mlp.bn_state() if bn_state is not None else None
    if bn_state is not None:
        mlp.set_bn_state(bn_state)
    try:
        correct = 0
        for start in range(0, len(split), eval_batch):
            logits = mlp.forward(split.images[start:start + eval_batch], train=False)
            correct += int((logits.argmax(axis=1)
                            == split.labels[start:start + eval_batch]).sum())
        return 100.0 * correct / len(split)
    finally:
        if live is not None:
            mlp.set_bn_state(live)


def train_step(mlp, adam, x, y, m_star, lr, dgrid=None):
    """One optimizer step; returns (loss, programming ops this step)."""
    loss, grads, _ = mlp.loss_grads(x, y)
    gdict = {}
    for i, g in enumerate(grads):
        gdict[f"w{i}"] = g.w
        if g.gamma is not None:
            gdict[f"bn{i}.gamma"] = g.gamma
            gdict[f"bn{i}.beta"] = g.beta
    u = adam.directions(gdict)
    ops = 0
    for i, layer in enumerate(mlp.layers):
        w_new = metaplastic_update(layer.w_hidden, layer.w_quant, u[f"w{i}"],
                                   mlp.grid, m_star, lr, layer.level_idx)
        layer.update_hidden(w_new)
        if layer.bn is not None:
            bn_update(layer.bn, u[f"bn{i}.gamma"], u[f"bn{i}.beta"], lr)
        if layer.tile is not None:
            ops += layer.tile.write_levels(dgrid.signed_levels(layer.level_idx))
    return loss, ops


def _effective_m_star(config, task, task_index, global_epoch):
    if task_index == 0 and global_epoch < config.pretrain_epochs:
        return 0.0
    return task.m_star if task.m_star is not None else config.m_star


def write_metrics_csv(path, records, task_names):
    header = ",".join(["epoch", "task"] + [f"acc_{n}" for n in task_names] + ["cum_ops"])
    lines = [header]
    for r in records:
        cells = [str(r.epoch), r.task]
        cells += [f"{r.accuracies[n]:.4f}" for n in task_names]
        cells.append(str(r.cum_ops))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


# -- checkpointing ----------------------------------------------------------------


def _pack_json(obj):
    return np.frombuffer(json.dumps(obj).encode(), dtype=np.uint8)


def _unpack_json(arr):
    return json.loads(np.asarray(arr, dtype=np.uint8).tobytes().decode())


def save_checkpoint(path, config, mlp, adam, data_rng, device_rng, epoch, cum_ops,
                    bn_snapshots=None):
    """Single-file run state: weights, BN, optimizer, RNG streams, tile state."""
    state = {
        "format_version": np.asarray(CHECKPOINT_VERSION),
        "epoch": np.asarray(epoch),
        "cum_ops": np.asarray(cum_ops),
        "config_json": _pack_json(config.to_dict()),
        "data_rng": _pack_json(data_rng.bit_generator.state),
        "device_rng": _pack_json(device_rng.bit_generator.state),
    }
    state.update(mlp.state_dict())
    state.update({f"adam.{k}": v for k, v in adam.state_dict().items()})
    for i, layer in enumerate(mlp.layers):
        if layer.tile is not None:
            state.update(layer.tile.state_dict(prefix=f"tile{i}."))
    for task_name, snap in (bn_snapshots or {}).items():
        for i, (gamma, beta, mean, var) in enumerate(snap):
            base = f"bnsnap.{task_name}.{i}."
            state[base + "gamma"] = gamma
            state[base + "beta"] = beta
            state[base + "mean"] = mean
            state[base + "var"] = var
    np.savez_compressed(path, **state)


def checkpoint_bn_snapshots(state):
    """Per-task BN snapshots stored in a checkpoint, as {task: bn_state}."""
    tasks = {}
    for key in state:
        if key.startswith("bnsnap.") and key.endswith(".gamma"):
            task_name, idx = key[len("bnsnap."):-len(".gamma")].rsplit(".", 1)
            tasks.setdefault(task_name, set()).add(int(idx))
    out = {}
    for task_name, idxs in tasks.items():
        snap = []
        for i in sorted(idxs):
            base = f"bnsnap.{task_name}.{i}."
            snap.append((state[base + "gamma"], state[base + "beta"],
                         state[base + "mean"], state[base + "var"]))
        out[task_name] = snap
    return out


def load_checkpoint(path):
    with np.load(path) as z:
        state = {k: z[k] for k in z.files}
    version = int(state["format_version"])
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    return state


def restore_run(state):
    """Rebuild (config, mlp, adam, data_rng, device_rng) from checkpoint state."""
    config = ExperimentConfig.from_dict(_unpack_json(state["config_json"]))
    grid, dgrid = build_grid(config)
    rng_throwaway = np.random.default_rng(0)
    mlp = MLP(config.dims, grid, rng_throwaway, dtype=np.dtype(config.dtype),
              init_span=config.init_span)
    mlp.load_state_dict(state)
    if config.weight_source == "crossbar":
        from .xbar import CrossbarTile
        for i, layer in enumerate(mlp.layers):
            tile = CrossbarTile(layer.shape[0], layer.shape[1], dgrid,
                                np.random.default_rng(0),
                                endurance=config.endurance,
                                read_noise_sigma=config.read_noise_sigma,
                                physical_tile=config.physical_tile,
                                dtype=np.dtype(config.dtype))
            tile.load_state_dict(state, prefix=f"tile{i}.")
            layer.bind_tile(tile)
    adam = Adam(config.adam_beta1, config.adam_beta2, config.adam_eps)
    adam.load_state_dict({k[len("adam."):]: v for k, v in state.items()
                          if k.startswith("adam.")})
    data_rng = np.random.default_rng()
    data_rng.bit_generator.state = _unpack_json(state["data_rng"])
    device_rng = np.random.default_rng()
    device_rng.bit_generator.state = _unpack_json(state["device_rng"])
    for layer in mlp.layers:
        if layer.tile is not None:
            layer.tile.rng = device_rng
    return config, mlp, adam, data_rng, device_rng


# -- top-level runs -----------------------------------------------------------------


def run_sequential(config: ExperimentConfig, log=None) -> RunResult:
    """Train through the task schedule, evaluating every task after every epoch."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json())

    init_ss, data_ss, device_ss = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(init_ss)
    data_rng = np.random.default_rng(data_ss)
    device_rng = np.random.default_rng(device_ss)

    mlp, dgrid, cum_ops = build_model(config, init_rng, device_rng)

    dtype = np.dtype(config.dtype)
    train_splits, test_splits = {}, {}
    for task in config.tasks:
        task_dir = Path(config.data_dir) / task.data_name
        train_splits[task.name] = load_dataset(task_dir, "train", name=task.name, dtype=dtype)
        test_splits[task.name] = load_dataset(task_dir, "test", name=task.name, dtype=dtype)

    adam = Adam(config.adam_beta1, config.adam_beta2, config.adam_eps)
    task_names = [t.name for t in config.tasks]
    records = []
    bn_snapshots = {}  # task name -> BN state frozen when its training ended
    hist_rows = []     # (epoch, bucket_lo, bucket_hi, pct) snapshots, crossbar only
    started = time.perf_counter()
    global_epoch = 0
    for task_index, task in enumerate(config.tasks):
        split = train_splits[task.name]
        for _ in range(task.epochs):
            m_eff = _effective_m_star(config, task, task_index, global_epoch)
            for x, y in batches(split, config.batch_size, data_rng):
                _, ops = train_step(mlp, adam, x, y, m_eff, config.lr, dgrid)
                cum_ops += ops
            global_epoch += 1
            accs = {name: evaluate(mlp, test_splits[name], config.eval_batch,
                                   bn_state=bn_snapshots.get(name))
                    for name in task_names}
            rec = MetricsRecord(global_epoch, task.name, accs, cum_ops,
                                time.perf_counter() - started)
            records.append(rec)
            if config.weight_source == "crossbar":
                for lo, hi, pct in ops_histogram([l.tile for l in mlp.layers]):
                    hist_rows.append(f"{global_epoch},{lo},{hi},{pct:.6f}")
            if log:
                accs_s = " ".join(f"{n}={accs[n]:.2f}" for n in task_names)
                log(f"epoch {global_epoch:3d} [{task.name} m*={m_eff:g}] {accs_s} ops={cum_ops}")
        if config.per_task_bn:
            bn_snapshots[task.name] = mlp.bn_state()

    write_metrics_csv(out / "metrics.csv", records, task_names)
    save_checkpoint(out / "checkpoint.npz", config, mlp, adam, data_rng, device_rng,
                    global_epoch, cum_ops, bn_snapshots=bn_snapshots)
    if config.weight_source == "crossbar":
        dump_tiles_tsv(out / "devices.tsv", [l.tile for l in mlp.layers])
        write_ops_histogram_csv(out / "ops_histogram.csv",
                                ops_histogram([l.tile for l in mlp.layers]))
        (out / "ops_histogram_by_epoch.csv").write_text(
            "\n".join(["epoch,ops_lo,ops_hi,pct_devices"] + hist_rows) + "\n")
    summary = {
        "wall_seconds": time.perf_counter() - started,
        "cum_ops": int(cum_ops),
        "final": {n: (records[-1].accuracies[n] if records else None) for n in task_names},
        "max": {n: (max(r.accuracies[n] for r in records) if records else None)
                for n in task_names},
    }
    (out / "run.json").write_text(json.dumps(summary, indent=2) + "\n")
    return RunResult(out, config, records, int(cum_ops))


def run_repeated(config: ExperimentConfig, repeats, log=None):
    """Independent repeats (seed + i); writes mean/std summary next to the runs."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    base_out = Path(config.out_dir)
    results = []
    for i in range(repeats):
        sub = dataclasses.replace(config, seed=config.seed + i,
                                  out_dir=str(base_out / f"rep{i}"))
        results.append(run_sequential(sub, log=log))
    task_names = [t.name for t in config.tasks]
    base_out.mkdir(parents=True, exist_ok=True)
    lines = ["task,final_mean,final_std,max_mean,max_std"]
    for name in task_names:
        finals = np.array([r.final_accuracy(name) for r in results])
        maxes = np.array([r.max_accuracy(name) for r in results])
        lines.append(f"{name},{finals.mean():.4f},{finals.std():.4f},"
                     f"{maxes.mean():.4f},{maxes.std():.4f}")
    (base_out / "summary.csv").write_text("\n".join(lines) + "\n")
    return results


def run_sweep(config: ExperimentConfig, m_values, log=None):
    """One sequential run per consolidation value, shared seed and data order."""
    values = list(m_values)
    if not values:
        raise ConfigError("sweep needs at least one m* value")
    base_out = Path(config.out_dir)
    base_out.mkdir(parents=True, exist_ok=True)
    task_names = [t.name for t in config.tasks]
    results = []
    rows = []
    for m in values:
        sub = dataclasses.replace(config, m_star=float(m),
                                  out_dir=str(base_out / f"mstar_{m:g}"))
        res = run_sequential(sub, log=log)
        results.append(res)
        row = [f"{m:g}"]
        row += [f"{res.final_accuracy(n):.4f}" for n in task_names]
        row += [f"{res.max_accuracy(n):.4f}" for n in task_names]
        row.append(str(res.cum_ops))
        rows.append(",".join(row))
    header = ("m_star,"
              + ",".join(f"final_acc_{n}" for n in task_names) + ","
              + ",".join(f"max_acc_{n}" for n in task_names) + ",cum_ops")
    (base_out / "sweep.csv").write_text("\n".join([header] + rows) + "\n")
    return results


# -- programming-cost profile ----------------------------------------------------------


def read_ops_counts(source):
    """Per-cell op counts from a devices.tsv, a run dir, or a list of tiles."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.is_dir():
            path = path / "devices.tsv"
        if not path.exists():
            raise ConfigError(f"no device dump at {path}")
        counts = np.loadtxt(path, delimiter="\t", skiprows=1, usecols=6, dtype=np.int64)
        return np.atleast_1d(counts)
    return np.concatenate([tile.ops_per_cell() for tile in source])


def ops_histogram(source, bucket_width=5):
    """Histogram rows (bucket_lo, bucket_hi, percent of devices)."""
    if bucket_width < 1:
        raise ConfigError("bucket_width must be >= 1")
    counts = read_ops_counts(source)
    if counts.size == 0:
        raise ConfigError("no device cells in source")
    n_buckets = int(counts.max() // bucket_width) + 1
    edges = np.arange(n_buckets + 1) * bucket_width
    hist, _ = np.histogram(counts, bins=edges)
    pct = 100.0 * hist / counts.size
    return [(int(edges[i]), int(edges[i + 1]), float(pct[i])) for i in range(n_buckets)]


def write_ops_histogram_csv(path, rows):
    lines = ["ops_lo,ops_hi,pct_devices"]
    lines += [f"{lo},{hi},{pct:.6f}" for lo, hi, pct in rows]
    Path(path).write_text("\n".join(lines) + "\n")
