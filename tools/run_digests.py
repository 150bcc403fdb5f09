"""Fixed-seed output digests of small synthetic runs, for refactors that must not move a bit.

Builds the two synthetic IDX tasks the test suite uses, then runs:

  - the four ``tests/test_fused_step._config`` runs (exact and crossbar mode,
    float32 and float64), hashing every output file but ``config.json``
    (which holds the output path); ``run.json`` is hashed without its
    ``wall_seconds`` line, and ``checkpoint.npz`` one array at a time: one
    sha256 over dtype, shape and bytes per array but ``config_json``, in name
    order, so a format change shows which arrays went and that the rest held;
  - ``run_sweep`` over m* = 0, 3 on the exact float32 config (``sweep.csv``);
  - ``run_repeated`` with 2 repeats on the crossbar float32 config
    (``summary.csv``);
  - one more exact float32 run, hashed like the first four, with per-task
    m* (synthA at 0, synthB at 5) and ``per_task_bn=False``;
  - one more crossbar float32 run, hashed the same way, with
    ``read_noise_sigma=0.5``: every tile product draws read noise;
  - one more exact float64 run, hashed the same way, on the uneven 80-level
    explicit grid ``1.5 * sinh(linspace(-2, 2, 80)) / sinh(2)``: projection
    by binary search (grids above 64 levels) and per-level plasticity
    slopes without a tile;
  - one more exact float32 run, hashed the same way, at dims 64-1-24-10 with
    ``batch_size`` 5: the 1536-row training split ends every epoch on a
    1-row batch, and the first hidden layer is 1 wide, so a width-1 batch
    norm (which numpy sums pairwise) and a batch of one both run;
  - one more crossbar float32 run, hashed the same way, with synthB at
    m* 5: its epochs run at m* 0 (pretraining), 3 and 5, so the uneven
    device grid's slope tables are built for one m* and rebuilt for another.

One line per digest: ``<run> <file> <sha256>``, with ``<file>`` spelled
``checkpoint.npz:<array>`` for a checkpoint array. Two trees that print the
same lines produced the same bytes. One line on stderr names the hidden-weight
step that ran: ``c`` (the compiled step) or ``numpy`` (no C compiler found).

Usage: PYTHONPATH=src python tools/run_digests.py
"""

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import make_synth_task  # noqa: E402
from test_fused_step import _config  # noqa: E402

from memqnn import harness, optim  # noqa: E402
from memqnn.data import TaskSpec  # noqa: E402

RUN_FILES = ("metrics.csv", "run.json", "devices.tsv", "ops_histogram.csv",
             "ops_histogram_by_epoch.csv")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def checkpoint_digests(path):
    with np.load(path) as z:
        for name in sorted(z.files):
            if name != "config_json":  # holds the output path
                a = z[name]
                yield (f"{path.name}:{name}",
                       sha256(a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()))


def run_digests(out):
    for name in RUN_FILES:
        path = out / name
        if not path.exists():
            continue
        data = path.read_bytes()
        if name == "run.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if b"wall_seconds" not in line)
        yield name, sha256(data)
    yield from checkpoint_digests(out / "checkpoint.npz")


def print_run(label, out):
    for name, digest in run_digests(out):
        print(label, name, digest)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = work / "data"
        make_synth_task(data / "synthA", "forward")
        make_synth_task(data / "synthB", "reverse")
        for mode in ("exact", "crossbar"):
            for dtype in ("float32", "float64"):
                label = f"{mode}-{dtype}"
                harness.run_sequential(_config(data, work / label, mode, dtype))
                print_run(label, work / label)
        harness.run_sweep(_config(data, work / "sweep", "exact", "float32"), [0.0, 3.0])
        print("sweep-exact-float32-mstar-0,3 sweep.csv",
              sha256((work / "sweep" / "sweep.csv").read_bytes()))
        harness.run_repeated(_config(data, work / "repeated", "crossbar", "float32"), 2)
        print("repeated-crossbar-float32-2 summary.csv",
              sha256((work / "repeated" / "summary.csv").read_bytes()))
        label = "exact-float32-task-mstar-0,5-shared-bn"
        harness.run_sequential(dataclasses.replace(
            _config(data, work / label, "exact", "float32"), per_task_bn=False,
            tasks=[TaskSpec("synthA", 2, m_star=0.0), TaskSpec("synthB", 1, m_star=5.0)]))
        print_run(label, work / label)
        label = "crossbar-float32-read-noise-0.5"
        harness.run_sequential(dataclasses.replace(
            _config(data, work / label, "crossbar", "float32"), read_noise_sigma=0.5))
        print_run(label, work / label)
        label = "exact-float64-explicit-80"
        levels = 1.5 * np.sinh(np.linspace(-2.0, 2.0, 80)) / np.sinh(2.0)
        harness.run_sequential(dataclasses.replace(
            _config(data, work / label, "exact", "float64"), grid_source="explicit",
            grid_level_values=levels.tolist()))
        print_run(label, work / label)
        label = "exact-float32-64-1-24-10-batch-5"
        harness.run_sequential(dataclasses.replace(
            _config(data, work / label, "exact", "float32"), dims=(64, 1, 24, 10), batch_size=5))
        print_run(label, work / label)
        label = "crossbar-float32-task-mstar-3,5"
        harness.run_sequential(dataclasses.replace(
            _config(data, work / label, "crossbar", "float32"),
            tasks=[TaskSpec("synthA", 2), TaskSpec("synthB", 1, m_star=5.0)]))
        print_run(label, work / label)
    print("step path:", "c" if optim._step_library() else "numpy", file=sys.stderr)


if __name__ == "__main__":
    main()
