"""Fixed-seed output digests of small synthetic runs, for refactors that must not move a bit.

Builds the two synthetic IDX tasks the test suite uses, then runs:

  - the four ``tests/test_fused_step._config`` runs (exact and crossbar mode,
    float32 and float64), hashing every output file but ``config.json``
    (which holds the output path); ``run.json`` is hashed without its
    ``wall_seconds`` line and ``checkpoint.npz`` as the sha256 over name,
    dtype, shape and bytes of every array but ``config_json``, in name order;
  - ``run_sweep`` over m* = 0, 3 on the exact float32 config (``sweep.csv``);
  - ``run_repeated`` with 2 repeats on the crossbar float32 config
    (``summary.csv``).

One line per digest: ``<run> <file> <sha256>``. Two trees that print the same
lines produced the same bytes.

Usage: PYTHONPATH=src python tools/run_digests.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import make_synth_task  # noqa: E402
from test_fused_step import _config  # noqa: E402

from memqnn import harness  # noqa: E402

RUN_FILES = ("metrics.csv", "run.json", "devices.tsv", "ops_histogram.csv",
             "ops_histogram_by_epoch.csv")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def checkpoint_digest(path):
    h = hashlib.sha256()
    with np.load(path) as z:
        for name in sorted(z.files):
            if name != "config_json":  # holds the output path
                a = z[name]
                h.update(name.encode() + a.dtype.str.encode() + str(a.shape).encode()
                         + a.tobytes())
    return h.hexdigest()


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
    yield "checkpoint.npz", checkpoint_digest(out / "checkpoint.npz")


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
                for name, digest in run_digests(work / label):
                    print(label, name, digest)
        harness.run_sweep(_config(data, work / "sweep", "exact", "float32"), [0.0, 3.0])
        print("sweep-exact-float32-mstar-0,3 sweep.csv",
              sha256((work / "sweep" / "sweep.csv").read_bytes()))
        harness.run_repeated(_config(data, work / "repeated", "crossbar", "float32"), 2)
        print("repeated-crossbar-float32-2 summary.csv",
              sha256((work / "repeated" / "summary.csv").read_bytes()))


if __name__ == "__main__":
    main()
