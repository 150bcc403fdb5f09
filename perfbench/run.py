"""memqnn benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full record (environment, simulated statistics, fail_frac). The program
is imported from ``src/`` of the checkout the script sits in; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread: steadier on a small shared machine, and the same figure
# whatever the core count. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "memqnn").glob("*.py")):
        src.update(path.read_bytes())
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or revision
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "dtype": "float32",
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
    }


def blas_threads():
    """Threads the loaded OpenBLAS reports, or the environment setting."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"env {BLAS_THREADS}"


def main(argv=None):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from perfbench.bench import run_workload

    w = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{w.name}-s{args.seed}-p{os.getpid()}"
    try:
        result, record = run_workload(w, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = environment()
    print(report(record, result))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def report(record, result):
    sim = record["simulated"]
    lines = [f"{record['workload']} seed={record['seed']} episodes={record['episodes']} "
             f"steps={record['steps']} checks={record['checks_attempted']} "
             f"fail_frac={record['fail_frac']:g} correct={result['correct']}"]
    lines += [f"  {k:28s} {v}" for k, v in sim.items()]
    lines.append(f"  {'flip_frac_pct':28s} " + " ".join(f"{f:.4f}" for f in record["flip_frac_pct"]))
    shown = dict(result["metrics"])
    if "run_s" in shown:
        shown.update(record["end_to_end"]["unbounded"])
    for name, m in shown.items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    lines += [f"  failed: {f}" for f in record["first_failures"]]
    return "\n".join(lines)


if __name__ == "__main__":
    if not (ROOT / "src" / "memqnn" / "__init__.py").is_file():
        print(f"perfbench: no memqnn sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
