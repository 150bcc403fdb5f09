"""Run every workload over several seeds and write a BENCH_<label>.json summary.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 \
        --out perfbench/baseline/BENCH_baseline.json

Each (workload, seed) is one untraced run of ``perfbench/run.py`` in its own
process, one after another. The first ``--traced`` seeds of each workload get
one traced run each. For each end-to-end metric, and for each unbounded
figure of the record, the file gives the values, their median, quartiles
(``statistics.quantiles(n=4)``) and the quartile spread as a share of the
median. The per-layer figures come from the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", type=int, default=1, help="seeds that also get a traced run")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        values, unbounded, simulated, fail = {}, {}, {}, {}
        for seed in parse_seeds(args.seeds):
            record, result = run(name, seed, args.seconds, 0)
            out.setdefault("environment", record["environment"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for metric, m in record["end_to_end"]["unbounded"].items():
                unbounded.setdefault(metric, []).append(m["value"])
            simulated[str(seed)] = record["simulated"]
            fail[str(seed)] = record["fail_frac"]
        e2e = {metric: dict(summarize(v), bound=bounds[metric]) for metric, v in values.items()}
        traced = {}
        for seed in parse_seeds(args.seeds)[:args.traced]:
            record, result = run(name, seed, args.seconds, 1)
            traced[str(seed)] = {k: m["value"] for k, m in result["metrics"].items()}
            fail[f"{seed}-traced"] = record["fail_frac"]
            if record["simulated"] != simulated[str(seed)]:
                raise SystemExit(f"{name} seed {seed}: traced simulated statistics differ")
        out["workloads"][name] = {
            "end_to_end": e2e,
            "unbounded": {metric: summarize(v) for metric, v in unbounded.items()},
            "simulated": simulated, "fail_frac": fail, "per_layer": traced}
        for metric, s in e2e.items():
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name:15s} {metric:14s} median {s['median']:.5g} spread {s['spread']:.4f}"
                  f" (bound {bounds[metric]}){flag}", flush=True)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
