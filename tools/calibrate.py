"""Calibration driver for the desk-scale acceptance thresholds.

Runs the exact-mode desk pipeline over several seeds plus the sweep/crossbar
companions, then prints the statistics the acceptance suite freezes:
mean - 3*sigma floors for the m*=3 final accuracies, and the observed bands
for the contrast/ordering criteria. Existing run directories are reused, so
the script is idempotent and may be re-run after interruption.

Usage: PYTHONPATH=src python tools/calibrate.py [--data-dir DIR] [--out DIR] [--seeds N]

The defaults, ``data`` and ``runs/calib``, follow the CLI's: the datasets
in ``data/mnist`` and ``data/fashion-mnist``, the runs under ``runs/``.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from memqnn.harness import preset, run_sequential


def run_or_load(cfg):
    out = Path(cfg.out_dir)
    if (out / "run.json").exists():
        summary = json.loads((out / "run.json").read_text())
        print(f"[cached] {out.name}: {summary['final']}")
        return summary
    run_sequential(cfg, log=None)
    summary = json.loads((out / "run.json").read_text())
    print(f"[ran]    {out.name}: {summary['final']}")
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--data-dir", default="data")
    ap.add_argument("--out", default="runs/calib")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--base-seed", type=int, default=100)
    args = ap.parse_args()

    base = dict(data_dir=args.data_dir, eval_batch=2000)
    out = Path(args.out)
    seeds = [args.base_seed + i for i in range(args.seeds)]

    m3 = [run_or_load(preset("desk", seed=s, m_star=3.0,
                             out_dir=str(out / f"desk_m3_s{s}"), **base))
          for s in seeds]
    m0 = [run_or_load(preset("desk", seed=s, m_star=0.0,
                             out_dir=str(out / f"desk_m0_s{s}"), **base))
          for s in seeds[:3]]
    m1 = run_or_load(preset("desk", seed=seeds[0], m_star=1.0,
                            out_dir=str(out / f"desk_m1_s{seeds[0]}"), **base))
    m5 = run_or_load(preset("desk", seed=seeds[0], m_star=5.0,
                            out_dir=str(out / f"desk_m5_s{seeds[0]}"), **base))
    xb = run_or_load(preset("desk", seed=seeds[0], m_star=3.0,
                            weight_source="crossbar", grid_source="device",
                            out_dir=str(out / f"desk_xbar_m3_s{seeds[0]}"), **base))

    def stats(rows, task, kind="final"):
        vals = np.array([r[kind][task] for r in rows])
        return vals.mean(), vals.std(), vals

    report = {}
    for task in ("mnist", "fmnist"):
        mean, std, vals = stats(m3, task)
        report[f"m3_{task}_final"] = dict(mean=mean, std=std, floor=mean - 3 * std,
                                          values=vals.tolist())
        mean, std, vals = stats(m3, task, "max")
        report[f"m3_{task}_max"] = dict(mean=mean, std=std, values=vals.tolist())
    drop = [r["max"]["mnist"] - r["final"]["mnist"] for r in m3]
    report["m3_mnist_drop"] = dict(mean=float(np.mean(drop)), max=float(np.max(drop)),
                                   values=drop)
    report["m0_mnist_final"] = [r["final"]["mnist"] for r in m0]
    report["m1_mnist_final"] = m1["final"]["mnist"]
    report["m5_fmnist_final"] = m5["final"]["fmnist"]
    report["m3_fmnist_final_s0"] = m3[0]["final"]["fmnist"]
    report["xbar_final"] = xb["final"]
    report["exact_final_s0"] = m3[0]["final"]

    (out / "calibration.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
