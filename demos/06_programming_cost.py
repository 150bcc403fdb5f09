"""Device-in-the-loop training and the programming-cost histogram.

Runs a short sequential schedule in crossbar mode, then profiles how many
program operations each cell absorbed, as the run's checkpoint records them
(``read_ops_counts`` and ``hist-ops`` read checkpoint.npz, not the
devices.tsv export). Hidden weights move every step, but a
cell is pulsed only when its quantized level changes, so the bulk of the array
stays within a handful of operations: endurance is never the binding
constraint.

Run:  python demos/06_programming_cost.py [data_dir]
"""

import sys
from pathlib import Path

from memqnn import TaskSpec, ops_histogram, preset, run_sequential
from memqnn.harness import read_ops_counts

data_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "data")
if not (data_dir / "mnist").exists():
    sys.exit(f"no datasets under {data_dir}; run `memqnn fetch-data --dest {data_dir}`")

cfg = preset(
    "desk",
    tasks=[TaskSpec("mnist", 4), TaskSpec("fmnist", 3, dataset="fashion-mnist")],
    pretrain_epochs=1,
    weight_source="crossbar",
    grid_source="device",
    seed=5,
    data_dir=str(data_dir),
    out_dir="runs/demo06_crossbar",
    eval_batch=2000,
)
res = run_sequential(cfg, log=print)

counts = read_ops_counts(res.out_dir)
print(f"\n{counts.size} cells, {res.cum_ops} total programming ops "
      f"({counts.mean():.2f} per cell, max {counts.max()})")
print(f"<= 25 ops: {100 * (counts <= 25).mean():.2f}% of devices")
print(f" > 50 ops: {100 * (counts > 50).mean():.2f}% of devices")

print("\nhistogram (5-op buckets):")
for lo, hi, pct in ops_histogram(res.out_dir):
    if pct >= 0.005:
        print(f"  [{lo:3d},{hi:3d})  {pct:6.2f}%  {'#' * int(pct / 2)}")

print(f"\nsame table via the CLI: memqnn hist-ops --run-dir {res.out_dir}")
