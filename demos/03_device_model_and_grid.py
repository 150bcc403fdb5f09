"""Program a simulated cell array and derive the weight grid it induces.

Each 1T1R cell offers nine states: one low-conductance state and eight
high-conductance states. Programming is a single pulse drawing a fresh sample
from the state's conductance distribution. Two adjacent cells form one signed
weight: plus-cell HCS for positive levels, minus-cell HCS for negative, both
in LCS for a nominal-exact zero; the 17 decoded values form the quantization
grid the network trains on, wider around zero because the LCS-to-first-HCS
step is larger than the HCS ladder step.

Run:  python demos/03_device_model_and_grid.py
"""

import numpy as np

from memqnn import CellArray, LevelSpec, default_levelspec, derive_grid

rng = np.random.default_rng(7)
spec = default_levelspec()  # LCS 2 uS, HCS 20..90 uS, sigma 8 %
print("level  mean(uS)  sigma(uS)")
for k, (m, s) in enumerate(zip(spec.means, spec.sigmas)):
    print(f"{k:>5}  {m:8.1f}  {s:9.2f}")

# Program 16k cells per state and look at the empirical distributions.
print("\nempirical conductance after single-shot programming (16k cells/state):")
for k in (0, 1, 4, 8):
    cells = CellArray((16384,), spec)
    cells.program(np.full(16384, k), rng)
    print(f"  state {k}: mean {cells.g.mean():6.2f} uS  std {cells.g.std():5.2f} uS")

# Endurance is just accounting: every program call ticks a counter.
cells = CellArray((4,), spec, endurance=100_000)
for _ in range(3):
    cells.program([5, 5, 5, 5], rng)
print("\nops after three programming rounds:", cells.ops.tolist())

# The decoded differential grid. Note the doubled gap around zero.
dgrid = derive_grid(spec, target_max=1.5)
lv = dgrid.grid.levels
print(f"\ngain: {dgrid.gain * 1000:.3f} weight-milliunits per uS")
print("grid levels:", np.array2string(lv, precision=3))
print("interval widths:", np.array2string(dgrid.grid.widths, precision=3))

# With sigma forced to zero the whole chain is deterministic and the decoded
# weights are exactly the nominal grid values; that limit anchors the
# equivalence tests between analog and exact matrix products.
det = derive_grid(LevelSpec(spec.means, 0 * spec.sigmas))
assert np.array_equal(det.grid.levels, lv)
print("\nsigma=0 limit reproduces the same nominal grid exactly.")
