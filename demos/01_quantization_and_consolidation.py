"""Walk through the quantization grid and the consolidation transfer function.

A hidden weight lives on a continuous axis; its quantized image is the nearest
member of a small level set. The plasticity factor decides how strongly an
update may pull the hidden weight away from that level: 1 at the midpoint
between levels, tiny once the weight has settled onto a level under a large
consolidation strength.

Run:  python demos/01_quantization_and_consolidation.py
"""

import numpy as np

from memqnn import QuantGrid, uniform_grid

# The software experiments use 17 equally spaced levels on [-1.5, 1.5].
grid = uniform_grid(17, -1.5, 1.5)
print(f"{grid}  spacing={grid.widths[0]:.4f}")

# Nearest-level projection, including the clamp beyond the endpoints.
for w in (0.10, 0.09375, -0.52, 2.3):
    idx, ws = grid.project(w)
    print(f"  project({w:+.5f}) -> level {int(idx):2d} = {ws:+.4f}")

# The plasticity factor across one interval, for a few consolidation strengths.
# The curve peaks at the midpoint and sinks to 1 - tanh(m*)^2 on the levels.
xs = np.linspace(0.0, 0.1875, 9)
print("\nw_hidden   " + "".join(f"m*={m:<6g}" for m in (0.0, 1.0, 3.0, 5.0)))
for x in xs:
    row = "".join(f"{float(grid.plasticity(x, m)):<9.4f}" for m in (0, 1, 3, 5))
    print(f"{x:+.4f}   {row}")

# Device-derived grids are unequally spaced; the factor adapts per interval,
# so consolidation is equally sharp in narrow and wide intervals.
uneven = QuantGrid([-1.0, -0.3, 0.0, 0.5, 1.5])
print("\nunequal grid:", uneven.levels.tolist())
for w in (0.25, 0.1, -0.15):
    idx, ws = uneven.project(w)
    val = float(uneven.plasticity(w, 3.0))
    print(f"  w={w:+.2f}: level {ws:+.2f}, plasticity {val:.4f}")

# At m*=0 every weight is fully plastic: the rule degrades to plain SGD-style
# updates, which is exactly how the pre-training epochs run.
assert np.all(uneven.plasticity(np.linspace(-1, 1.4, 100), 0.0) == 1.0)
print("\nm*=0 leaves every update untouched (factor identically 1).")
