"""Analog matrix products on a tile and the reprogram-on-change policy.

The multiply is Ohm's law, the accumulate is Kirchhoff's current law: feeding
a vector into the rows and summing currents per column computes x @ W in one
shot, over whatever conductances the cells actually hold. Training only ever
reprograms a cell when its target state differs from the one it holds, which
is what keeps total programming traffic orders of magnitude below endurance.

Run:  python demos/04_crossbar_mvm_and_write_policy.py
"""

import numpy as np

from memqnn import CrossbarTile, default_levelspec, derive_grid

rng = np.random.default_rng(3)

# Deterministic limit first: zero sigma makes the tile an exact matmul.
det = derive_grid(default_levelspec(sigma_frac=0.0))
tile = CrossbarTile(64, 32, det, np.random.default_rng(0))
k = rng.integers(-8, 9, size=(64, 32))
ops = tile.write_levels(k)
print(f"fresh tile: {ops} programming ops for {2 * 64 * 32} cells (one each)")

x = rng.normal(size=(16, 64))
exact = x @ det.grid.levels[k + 8]
analog = tile.mvm_forward(x)
print(f"sigma=0: max |analog - exact| = {np.abs(analog - exact).max():.2e}")

# Rewriting the same level matrix touches nothing.
print("rewrite identical levels:", tile.write_levels(k), "ops")

# One synapse stepping +1 -> +2 moves only its plus cell.
k2 = k.copy()
k2[k2 == 1] = 2
changed = int((k != k2).sum())
print(f"bump {changed} synapses one level up: {tile.write_levels(k2)} ops")

# Now the realistic tile: 8 % programming variability.
noisy = derive_grid(default_levelspec())
tile_n = CrossbarTile(64, 32, noisy, np.random.default_rng(1))
tile_n.write_levels(k)
analog_n = tile_n.mvm_forward(x)
rel = np.abs(analog_n - exact).max() / np.abs(exact).max()
print(f"\nsigma=8%: relative MVM deviation {rel:.3f} "
      "(training tolerates this; see demo 05)")

# The backward pass reuses the same conductances transposed.
delta = rng.normal(size=(16, 32))
back = tile_n.mvm_backward(delta)
print("backward product shape:", back.shape)
