"""Show the straight-through training loop on a toy problem.

Forward and backward passes see only quantized weights; the optimizer applies
the (possibly damped) update to the hidden copies and the quantized weights
are re-projected afterwards. Between level crossings the network function does
not change at all, which is what makes the quantized weights cheap to hold in
analog hardware.

Run:  python demos/02_training_on_quantized_weights.py
"""

import numpy as np

from memqnn import MLP, Adam, metaplastic_update, uniform_grid
from memqnn.net import init_hidden_uniform
from memqnn.optim import bn_update

rng = np.random.default_rng(0)
grid = uniform_grid(17, -1.5, 1.5)
mlp = MLP([init_hidden_uniform(shape, grid, rng) for shape in ((32, 24), (24, 4))], grid)

# A linearly separable 4-class toy stream.
proto = rng.normal(size=(4, 32))
def batch(n=64):
    y = rng.integers(0, 4, n)
    x = proto[y] + 0.3 * rng.normal(size=(n, 32))
    return x, y

adam = Adam()
m_star, lr = 3.0, 0.01
for step in range(1, 201):
    x, y = batch()
    loss, grads, logits = mlp.loss_grads(x, y)
    u = adam.directions(grads)
    away_frac = []
    for i, layer in enumerate(mlp.layers):
        away = u[f"w{i}"] * (layer.w_hidden - layer.w_quant) < 0
        away_frac.append(away.mean())
        layer.set_hidden(metaplastic_update(
            layer.w_hidden, layer.w_quant, u[f"w{i}"], grid, m_star, lr,
            layer.level_idx))
        if layer.bn is not None:
            bn_update(layer.bn, u[f"bn{i}.gamma"], u[f"bn{i}.beta"], lr)
    if step % 40 == 0:
        acc = (logits.argmax(1) == y).mean() * 100
        print(f"step {step:3d}  loss {loss:.3f}  batch acc {acc:5.1f}%  "
              f"away-branch fraction {np.mean(away_frac):.2f}")

# Piecewise constancy: nudging hidden weights inside their intervals changes
# neither the quantized weights nor the network output.
x, y = batch(16)
before = mlp.forward(x)
for layer in mlp.layers:
    layer.set_hidden(layer.w_hidden + 1e-6)
after = mlp.forward(x)
print("\nforward outputs identical after a sub-interval nudge:",
      bool(np.array_equal(before, after)))

# How far the hidden weights sit from their levels tells the consolidation
# story: settled synapses hug their level, undecided ones float mid-interval.
d = np.abs(mlp.layers[0].w_hidden - mlp.layers[0].w_quant).ravel()
print(f"hidden-to-level distance: median {np.median(d):.4f}, "
      f"90th pct {np.quantile(d, 0.9):.4f} (half spacing = {grid.widths[0]/2:.4f})")
