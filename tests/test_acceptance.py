"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Desk-scale training runs (784-256-256-10, 15+15 epochs) are shared across
criteria via a session cache; the full-scale experiment only runs with
MEMQNN_TIER=full. Set MEMQNN_ACCEPT_CACHE to a directory to persist the desk
runs between invocations while iterating.

CALIBRATED thresholds below were frozen from five seeded runs of this
implementation's exact-mode desk pipeline (seeds 100-104; tools/calibrate.py),
at mean minus three standard deviations of the final accuracies. The
qualitative bands (retention within 5 points of peak, forgetting below 60%,
sweep ordering) are fixed requirements, not calibrated.
"""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from memqnn.data import TaskSpec, load_idx
from memqnn.device import default_levelspec
from memqnn.harness import (
    ops_histogram,
    preset,
    read_ops_counts,
    run_sequential,
)
from memqnn.net import softmax_cross_entropy
from memqnn.optim import Adam, bn_update, metaplastic_update
from memqnn.quantgrid import uniform_grid
from memqnn.xbar import CrossbarTile, derive_grid, encode_levels

from conftest import uniform_mlp

SEED = 100

# -- CALIBRATED floors (exact-mode desk pipeline, seeds 100-104, mean - 3*sigma)
# finals observed: MNIST 97.42/97.14/97.75/97.56/97.37 -> mean 97.448, sd 0.203
#                  F-MNIST 83.34/83.47/83.66/83.22/82.85 -> mean 83.308, sd 0.272
M3_MNIST_FINAL_FLOOR = 96.84
M3_FMNIST_FINAL_FLOOR = 82.49

# fixed qualitative bands
RETENTION_MAX_DROP = 5.0      # m*=3 MNIST final within 5 points of its peak
FORGETTING_CEILING = 60.0     # m*=0 MNIST final must fall below this
FMNIST_FLOOR = 78.0           # m*=3 F-MNIST final at desk scale
XBAR_MAX_DEGRADATION = 1.5    # crossbar vs exact, both tasks


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def run_cache(real_data_dir, tmp_path_factory):
    cache_root = os.environ.get("MEMQNN_ACCEPT_CACHE")
    root = Path(cache_root) if cache_root else tmp_path_factory.mktemp("accept")
    runs = {}

    def get(tag, **overrides):
        if tag in runs:
            return runs[tag]
        out = root / tag
        cfg = preset("desk", seed=SEED, data_dir=str(real_data_dir),
                     out_dir=str(out), eval_batch=2000, **overrides)
        if not (out / "run.json").exists():
            run_sequential(cfg)
        import json
        summary = json.loads((out / "run.json").read_text())
        runs[tag] = (out, summary)
        return runs[tag]

    return get


@pytest.mark.tier_full
def test_criterion_1_full_scale_metaplasticity(real_data_dir, tmp_path_factory):
    """Full-scale software run: retention and new-task accuracy at m*=3."""
    out = Path(os.environ.get("MEMQNN_ACCEPT_CACHE")
               or tmp_path_factory.mktemp("accept_full")) / "full_m3"
    cfg = preset("full", seed=SEED, m_star=3.0, data_dir=str(real_data_dir),
                 out_dir=str(out), eval_batch=2000)
    if not (out / "run.json").exists():
        run_sequential(cfg)
    import json
    summary = json.loads((out / "run.json").read_text())
    mnist, fmnist = summary["final"]["mnist"], summary["final"]["fmnist"]
    report(1, mnist >= 96.5 and fmnist >= 85.0,
           f"full scale m*=3: MNIST retained {mnist:.2f}% (>= 96.5), "
           f"F-MNIST {fmnist:.2f}% (>= 85.0)")


@pytest.mark.desk
def test_criterion_2_forgetting_contrast(run_cache):
    """Desk scale: m*=0 collapses, m*=3 retains within 5 points of peak."""
    _, m3 = run_cache("desk_m3", m_star=3.0)
    _, m0 = run_cache("desk_m0", m_star=0.0)
    peak = m3["max"]["mnist"]
    final = m3["final"]["mnist"]
    fmnist = m3["final"]["fmnist"]
    collapsed = m0["final"]["mnist"]
    ok = (collapsed < FORGETTING_CEILING
          and (peak - final) <= RETENTION_MAX_DROP
          and fmnist >= FMNIST_FLOOR
          and final >= M3_MNIST_FINAL_FLOOR
          and fmnist >= M3_FMNIST_FINAL_FLOOR)
    report(2, ok,
           f"m*=0 MNIST final {collapsed:.2f}% (< {FORGETTING_CEILING}); "
           f"m*=3 MNIST {final:.2f}% vs peak {peak:.2f}% "
           f"(drop {peak - final:.2f} <= {RETENTION_MAX_DROP}), "
           f"floor {M3_MNIST_FINAL_FLOOR}; "
           f"F-MNIST {fmnist:.2f}% (>= {FMNIST_FLOOR}, floor {M3_FMNIST_FINAL_FLOOR})")


@pytest.mark.desk
def test_criterion_3_consolidation_sweep_ordering(run_cache):
    """Sweep {0, 1, 3, 5}: retention grows with m*; too much m* costs task B.

    Known red clause: retention(1) > retention(0). Measured across seeds
    100-104, both m* < 2 points sit in the fully collapsed regime (m*=0
    finals 10.6-21.6%, m*=1 finals 10.7-13.5%), so their ordering is not a
    property of the system; weak consolidation even lands slightly lower.
    The regime claims (consolidated m*=3 far above both, and the m*=5
    new-task penalty) hold with wide margins. See the decisions ledger.
    """
    _, m0 = run_cache("desk_m0", m_star=0.0)
    _, m1 = run_cache("desk_m1", m_star=1.0)
    _, m3 = run_cache("desk_m3", m_star=3.0)
    _, m5 = run_cache("desk_m5", m_star=5.0)
    r0, r1, r3 = (m["final"]["mnist"] for m in (m0, m1, m3))
    f3, f5 = m3["final"]["fmnist"], m5["final"]["fmnist"]
    clauses = {
        f"retention(3) {r3:.2f} > retention(1) {r1:.2f}": r3 > r1,
        f"retention(1) {r1:.2f} > retention(0) {r0:.2f}": r1 > r0,
        f"F-MNIST(5) {f5:.2f} < F-MNIST(3) {f3:.2f}": f5 < f3,
    }
    detail = "; ".join(f"{text} [{'ok' if ok else 'VIOLATED'}]"
                       for text, ok in clauses.items())
    report(3, all(clauses.values()), detail)


@pytest.mark.desk
def test_criterion_4_device_in_loop_robustness(run_cache):
    """Crossbar mode with 8% conductance spread costs <= 1.5 points per task."""
    _, exact = run_cache("desk_m3", m_star=3.0)
    _, xbar = run_cache("desk_xbar", m_star=3.0,
                        weight_source="crossbar", grid_source="device")
    d_mnist = exact["final"]["mnist"] - xbar["final"]["mnist"]
    d_fmnist = exact["final"]["fmnist"] - xbar["final"]["fmnist"]
    ok = d_mnist <= XBAR_MAX_DEGRADATION and d_fmnist <= XBAR_MAX_DEGRADATION
    report(4, ok,
           f"degradation vs exact: MNIST {d_mnist:+.2f}, F-MNIST {d_fmnist:+.2f} "
           f"points (each <= {XBAR_MAX_DEGRADATION})")


@pytest.mark.desk
def test_criterion_5_programming_cost_profile(run_cache):
    """Most devices need few programming ops; all far below endurance."""
    out, _ = run_cache("desk_xbar", m_star=3.0,
                       weight_source="crossbar", grid_source="device")
    counts = read_ops_counts(out)
    frac_le_25 = 100.0 * (counts <= 25).mean()
    frac_gt_50 = 100.0 * (counts > 50).mean()
    worst = int(counts.max())
    rows = ops_histogram(out)
    total_pct = sum(p for _, _, p in rows)
    ok = (frac_le_25 >= 60.0 and frac_gt_50 <= 20.0 and worst < 10_000
          and abs(total_pct - 100.0) <= 0.01)
    report(5, ok,
           f"{frac_le_25:.2f}% of devices <= 25 ops (>= 60), "
           f"{frac_gt_50:.2f}% > 50 ops (<= 20), max {worst} ops "
           f"(<< 1e5 endurance); histogram sums to {total_pct:.4f}%")


def test_criterion_6_property_suite(tmp_path):
    """Fast oracle bundle; every sub-check is independent of the code it tests."""
    failures = []

    def check(name, fn):
        try:
            fn()
        except AssertionError as e:
            failures.append(f"{name}: {e}")

    grid = uniform_grid(17, -1.5, 1.5)

    def quantizer_oracle():
        rng = np.random.default_rng(0)
        w = rng.uniform(-2.5, 2.5, 10_000)
        idx, ws = grid.project(w)
        dists = np.abs(grid.levels[None, :] - w[:, None])
        assert np.array_equal(np.asarray(idx, np.int64), dists.argmin(axis=1))

    def plasticity_properties():
        rng = np.random.default_rng(1)
        w = rng.uniform(grid.hidden_lo, grid.hidden_hi, 2000)
        for m in (0.0, 1.0, 3.0, 8.0):
            v = grid.plasticity(w, m)
            assert np.all(v > 0) and np.all(v <= 1)
        for d in (0.02, 0.05, 0.08):
            a = float(grid.plasticity(0.0 + d, 3.0))
            b = float(grid.plasticity(0.1875 - d, 3.0))
            assert abs(a - b) < 1e-12
        vals = [float(grid.plasticity(0.375, m)) for m in (0.5, 1, 2, 4, 8)]
        assert np.all(np.diff(vals) < 0)

    def gradient_oracle():
        mlp = uniform_mlp((16, 16, 4), grid, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(8, 16)), rng.integers(0, 4, 8)
        _, grads, _ = mlp.loss_grads(x, y)
        h, checked = 1e-4, 0
        for k, layer in enumerate(mlp.layers):
            g = grads[f"w{k}"]
            fi, fo = layer.w_quant.shape
            for i, j in zip(rng.integers(0, fi, 25), rng.integers(0, fo, 25)):
                base = layer.w_quant[i, j]
                losses = []
                for delta in (h, -h):
                    layer.w_quant[i, j] = base + delta
                    losses.append(softmax_cross_entropy(mlp.forward(x, train=True), y)[0])
                layer.w_quant[i, j] = base
                fd = (losses[0] - losses[1]) / (2 * h)
                scale = max(abs(fd), abs(g[i, j]))
                if scale > 1e-6:
                    assert abs(fd - g[i, j]) / scale < 1e-4
                    checked += 1
        assert checked > 30

    def tile_equivalence():
        dgrid = derive_grid(default_levelspec(sigma_frac=0.0))
        tile = CrossbarTile(24, 12, dgrid, np.random.default_rng(5))
        k = np.random.default_rng(6).integers(-8, 9, (24, 12))
        tile.write_levels(k)
        x = np.random.default_rng(7).normal(size=(6, 24))
        want = x @ dgrid.grid.levels[k + 8]
        got = tile.mvm_forward(x)
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.abs(want).max())

    def encode_roundtrip():
        k = np.arange(-8, 9)
        plus, minus = encode_levels(k)
        assert np.array_equal(plus - minus, k)

    def rewrite_is_free():
        dgrid = derive_grid(default_levelspec())
        tile = CrossbarTile(6, 6, dgrid, np.random.default_rng(8))
        k = np.random.default_rng(9).integers(-8, 9, (6, 6))
        tile.write_levels(k)
        assert tile.write_levels(k) == 0

    def m0_bitwise():
        def run(update):
            rng = np.random.default_rng(10)
            mlp = uniform_mlp((12, 8, 4), grid, np.random.default_rng(11))
            adam = Adam()
            for _ in range(15):
                x, y = rng.normal(size=(16, 12)), rng.integers(0, 4, 16)
                _, grads, _ = mlp.loss_grads(x, y)
                u = adam.directions(grads)
                for i, layer in enumerate(mlp.layers):
                    layer.set_hidden(update(layer, u[f"w{i}"]))
                    if layer.bn is not None:
                        bn_update(layer.bn, u[f"bn{i}.gamma"], u[f"bn{i}.beta"], 5e-3)
            return np.concatenate([l.w_hidden.ravel() for l in mlp.layers])

        a = run(lambda l, u: metaplastic_update(l.w_hidden, l.w_quant, u,
                                                grid, 0.0, 5e-3, l.level_idx))
        b = run(lambda l, u: grid.clip_hidden(l.w_hidden - 5e-3 * u))
        assert np.array_equal(a, b)

    def idx_roundtrip():
        imgs = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        ip, lp = tmp_path / "im", tmp_path / "lb"
        with open(ip, "wb") as f:
            f.write(struct.pack(">IIII", 0x803, 2, 3, 4) + imgs.tobytes())
        with open(lp, "wb") as f:
            f.write(struct.pack(">II", 0x801, 2) + bytes([3, 9]))
        split = load_idx(ip, lp, dtype=np.float64)
        assert np.allclose(split.rows(slice(None)) * 255,
                           imgs.reshape(2, -1).astype(np.float64))
        assert split.labels.tolist() == [3, 9]

    def seeded_reproducibility():
        import sys
        sys.path.insert(0, str(Path(__file__).parent))
        from conftest import make_synth_task
        data = tmp_path / "repro_data"
        make_synth_task(data / "synthA", "forward")
        from memqnn.harness import ExperimentConfig
        def one(tag):
            cfg = ExperimentConfig(
                dims=(64, 16, 10), tasks=[TaskSpec("synthA", 2)], pretrain_epochs=1,
                batch_size=128, lr=5e-3, seed=3, data_dir=str(data),
                out_dir=str(tmp_path / tag), eval_batch=256)
            run_sequential(cfg)
            return (tmp_path / tag / "metrics.csv").read_bytes()
        assert one("r1") == one("r2")

    for name, fn in [
        ("quantizer brute-force oracle", quantizer_oracle),
        ("plasticity bounds/symmetry/monotonicity", plasticity_properties),
        ("gradient vs central differences", gradient_oracle),
        ("zero-variance tile/exact equivalence", tile_equivalence),
        ("encode/decode roundtrip", encode_roundtrip),
        ("rewrite-same-levels is free", rewrite_is_free),
        ("m*=0 bitwise equivalence", m0_bitwise),
        ("IDX fixture roundtrip", idx_roundtrip),
        ("seeded byte-for-byte reproducibility", seeded_reproducibility),
    ]:
        check(name, fn)

    report(6, not failures,
           "property bundle (9 checks)" if not failures else "; ".join(failures))
