"""Offline gate of the paper's two claims on the synthetic task pair.

Claim 1: consolidation keeps task A while task B is learned, and m*=0
forgets A. Claim 2: crossbar programming stays far below device endurance.
The MNIST acceptance suite checks both at desk scale but needs the real
datasets; these runs use the ``make_synth_task`` pair (``synthA`` then
``synthB``, whose class blocks are indexed from opposite ends). The four
gate runs take about 4 s together, the four resilience runs about 3 s more.

Setup: dims 64-128-128-10, 6 + 6 epochs, batch 32, 2 pretrain epochs of
task A at m*=0, lr 5e-3, default device model (conductance sd 8% of each
level's mean, no read noise), config seed 0.

CALIBRATED bands, from config seeds 0-9 on the same data (final accuracy in
percent, sd the population sd over the seeds; max cell ops is the highest
program count of any cell after the run, endurance 100000):

    mode      m*  task A final                   task B final  max cell ops
    exact     0   10.7-21.5 (mean 15.7, sd 3.6)  100.0         -
    exact     5   93.8-98.2 (mean 96.0, sd 1.5)  99.4-100.0    -
    crossbar  0   17.4-23.4 (mean 19.4, sd 1.7)  100.0         12-16
    crossbar  5   85.0-95.1 (mean 92.0, sd 3.4)  99.4-100.0    12-18

At m*=5 the seed-by-seed gap between exact and crossbar task A is -0.8 to
13.3 points (mean 4.0, sd 4.4).

Forgetting: task A at m*=0 below 35% (every seed under 25%; chance is
10%). Retention: task A at m*=5 at least mean - 3 sd, rounded down: 90% in
exact mode, 81% in crossbar mode. Crossbar against exact: at m*=5 the
crossbar keeps task A within mean + 3 sd of the gap, rounded up: 18 points,
the synthetic counterpart of the MNIST suite's XBAR_MAX_DEGRADATION. Task B
at least 95%. Endurance: max cell ops below 0.1% of the budget. Task A
peaked at 100% in every run, so a collapse is forgetting, not a failure to
learn.

RESILIENCE: crossbar runs at m*=5 as the conductance sd grows (a fraction
of each level's mean), and at sd 8% with read noise of 2 uS on every tile
product. At sd 0 the crossbar is exact mode on the device grid
(``test_ideal_device_is_exact_mode``), so that run is the baseline; the gap
is its task A minus the run's, seed by seed, from the same seeds 0-9:

    sd     read noise  task A final                   floor  gap to sd 0
    0      0           91.6-94.9 (mean 93.3, sd 1.2)  89     -
    0.08   0           85.0-95.1 (mean 92.0, sd 3.4)  81     -2.9 to 6.8 (mean 1.3, sd 3.2)
    0.16   0           85.5-94.1 (mean 91.5, sd 2.4)  84     -2.1 to 6.8 (mean 1.8, sd 2.8)
    0.32   0           85.2-95.7 (mean 90.7, sd 3.6)  80     -1.8 to 7.0 (mean 2.6, sd 2.8)
    0.08   2 uS        84.6-97.3 (mean 91.5, sd 3.4)  81     -3.3 to 7.2 (mean 1.8, sd 3.1)

The floor is mean - 3 sd, rounded down; a run may trail the sd-0 run by at
most mean + 3 sd of its gap, rounded up: 11, 11, 12 and 12 points. The
device grid alone costs most of the distance to exact mode on the uniform
grid: at sd 0 task A ends 2.7 points below it on average (-0.4 to 6.4),
under the lowest exact seed. The spread then lowers the mean by 1.3, 1.8
and 2.6 points, less than one seed-to-seed sd, so ten seeds show a trend but
resolve no step. Mean retention falls below the exact band, whose floor is
91.5 (mean - 3 sd of the exact m*=5 row), at sd 0.32 (90.7); at sd 0.16 it
sits on the floor (91.50 against 91.46).
"""

import pytest

from memqnn.data import TaskSpec
from memqnn.harness import ExperimentConfig, read_ops_counts, run_sequential

MODES = ("exact", "crossbar")
FORGOTTEN_BELOW = 35.0
RETAINED_AT_LEAST = {"exact": 90.0, "crossbar": 81.0}
XBAR_MAX_GAP = 18.0  # exact minus crossbar task A at m*=5, points
LEARNED_AT_LEAST = 95.0
ENDURANCE_FRACTION = 1e-3


GATE_DEVICE = (0.08, 0.0)  # (device_sigma_frac, read_noise_sigma) of the gate runs
READ_NOISE_SIGMA = 2.0  # uS
# crossbar at m*=5, by device model: the floor of task A and the most it may
# trail the sigma-0 run, points
RESILIENCE = {(0.0, 0.0): (89.0, 0.0), GATE_DEVICE: (RETAINED_AT_LEAST["crossbar"], 11.0),
              (0.16, 0.0): (84.0, 11.0), (0.32, 0.0): (80.0, 12.0),
              (0.08, READ_NOISE_SIGMA): (81.0, 12.0)}


def gate_config(data_dir, out_dir, mode, m_star, device=GATE_DEVICE):
    return ExperimentConfig(
        dims=(64, 128, 128, 10), tasks=[TaskSpec("synthA", 6), TaskSpec("synthB", 6)],
        pretrain_epochs=2, batch_size=32, lr=5e-3, m_star=m_star, seed=0,
        weight_source=mode, grid_source="device" if mode == "crossbar" else "uniform",
        device_sigma_frac=device[0], read_noise_sigma=device[1],
        data_dir=str(data_dir), out_dir=str(out_dir))


@pytest.fixture(scope="module")
def runs(synth_data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("gate")
    return {(mode, m): run_sequential(gate_config(synth_data_dir, out / f"{mode}_{m:g}", mode, m))
            for mode in MODES for m in (0.0, 5.0)}


@pytest.fixture(scope="module")
def device_runs(runs, synth_data_dir, tmp_path_factory):
    """Crossbar runs at m*=5 by device model; the gate's own run stands for its model."""
    out = tmp_path_factory.mktemp("resilience")
    return {device: runs["crossbar", 5.0] if device == GATE_DEVICE else run_sequential(
                gate_config(synth_data_dir, out / f"sd{device[0]:g}_noise{device[1]:g}",
                            "crossbar", 5.0, device))
            for device in RESILIENCE}


@pytest.mark.parametrize("mode", MODES)
def test_no_consolidation_forgets_task_a(runs, mode):
    res = runs[mode, 0.0]
    assert res.max_accuracy("synthA") >= LEARNED_AT_LEAST
    assert res.final_accuracy("synthA") < FORGOTTEN_BELOW


@pytest.mark.parametrize("mode", MODES)
def test_consolidation_retains_task_a(runs, mode):
    assert runs[mode, 5.0].final_accuracy("synthA") >= RETAINED_AT_LEAST[mode]


def test_crossbar_retains_like_exact(runs):
    gap = runs["exact", 5.0].final_accuracy("synthA") - runs["crossbar", 5.0].final_accuracy("synthA")
    assert gap <= XBAR_MAX_GAP


@pytest.mark.parametrize("device", RESILIENCE, ids=[f"sd{s:g}-noise{n:g}" for s, n in RESILIENCE])
def test_retention_under_device_variability(device_runs, device):
    floor, max_gap = RESILIENCE[device]
    final = device_runs[device].final_accuracy("synthA")
    assert final >= floor
    assert device_runs[0.0, 0.0].final_accuracy("synthA") - final <= max_gap


@pytest.mark.parametrize("m_star", [0.0, 5.0])
@pytest.mark.parametrize("mode", MODES)
def test_task_b_learned(runs, mode, m_star):
    assert runs[mode, m_star].final_accuracy("synthB") >= LEARNED_AT_LEAST


@pytest.mark.parametrize("m_star", [0.0, 5.0])
def test_programming_far_below_endurance(runs, m_star):
    res = runs["crossbar", m_star]
    counts = read_ops_counts(res.out_dir)
    assert counts.sum() == res.cum_ops
    assert counts.max() < ENDURANCE_FRACTION * res.config.endurance
