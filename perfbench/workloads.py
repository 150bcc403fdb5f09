"""Benchmark workloads and the seeded synthetic task pair they train on.

Every workload trains on two 28x28 synthetic tasks written as real IDX files,
so the program under test sees only files, exactly as it would see MNIST.
Each class brightens one 7x7 block of a 4x4 block lattice. Task A uses blocks
0..9 for classes 0..9; task B uses blocks 15..6, so blocks 6..9 carry a
different class in each task: the tasks conflict the way a real task pair
does, and training B interferes with what A consolidated.

Label noise and weak contrast keep the loss from saturating, so levels keep
flipping through every phase. The flip rate drives the crossbar's
write-on-change cost. It is tuned on this synthetic pair only and is not
verified against MNIST.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SIDE = 28
BLOCK = 7
TASKS = ("A", "B")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dims: tuple
    mode: str                 # exact | crossbar
    n_train: int              # training samples per task
    n_test: int               # test samples per task (one eval pass)
    label_noise: float        # share of training labels replaced by a random class
    contrast: int             # grey levels a class block is brightened by
    noise_why: str
    # step-loop workloads: steps per phase of one episode
    pretrain_steps: int = 0   # task A at m*=0
    a_steps: int = 0          # task A consolidated
    b_steps: int = 0          # task B consolidated
    eval_every: int = 0       # evaluate both tasks every this many steps and at phase ends
    # sequential-run: epochs handed to harness.run_sequential
    pretrain_epochs: int = 0
    a_epochs: int = 0
    b_epochs: int = 0

    @property
    def sequential(self):
        return self.a_epochs > 0

    @property
    def grid_source(self):
        return "device" if self.mode == "crossbar" else "uniform"


NOISE_WHY = ("20% label noise and +48 contrast on a 0..160 background keep 0.2-0.7% "
             "of levels flipping per step; a noiseless task is learned, its flips die "
             "out and the write-on-change cost would hide")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="exact-desk",
            why=("784-256-256-10 exact mode, uniform 17-level grid: the elementwise "
                 "update and projection dominate, xbar and device do no work"),
            dims=(784, 256, 256, 10), mode="exact",
            n_train=6000, n_test=10000, label_noise=0.2, contrast=48, noise_why=NOISE_WHY,
            pretrain_steps=20, a_steps=110, b_steps=110, eval_every=55,
        ),
        Workload(
            name="crossbar-full",
            why=("784-512-512-10 crossbar mode, device grid, 8% conductance spread: "
                 "tile writes and decoding are about a quarter of a step, state exceeds L2"),
            dims=(784, 512, 512, 10), mode="crossbar",
            n_train=6000, n_test=10000, label_noise=0.2, contrast=48, noise_why=NOISE_WHY,
            pretrain_steps=10, a_steps=50, b_steps=50, eval_every=25,
        ),
        Workload(
            name="sequential-run",
            why=("whole harness.run_sequential at desk dims in crossbar mode: data "
                 "loading, per-epoch evaluation and histogram, final outputs"),
            dims=(784, 256, 256, 10), mode="crossbar",
            n_train=2000, n_test=10000, label_noise=0.2, contrast=48, noise_why=NOISE_WHY,
            pretrain_epochs=1, a_epochs=2, b_epochs=2,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at toy dims and sizes, for the benchmark's self-test."""
    hidden = 24
    return replace(
        w, dims=(SIDE * SIDE, hidden, hidden, 10), n_train=400, n_test=300,
        pretrain_steps=min(w.pretrain_steps, 2), a_steps=min(w.a_steps, 3),
        b_steps=min(w.b_steps, 3), eval_every=2,
    )


def _block_pixels(block):
    """Flat pixel indices of lattice block 0..15 (row-major 4x4 of 7x7 blocks)."""
    r0, c0 = divmod(block, SIDE // BLOCK)
    rows = np.arange(r0 * BLOCK, (r0 + 1) * BLOCK)
    cols = np.arange(c0 * BLOCK, (c0 + 1) * BLOCK)
    return (rows[:, None] * SIDE + cols[None, :]).ravel()


def _make_split(rng, n, task, contrast, label_noise):
    labels = rng.integers(0, 10, size=n)
    blocks = labels if task == "A" else 15 - labels
    images = rng.integers(0, 161, size=(n, SIDE * SIDE), dtype=np.int16)
    pix = np.stack([_block_pixels(b) for b in range(16)])[blocks]
    rows = np.arange(n)[:, None]
    images[rows, pix] += contrast
    np.clip(images, 0, 255, out=images)
    if label_noise:
        flip = rng.random(n) < label_noise
        labels = np.where(flip, rng.integers(0, 10, size=n), labels)
    return images.astype(np.uint8).reshape(n, SIDE, SIDE), labels.astype(np.uint8)


def _write_idx(path, array, magic):
    with open(path, "wb") as f:
        f.write(struct.pack(f">I{array.ndim}I", magic, *array.shape))
        f.write(np.ascontiguousarray(array).tobytes())


def write_task_pair(w: Workload, seed, data_dir):
    """Write tasks A and B of workload ``w`` under ``data_dir``; same seed, same bytes.

    Test labels are clean, so accuracies measure what was learned, not the noise.
    """
    data_dir = Path(data_dir)
    for t, task in enumerate(TASKS):
        rng = np.random.default_rng([seed, t])
        d = data_dir / task
        d.mkdir(parents=True, exist_ok=True)
        for split, n, noise in (("train", w.n_train, w.label_noise), ("t10k", w.n_test, 0.0)):
            images, labels = _make_split(rng, n, task, w.contrast, noise)
            _write_idx(d / f"{split}-images-idx3-ubyte", images, 0x00000803)
            _write_idx(d / f"{split}-labels-idx1-ubyte", labels, 0x00000801)
    return data_dir
