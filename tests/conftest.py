import os
import struct
from pathlib import Path

import numpy as np
import pytest

from memqnn.net import MLP, init_hidden_uniform


def pytest_collection_modifyitems(config, items):
    if os.environ.get("MEMQNN_TIER", "").lower() == "full":
        return
    skip_full = pytest.mark.skip(reason="full tier disabled (set MEMQNN_TIER=full)")
    for item in items:
        if "tier_full" in item.keywords:
            item.add_marker(skip_full)


@pytest.fixture(scope="session")
def real_data_dir():
    """Directory holding mnist/ and fashion-mnist/ IDX files, or skip."""
    for cand in (os.environ.get("MEMQNN_DATA_DIR"), "/root/data", "data"):
        if cand and (Path(cand) / "mnist").exists():
            return Path(cand)
    pytest.skip("MNIST data not present (fetch with `memqnn fetch-data`, "
                "or point MEMQNN_DATA_DIR at it)")


def uniform_mlp(dims, grid, rng, dtype=np.float64):
    """MLP on uniform hidden weights, drawn as harness.build_model draws them in exact mode."""
    return MLP([init_hidden_uniform(shape, grid, rng).astype(dtype)
                for shape in zip(dims[:-1], dims[1:])], grid)


def write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, labels.size))
        f.write(labels.tobytes())


def make_synth_task(directory, scheme, n_train=1536, n_test=512, side=8, seed=0):
    """Small learnable classification task in real IDX files.

    The class brightens one fixed block of 6 pixels on top of background
    noise; the blocks are indexed from opposite ends for the two schemes, so
    sequential training on both shows interference like real task pairs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed + (0 if scheme == "forward" else 1))
    group = side * side // 10

    def build(n):
        flat = rng.integers(0, 121, size=(n, side * side), dtype=np.int64)
        labels = rng.integers(0, 10, size=n)
        cols = np.arange(group)[None, :] + (labels * group)[:, None]
        if scheme == "reverse":
            cols = side * side - 1 - cols
        np.put_along_axis(flat, cols, flat[np.arange(n)[:, None], cols] + 120, axis=1)
        return flat.reshape(n, side, side).astype(np.uint8), labels.astype(np.uint8)

    tri, trl = build(n_train)
    tei, tel = build(n_test)
    write_idx_images(directory / "train-images-idx3-ubyte", tri)
    write_idx_labels(directory / "train-labels-idx1-ubyte", trl)
    write_idx_images(directory / "t10k-images-idx3-ubyte", tei)
    write_idx_labels(directory / "t10k-labels-idx1-ubyte", tel)
    return directory


@pytest.fixture(scope="session")
def synth_data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    make_synth_task(root / "synthA", "forward")
    make_synth_task(root / "synthB", "reverse")
    return root
