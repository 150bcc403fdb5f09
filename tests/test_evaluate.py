"""The evaluation pass, whose batches run on several threads, against its serial oracle.

``harness.evaluate`` must return the float the one-thread loop in
``tests/oracles.py`` returns, compared byte for byte, for every split length
and batch size, restore the live batch-norm state, hand a worker's error to
the caller and join every thread it started. A model with read noise draws
from the shared device RNG in every product, so it must keep the serial draw
order.
"""

import sys
import threading

import numpy as np
import pytest

from memqnn import harness
from memqnn.data import DatasetSplit

from oracles import reference_evaluate

DIMS = (64, 24, 24, 10)
MODES = ("exact", "crossbar")
DTYPES = ("float32", "float64")


def same_float(a, b):
    return type(a) is type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


def same_bn(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for sa, sb in zip(a, b, strict=True) for x, y in zip(sa, sb, strict=True))


def model(mode, dtype, read_noise_sigma=0.0, seed=5):
    """(mlp, device_rng) as harness.run_sequential builds them."""
    cfg = harness.ExperimentConfig(
        dims=DIMS, seed=seed, dtype=dtype, weight_source=mode,
        grid_source="device" if mode == "crossbar" else "uniform",
        read_noise_sigma=read_noise_sigma).validate()
    init_rng, _, device_rng = (np.random.default_rng(s)
                               for s in np.random.SeedSequence(seed).spawn(3))
    mlp, _, _ = harness.build_model(cfg, init_rng, device_rng)
    return mlp, device_rng


def split_for(mlp, n, rng):
    """n random 8-bit images; half labelled with the net's own guess, so every batch scores."""
    split = DatasetSplit(rng.integers(0, 256, (n, DIMS[0]), dtype=np.uint8),
                         rng.integers(0, DIMS[-1], n), "t", mlp.dtype)
    own = rng.random(n) < 0.5
    split.labels[own] = mlp.forward(split.rows(own)).argmax(axis=1)
    return split


def snapshot(mlp, rng):
    """A BN state that differs from the live one in every array."""
    return [tuple(a + rng.uniform(0.1, 0.5, a.shape).astype(a.dtype) for a in arrays)
            for arrays in mlp.bn_state()]


@pytest.mark.parametrize("with_bn", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", MODES)
def test_accuracy_bit_equal_reference(mode, dtype, with_bn):
    mlp, _ = model(mode, dtype)
    rng = np.random.default_rng(3)
    snap = snapshot(mlp, rng) if with_bn else None
    live = mlp.bn_state()
    for n in (1, 999, 1000, 1001, 2500):  # one sample, ragged, exact, ragged, many batches
        split = split_for(mlp, n, rng)
        for eval_batch in (1, 7, 1000):
            got = harness.evaluate(mlp, split, eval_batch, bn_state=snap)
            want = reference_evaluate(mlp, split, eval_batch, bn_state=snap)
            assert same_float(got, want), (n, eval_batch, got, want)
    assert same_bn(mlp.bn_state(), live)


def test_more_threads_than_cores(monkeypatch):
    """Eight shares on a short switch interval: each batch counted once, every thread joined.

    The pool may hand a share to a thread that has finished its own, so only
    the bounds on the threads that ran are fixed.
    """
    monkeypatch.setattr(harness, "_usable_cores", lambda: 8)
    rng = np.random.default_rng(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for mode in MODES:
            mlp, _ = model(mode, "float32")
            split = split_for(mlp, 1001, rng)
            forward, threads = mlp.forward, set()

            def forward_noting_thread(x, train=False):
                threads.add(threading.get_ident())
                return forward(x, train=train)

            monkeypatch.setattr(mlp, "forward", forward_noting_thread)
            before = threading.active_count()
            for eval_batch in (1, 7, 100, 300):
                threads.clear()
                got = harness.evaluate(mlp, split, eval_batch)
                assert 1 < len(threads) <= min(8, -(-1001 // eval_batch))  # a pool thread
                assert threading.active_count() == before
                assert same_float(got, reference_evaluate(mlp, split, eval_batch))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", [1, 0])  # a worker's batch, the caller's
def test_error_reaches_caller_and_bn_is_restored(monkeypatch, failing):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    mlp, _ = model("exact", "float32")
    rng = np.random.default_rng(6)
    split = split_for(mlp, 2500, rng)
    snap, live = snapshot(mlp, rng), mlp.bn_state()
    forward = mlp.forward

    def forward_failing(x, train=False):
        if np.array_equal(x, split.rows(slice(1000 * failing, 1000 * (failing + 1)))):
            raise RuntimeError("batch failed")
        return forward(x, train=train)

    monkeypatch.setattr(mlp, "forward", forward_failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="batch failed"):
        harness.evaluate(mlp, split, 1000, bn_state=snap)
    assert threading.active_count() == before
    assert same_bn(mlp.bn_state(), live)


@pytest.mark.parametrize("dtype", DTYPES)
def test_read_noise_keeps_the_serial_draw_order(monkeypatch, dtype):
    """A noisy tile draws from device_rng in every product: same draws, same order."""
    monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
    (ours, ours_rng), (ref, ref_rng) = (model("crossbar", dtype, read_noise_sigma=0.5)
                                        for _ in range(2))
    noiseless, _ = model("crossbar", dtype)  # the same cells, for labels that draw nothing
    built = ours_rng.bit_generator.state
    assert built == ref_rng.bit_generator.state
    split = split_for(noiseless, 1001, np.random.default_rng(7))
    for eval_batch in (7, 100, 1000):
        got = harness.evaluate(ours, split, eval_batch)
        want = reference_evaluate(ref, split, eval_batch)
        assert same_float(got, want), (eval_batch, got, want)
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state
    assert ours_rng.bit_generator.state != built
