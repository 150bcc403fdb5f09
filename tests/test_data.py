import gzip
import hashlib
import math
import mmap
import os
import struct
import threading

import numpy as np
import pytest

from memqnn.cli import main as cli_main
from memqnn.data import (
    DATASETS,
    TaskSpec,
    batches,
    fetch_dataset,
    load_dataset,
    load_idx,
)
from memqnn.errors import ConfigError, IdxFormatError

from conftest import write_idx_images, write_idx_labels
from oracles import reference_images


@pytest.fixture
def fixture_pair(tmp_path):
    """Two hand-built images with known pixel values plus labels."""
    imgs = np.zeros((2, 3, 4), dtype=np.uint8)
    imgs[0, 0, 0] = 255
    imgs[0, 2, 3] = 51
    imgs[1, 1, 2] = 102
    labels = np.array([7, 2], dtype=np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    write_idx_images(ip, imgs)
    write_idx_labels(lp, labels)
    return ip, lp, imgs, labels


class TestLoadIdx:
    def test_fixture_roundtrip(self, fixture_pair):
        ip, lp, imgs, labels = fixture_pair
        split = load_idx(ip, lp, name="fix", dtype=np.float64)
        images = split.rows(slice(None))
        assert images.shape == (2, 12)
        assert images[0, 0] == 1.0
        assert images[0, 11] == pytest.approx(51 / 255)
        assert images[1, 6] == pytest.approx(102 / 255)
        assert np.array_equal(split.labels, labels)
        assert split.name == "fix"

    def test_gzip_transparent(self, fixture_pair, tmp_path):
        ip, lp, _, labels = fixture_pair
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress(ip.read_bytes()))
        split = load_idx(gz, lp)
        assert np.array_equal(split.labels, labels)

    def test_pixels_in_unit_interval(self, fixture_pair):
        ip, lp, _, _ = fixture_pair
        split = load_idx(ip, lp)
        images = split.rows(slice(None))
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_corrupt_magic_names_offset(self, fixture_pair, tmp_path):
        ip, lp, _, _ = fixture_pair
        raw = bytearray(ip.read_bytes())
        raw[0] = 0xAB
        bad = tmp_path / "bad"
        bad.write_bytes(raw)
        with pytest.raises(IdxFormatError) as e:
            load_idx(bad, lp)
        assert e.value.offset == 0

    def test_truncated_payload(self, fixture_pair, tmp_path):
        ip, lp, _, _ = fixture_pair
        bad = tmp_path / "trunc"
        bad.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(IdxFormatError):
            load_idx(bad, lp)

    @pytest.mark.parametrize("size", [0, 1])
    def test_empty_and_one_byte_files_refused(self, fixture_pair, tmp_path, size):
        _, lp, _, _ = fixture_pair
        bad = tmp_path / "short"
        bad.write_bytes(b"\x00" * size)
        with pytest.raises(IdxFormatError, match="truncated header") as e:
            load_idx(bad, lp)
        assert e.value.offset == size

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**16, 2**16, 2**31)])
    def test_header_size_past_int64_refused(self, fixture_pair, tmp_path, capsys, dims):
        """Payload sizes of 2**64 and 2**63, which wrap to 0 and -2**63 in int64."""
        _, lp, _, _ = fixture_pair
        task = tmp_path / "data" / "mnist"
        task.mkdir(parents=True)
        bad = task / "train-images-idx3-ubyte"
        bad.write_bytes(struct.pack(">IIII", 0x00000803, *dims))
        (task / "train-labels-idx1-ubyte").write_bytes(lp.read_bytes())
        with pytest.raises(IdxFormatError) as e:
            load_idx(bad, lp)
        assert e.value.offset == 16
        assert cli_main(["train", "--preset", "desk", "--data-dir", str(tmp_path / "data"),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"expected {16 + math.prod(dims)} " in err

    @pytest.mark.parametrize("damage", ["truncated", "zeroed_deflate", "bad_crc"])
    def test_damaged_gzip_refused(self, fixture_pair, tmp_path, capsys, damage):
        """A cut stream (EOFError), a corrupt one (zlib.error), a wrong CRC (BadGzipFile)."""
        ip, lp, _, _ = fixture_pair
        gz = bytearray(gzip.compress(ip.read_bytes()))
        if damage == "truncated":
            gz = gz[:len(gz) // 2]
        elif damage == "zeroed_deflate":
            gz[10:-8] = bytes(len(gz) - 18)  # between the 10-byte header and 8-byte trailer
        else:
            gz[-8] ^= 0xFF
        task = tmp_path / "data" / "mnist"
        task.mkdir(parents=True)
        bad = task / "train-images-idx3-ubyte.gz"
        bad.write_bytes(gz)
        (task / "train-labels-idx1-ubyte").write_bytes(lp.read_bytes())
        with pytest.raises(IdxFormatError, match="damaged gzip data") as e:
            load_idx(bad, lp)
        assert str(bad) in str(e.value)
        assert cli_main(["train", "--preset", "desk", "--data-dir", str(tmp_path / "data"),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad}: damaged gzip data" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("compressed", [False, True], ids=["raw", "gzip"])
    def test_named_pipe_loads(self, fixture_pair, tmp_path, compressed):
        """A pipe cannot seek: the payload is read in one pass."""
        ip, lp, imgs, labels = fixture_pair
        payload = ip.read_bytes()
        if compressed:
            payload = gzip.compress(payload)
        fifo = tmp_path / "imgs.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as f:
                f.write(payload)

        # a daemon, joined with a timeout: a reader that fails cannot hang the suite
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        split = load_idx(fifo, lp)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(split.pixels, imgs.reshape(2, 12))
        assert np.array_equal(split.labels, labels)

    def test_count_mismatch(self, fixture_pair, tmp_path):
        ip, lp, _, _ = fixture_pair
        lp3 = tmp_path / "three"
        write_idx_labels(lp3, np.array([1, 2, 3], dtype=np.uint8))
        with pytest.raises(ConfigError):
            load_idx(ip, lp3)

    def test_real_mnist_shapes(self, real_data_dir):
        train = load_dataset(real_data_dir / "mnist", "train")
        test = load_dataset(real_data_dir / "mnist", "test")
        assert len(train) == 60_000 and train.pixels.shape == (60_000, 784)
        assert len(test) == 10_000
        assert train.labels.min() == 0 and train.labels.max() == 9

    def test_real_fashion_mnist_shapes(self, real_data_dir):
        train = load_dataset(real_data_dir / "fashion-mnist", "train")
        assert len(train) == 60_000 and train.pixels.shape == (60_000, 784)


class TestBatches:
    @pytest.fixture
    def split(self, fixture_pair):
        ip, lp, _, _ = fixture_pair
        return load_idx(ip, lp)

    def test_every_index_once_per_epoch(self, synth_data_dir):
        split = load_dataset(synth_data_dir / "synthA", "train")
        seen = []
        for x, y in batches(split, 100, np.random.default_rng(0)):
            seen.append(x)
        total = sum(b.shape[0] for b in seen)
        assert total == len(split)
        stacked = np.vstack(seen)
        assert np.array_equal(np.sort(stacked[:, 0]), np.sort(split.rows(slice(None))[:, 0]))

    def test_same_seed_same_order(self, synth_data_dir):
        split = load_dataset(synth_data_dir / "synthA", "train")
        a = [y for _, y in batches(split, 64, np.random.default_rng(5))]
        b = [y for _, y in batches(split, 64, np.random.default_rng(5))]
        for ya, yb in zip(a, b):
            assert np.array_equal(ya, yb)

    def test_full_batch(self, split):
        out = list(batches(split, len(split), np.random.default_rng(0)))
        assert len(out) == 1 and out[0][0].shape[0] == len(split)

    def test_short_final_batch_kept(self, synth_data_dir):
        split = load_dataset(synth_data_dir / "synthA", "test")
        out = list(batches(split, 500, np.random.default_rng(0)))
        assert out[-1][0].shape[0] == len(split) - 500 * (len(split) // 500)

    def test_bad_batch_size(self, split):
        with pytest.raises(ConfigError):
            list(batches(split, 0, np.random.default_rng(0)))


class TestEightBitSplit:
    """A split keeps the IDX pixels and scales each batch with the whole-split conversion's bits."""

    DTYPES = (np.float32, np.float64)
    UINT = {np.float32: np.uint32, np.float64: np.uint64}

    @pytest.fixture(params=["plain", "gzip"])
    def every_value_pair(self, request, tmp_path):
        """41 images of 5x7 pixels holding every byte value, plus labels, and the images."""
        rng = np.random.default_rng(12)
        flat = np.concatenate([np.arange(256), rng.integers(0, 256, 41 * 35 - 256)])
        imgs = rng.permutation(flat).astype(np.uint8).reshape(41, 5, 7)
        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        write_idx_images(ip, imgs)
        write_idx_labels(lp, rng.integers(0, 10, 41))
        if request.param == "gzip":
            ip.write_bytes(gzip.compress(ip.read_bytes()))
        return ip, lp, imgs

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_rows_bit_equal_whole_split(self, every_value_pair, dtype):
        ip, lp, _ = every_value_pair
        split = load_idx(ip, lp, dtype=dtype)
        whole = reference_images(split)
        assert whole.dtype == dtype and np.unique(split.pixels).size == 256
        rng = np.random.default_rng(13)
        for index in (slice(None), slice(3, 17), slice(40, 41), slice(30, 100), slice(5, 5),
                      slice(None, None, 3), rng.permutation(41), rng.integers(0, 41, 60),
                      np.array([7]), np.array([], dtype=np.int64)):
            got, want = split.rows(index), whole[index]
            assert got.dtype == dtype and got.shape == want.shape, index
            assert np.array_equal(got.view(self.UINT[dtype]), want.view(self.UINT[dtype])), index

    def test_pixels_are_the_payload_bytes(self, every_value_pair):
        ip, lp, imgs = every_value_pair
        split = load_idx(ip, lp, dtype=np.float64)
        assert split.pixels.dtype == np.uint8 and split.pixels.shape == (41, 35)
        assert not split.pixels.flags.writeable
        with pytest.raises(ValueError):
            split.pixels[0, 0] = 1
        assert np.array_equal(split.pixels, imgs.reshape(41, 35))
        arrays = [v for v in vars(split).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 41 * 35 + split.labels.nbytes

    def test_plain_file_is_mapped_not_copied(self, every_value_pair):
        ip, lp, imgs = every_value_pair
        split = load_idx(ip, lp)
        base = split.pixels
        while isinstance(base, np.ndarray):
            base = base.base
        mapped = isinstance(getattr(base, "obj", None), mmap.mmap)  # a memoryview of the map
        assert mapped == (ip.read_bytes()[:2] != b"\x1f\x8b")
        assert not split.pixels.flags.writeable

    def test_mapped_split_outlives_its_file(self, every_value_pair):
        ip, lp, imgs = every_value_pair
        split = load_idx(ip, lp)
        os.unlink(ip)
        os.unlink(lp)
        assert np.array_equal(split.pixels, imgs.reshape(41, 35))

    def test_dropped_splits_close_their_files(self, every_value_pair):
        ip, lp, _ = every_value_pair
        load_idx(ip, lp)  # warm-up: imports and caches that open files of their own
        before = len(os.listdir("/proc/self/fd"))
        splits = [load_idx(ip, lp) for _ in range(50)]
        assert all(s.pixels.sum() == splits[0].pixels.sum() for s in splits)
        del splits
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batches_match_the_float_path(self, synth_data_dir, dtype):
        split = load_dataset(synth_data_dir / "synthA", "train", dtype=dtype)
        whole = reference_images(split)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        for epoch in range(2):
            got = list(batches(split, 100, rng))
            order = ref_rng.permutation(len(split))
            want = [(whole[order[i:i + 100]], split.labels[order[i:i + 100]])
                    for i in range(0, len(split), 100)]
            assert len(got) == len(want)
            for (x, y), (wx, wy) in zip(got, want):
                assert x.dtype == dtype and x.shape == wx.shape
                assert np.array_equal(x.view(self.UINT[dtype]), wx.view(self.UINT[dtype]))
                assert np.array_equal(y, wy)


class TestTaskSchedule:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec("mnist", 0)

    def test_dataset_alias(self):
        t = TaskSpec("fmnist", 3, dataset="fashion-mnist")
        assert t.data_name == "fashion-mnist"
        assert TaskSpec("mnist", 3).data_name == "mnist"


class TestFetch:
    def test_verify_existing(self, real_data_dir):
        paths = fetch_dataset("mnist", real_data_dir / "mnist", verify_only=True)
        assert len(paths) == 4

    def test_checksum_mismatch_detected(self, tmp_path):
        target = tmp_path / "mnist"
        target.mkdir()
        (target / "train-images-idx3-ubyte.gz").write_bytes(b"not the real thing")
        with pytest.raises(ConfigError):
            fetch_dataset("mnist", target, verify_only=True)

    def test_missing_in_verify_only(self, tmp_path):
        with pytest.raises(ConfigError):
            fetch_dataset("mnist", tmp_path / "empty", verify_only=True)

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(ConfigError):
            fetch_dataset("imagenet", tmp_path)


@pytest.fixture
def mirror(tmp_path, monkeypatch):
    """A local mirror of four small files, which ``DATASETS["mnist"]`` names by sha256."""
    root = tmp_path / "mirror"
    root.mkdir()
    files = {}
    for i, name in enumerate(("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
                              "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz")):
        data = gzip.compress(bytes(range(i, i + 40)))
        (root / name).write_bytes(data)
        files[name] = hashlib.sha256(data).hexdigest()
    monkeypatch.setitem(DATASETS, "mnist", {"mirrors": [], "files": files})
    return root


class TestFetchFromMirror:
    """The download loop, served offline from a ``file://`` mirror."""

    def test_fetches_and_verifies(self, mirror, tmp_path):
        fetched = []
        paths = fetch_dataset("mnist", tmp_path / "dest", base_url=mirror.as_uri(),
                              progress=fetched.append)
        assert [p.name for p in paths] == list(DATASETS["mnist"]["files"])
        assert all(p.read_bytes() == (mirror / p.name).read_bytes() for p in paths)
        assert len(fetched) == 4
        fetched.clear()  # a second pass only verifies
        assert fetch_dataset("mnist", tmp_path / "dest", base_url=mirror.as_uri(),
                             progress=fetched.append) == paths
        assert fetched == []
        assert cli_main(["fetch-data", "--dataset", "mnist", "--dest", str(tmp_path / "cli"),
                         "--base-url", mirror.as_uri()]) == 0

    def test_file_missing_on_mirror(self, mirror, tmp_path):
        (mirror / "t10k-images-idx3-ubyte.gz").unlink()
        with pytest.raises(ConfigError, match="could not fetch t10k-images-idx3-ubyte.gz"):
            fetch_dataset("mnist", tmp_path / "dest", base_url=mirror.as_uri(),
                          progress=lambda msg: None)
        assert not (tmp_path / "dest" / "t10k-images-idx3-ubyte.gz").exists()

    def test_checksum_mismatch_removes_download(self, mirror, tmp_path):
        (mirror / "train-labels-idx1-ubyte.gz").write_bytes(b"a different file")
        with pytest.raises(ConfigError, match="train-labels-idx1-ubyte.gz: sha256"):
            fetch_dataset("mnist", tmp_path / "dest", base_url=mirror.as_uri(),
                          progress=lambda msg: None)
        assert sorted(p.name for p in (tmp_path / "dest").iterdir()) == [
            "train-images-idx3-ubyte.gz"]
