"""MNIST / Fashion-MNIST ingestion (IDX format), batching and task specs.

Files are the standard big-endian IDX payloads, optionally gzip-compressed
(sniffed from the two magic bytes, not the filename); a plain regular file is
mapped read-only, not copied. A split holds the payload's 8-bit pixels as
read, a quarter of a float32 copy and an eighth of a float64 one; each batch
is scaled to the run dtype when it is taken, with the bits a whole-split
conversion would give. Nothing is ever downloaded implicitly;
``fetch_dataset`` exists for explicit retrieval and doubles as an offline
checksum verifier for files already in place.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import mmap
import os
import stat
import struct
import urllib.request
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IdxFormatError

__all__ = [
    "DatasetSplit",
    "TaskSpec",
    "load_idx",
    "load_dataset",
    "batches",
    "fetch_dataset",
    "DATASETS",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

# sha256 of the canonical gzip files, keyed by dataset then filename
DATASETS = {
    "mnist": {
        "mirrors": [
            "https://ossci-datasets.s3.amazonaws.com/mnist/",
            "https://storage.googleapis.com/cvdf-datasets/mnist/",
        ],
        "files": {
            "train-images-idx3-ubyte.gz":
                "440fcabf73cc546fa21475e81ea370265605f56be210a4024d2ca8f203523609",
            "train-labels-idx1-ubyte.gz":
                "3552534a0a558bbed6aed32b30c495cca23d567ec52cac8be1a0730e8010255c",
            "t10k-images-idx3-ubyte.gz":
                "8d422c7b0a1c1c79245a5bcf07fe86e33eeafee792b84584aec276f5a2dbc4e6",
            "t10k-labels-idx1-ubyte.gz":
                "f7ae60f92e00ec6debd23a6088c31dbd2371eca3ffa0defaefb259924204aec6",
        },
    },
    "fashion-mnist": {
        "mirrors": [
            "http://fashion-mnist.s3-website.eu-central-1.amazonaws.com/",
        ],
        "files": {
            "train-images-idx3-ubyte.gz":
                "3aede38d61863908ad78613f6a32ed271626dd12800ba2636569512369268a84",
            "train-labels-idx1-ubyte.gz":
                "a04f17134ac03560a47e3764e11b92fc97de4d1bfaf8ba1a3aa29af54cc90845",
            "t10k-images-idx3-ubyte.gz":
                "346e55b948d973a97e58d2351dde16a484bd415d4595297633bb08f03db6a073",
            "t10k-labels-idx1-ubyte.gz":
                "67da17c76eaffca5446c3361aaab5c3cd6d1c2608764d35dfb1850b086bf8dd5",
        },
    },
}


@dataclass
class DatasetSplit:
    """Flattened 8-bit images plus integer class labels.

    ``pixels`` holds the raw ``uint8`` values and ``rows`` scales the rows a
    batch takes to [0, 1] in ``dtype``; a row gets the same bits in any batch.
    """

    pixels: np.ndarray  # (N, rows*cols) uint8
    labels: np.ndarray  # (N,)
    name: str = ""
    dtype: np.dtype = np.dtype(np.float32)

    def __post_init__(self):
        self.dtype = np.dtype(self.dtype)

    def __len__(self):
        return self.pixels.shape[0]

    def rows(self, index):
        """Rows ``index`` (a slice, index array or mask) as ``pixels[index]`` / 255 in ``dtype``."""
        return self.pixels[index].astype(self.dtype) / self.dtype.type(255)


@dataclass(frozen=True)
class TaskSpec:
    """One sequential-learning task: short tag, epochs, optional m* override.

    ``dataset`` is the data-directory name when it differs from the tag
    (e.g. tag "fmnist" reading from "fashion-mnist/").
    """

    name: str
    epochs: int
    m_star: float | None = None
    dataset: str | None = None

    def __post_init__(self):
        if self.epochs <= 0:
            raise ConfigError(f"task {self.name!r}: epochs must be positive")

    @property
    def data_name(self):
        return self.dataset or self.name


def _read_bytes(path):
    """The file's payload: a read-only map of a plain regular file, else its bytes.

    A map keeps the pixels off the heap and costs no copy; it holds its own
    handle on the file, so it outlives an unlink but not a truncation. Any
    other file (a pipe too: nothing seeks) is read once, and decompressed in
    memory if gzip; damaged gzip data raises IdxFormatError.
    """
    with open(path, "rb") as f:
        head = f.read(2)
        gz = head == b"\x1f\x8b"
        if not gz and len(head) == 2 and stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        raw = head + f.read()
    if not gz:
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise IdxFormatError(f"{path}: damaged gzip data: {e}") from None


def _parse_idx(raw, expect_magic, path):
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated header", offset=len(raw))
    magic, = struct.unpack(">I", raw[:4])
    if magic != expect_magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}", offset=0)
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise IdxFormatError(f"{path}: truncated dimension header", offset=len(raw))
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    expected = header_end + math.prod(dims)  # Python ints: no int64 wrap
    if len(raw) != expected:
        raise IdxFormatError(
            f"{path}: payload has {len(raw)} bytes, expected {expected}", offset=min(len(raw), expected))
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_end)
    return data.reshape(dims)


def load_idx(images_path, labels_path, name="", dtype=np.float32):
    """Parse an images/labels IDX pair into a DatasetSplit.

    The split keeps the images' payload bytes as its read-only ``uint8``
    pixels, flattened per image, without a copy; ``dtype`` is the one its
    batches are scaled to (by 1/255, no centering: the first batch-norm
    layer absorbs it). Raises IdxFormatError on malformed payloads and
    damaged gzip data, and ConfigError when the two files disagree on the
    record count or hold no records.
    """
    pixels = _parse_idx(_read_bytes(images_path), IMAGE_MAGIC, images_path)
    labels = _parse_idx(_read_bytes(labels_path), LABEL_MAGIC, labels_path)
    if pixels.shape[0] != labels.shape[0]:
        raise ConfigError(
            f"{images_path}: {pixels.shape[0]} images but {labels.shape[0]} labels")
    if pixels.shape[0] == 0:
        raise ConfigError(f"{images_path}: no records")
    return DatasetSplit(pixels=pixels.reshape(pixels.shape[0], -1),
                        labels=labels.astype(np.int64), name=name, dtype=dtype)


def _find_file(directory, stem):
    for candidate in (stem, stem + ".gz"):
        p = Path(directory) / candidate
        if p.exists():
            return p
    raise FileNotFoundError(f"{stem}[.gz] not found in {directory}")


def load_dataset(directory, split, name=None, dtype=np.float32):
    """Load the train or test split from a directory of standard IDX filenames."""
    img_stem, lbl_stem = SPLIT_FILES[split]
    directory = Path(directory)
    return load_idx(_find_file(directory, img_stem), _find_file(directory, lbl_stem),
                    name=name or directory.name, dtype=dtype)


def batches(split: DatasetSplit, batch_size, rng):
    """One epoch of shuffled minibatches; the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    order = rng.permutation(len(split))
    for start in range(0, len(split), batch_size):
        take = order[start:start + batch_size]
        yield split.rows(take), split.labels[take]


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fetch_dataset(name, dest_dir, base_url=None, verify_only=False, progress=print):
    """Download (or just verify) one dataset's four canonical gzip files.

    Existing files that pass their sha256 check are left alone, so pointing
    this at a pre-populated directory is a pure verification pass. Returns the
    list of verified file paths.
    """
    if name not in DATASETS:
        raise ConfigError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    entry = DATASETS[name]
    mirrors = [base_url] if base_url else entry["mirrors"]
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    verified = []
    for fname, want in entry["files"].items():
        target = dest / fname
        if target.exists():
            got = _sha256(target)
            if got != want:
                raise ConfigError(f"{target}: sha256 {got} != expected {want}")
            verified.append(target)
            continue
        if verify_only:
            raise ConfigError(f"{target}: missing (verify-only mode)")
        last_err = None
        for mirror in mirrors:
            url = mirror.rstrip("/") + "/" + fname
            try:
                progress(f"fetching {url}")
                with urllib.request.urlopen(url) as r, open(target, "wb") as out:
                    out.write(r.read())
                break
            except OSError as e:
                last_err = e
                if target.exists():
                    os.remove(target)
        else:
            raise ConfigError(f"could not fetch {fname}: {last_err}")
        got = _sha256(target)
        if got != want:
            os.remove(target)
            raise ConfigError(f"{target}: sha256 {got} != expected {want}")
        verified.append(target)
    return verified
