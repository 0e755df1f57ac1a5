"""Data ingestion and generation: IDX ubyte files, synthetic rotated-cluster
domain pairs, CSV export, and seeded minibatch streams.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .complabel import ComplementaryDataset, generate_complementary
from .errors import ContractError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    features: np.ndarray      # n x d
    labels: np.ndarray        # n ints in {1..K}
    K: int
    name: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) < 1:
            raise ContractError("dataset %r is empty" % self.name)
        if self.labels.min() < 1 or self.labels.max() > self.K:
            raise ContractError("labels out of range {1..%d}" % self.K)

    def __len__(self):
        return len(self.labels)

    def unlabeled(self) -> "UnlabeledDataset":
        """Training-facing view: features only."""
        return UnlabeledDataset(features=self.features, name=self.name)

    def to_complementary(self, rng: np.random.Generator) -> ComplementaryDataset:
        return generate_complementary(self.features, self.labels, self.K, rng,
                                      name=self.name)


@dataclass
class UnlabeledDataset:
    features: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if len(self.features) < 1:
            raise ContractError("dataset %r is empty" % self.name)

    def __len__(self):
        return len(self.features)


@dataclass(frozen=True)
class SyntheticPairConfig:
    K: int = 4
    n_per_domain: int = 2000
    spread: float = 0.3
    rotation_deg: float = 30.0
    translation: tuple = (0.0, 0.0)
    radius: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.K < 2:
            raise ContractError("SyntheticPairConfig requires K >= 2")
        if self.n_per_domain < 1:
            raise ContractError("SyntheticPairConfig requires n_per_domain >= 1")
        if self.spread <= 0:
            raise ContractError("SyntheticPairConfig requires spread > 0")


# ---------------------------------------------------------------------------
# IDX files


def require_bytes(fh, n, path):
    """Raise a FormatError unless a regular file holds n more bytes; checked
    from its size, so a corrupt length field never allocates more than that.
    A pipe has no size, so nothing is checked for one."""
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        left = max(st.st_size - fh.tell(), 0)
        if n > left:
            raise FormatError("%s: truncated file (wanted %d bytes, got %d)" % (path, n, left))


def read_exact(fh, n, path):
    """Read exactly n bytes of a binary file or pipe, or raise a FormatError."""
    require_bytes(fh, n, path)
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError("%s: truncated file (wanted %d bytes, got %d)" % (path, n, len(buf)))
    return buf


def load_idx(images_path, labels_path, name: str = "") -> LabeledDataset:
    """Load an IDX image/label pair; pixels scaled to [0,1], labels to {1..K}."""
    with open(images_path, "rb") as fh:
        (magic,) = struct.unpack(">I", read_exact(fh, 4, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError("%s: bad images magic 0x%08x" % (images_path, magic))
        n, rows, cols = struct.unpack(">III", read_exact(fh, 12, images_path))
        raw = read_exact(fh, n * rows * cols, images_path)
        if fh.read(1):
            raise FormatError("%s: trailing bytes after image payload" % images_path)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as fh:
        (magic,) = struct.unpack(">I", read_exact(fh, 4, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError("%s: bad labels magic 0x%08x" % (labels_path, magic))
        (n_labels,) = struct.unpack(">I", read_exact(fh, 4, labels_path))
        if n_labels != n:
            raise FormatError("labels count %d != images count %d" % (n_labels, n))
        labels = np.frombuffer(read_exact(fh, n_labels, labels_path), dtype=np.uint8)
    features = images.astype(np.float64) / 255.0
    labels = labels.astype(np.int64) + 1
    return LabeledDataset(features=features, labels=labels, K=int(labels.max()),
                          name=name or str(images_path))


def write_idx(images_path, labels_path, dataset: LabeledDataset, rows: int, cols: int):
    """Write a dataset back to the IDX pair (inverse of load_idx's scaling)."""
    n, d = dataset.features.shape
    if d != rows * cols:
        raise ContractError("feature width %d != rows*cols %d" % (d, rows * cols))
    pixels = np.clip(np.rint(dataset.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write((dataset.labels - 1).astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic domain pairs


def make_synthetic_pair(config: SyntheticPairConfig):
    """Gaussian clusters on a circle; the target is the source law rotated and
    translated.  Target labels are retained for evaluation only.
    """
    rng = np.random.default_rng(config.seed)
    K, n = config.K, config.n_per_domain
    angles = 2.0 * np.pi * np.arange(K) / K
    centers = config.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def draw(domain_rng):
        labels = domain_rng.integers(1, K + 1, size=n)
        pts = centers[labels - 1] + domain_rng.normal(0.0, config.spread, size=(n, 2))
        return pts, labels

    src_pts, src_labels = draw(rng)
    tgt_pts, tgt_labels = draw(rng)
    theta = np.deg2rad(config.rotation_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    tgt_pts = tgt_pts @ rot.T + np.asarray(config.translation, dtype=np.float64)
    source = LabeledDataset(features=src_pts, labels=src_labels, K=K, name="synthetic-source")
    target = LabeledDataset(features=tgt_pts, labels=tgt_labels, K=K, name="synthetic-target")
    return source, target


# ---------------------------------------------------------------------------
# CSV export (header: d feature columns, then label)


def write_csv(path, features: np.ndarray, labels=None):
    features = np.asarray(features, dtype=np.float64)
    d = features.shape[1]
    cols = ["x%d" % i for i in range(d)]
    if labels is not None:
        cols.append("label")
        body = np.column_stack([features, np.asarray(labels, dtype=np.float64)])
    else:
        body = features
    header = ",".join(cols)
    np.savetxt(path, body, delimiter=",", header=header, comments="", fmt="%.17g")


def read_csv(path):
    """Features and integer labels (None without a label column); a label that
    is not a whole number is a FormatError, never truncated."""
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header[-1] == "label":
        labels = body[:, -1]
        bad = np.flatnonzero(~(np.isfinite(labels) & (labels == np.trunc(labels))))
        if bad.size:
            row = bad[0]
            raise FormatError("%s: data row %d has non-integer label %r"
                              % (path, row + 1, float(labels[row])))
        return body[:, :-1], labels.astype(np.int64)
    return body, None


# ---------------------------------------------------------------------------
# minibatching


def batches(n: int, batch_size: int, rng: np.random.Generator):
    """Index batches for one epoch: a fresh permutation, last short batch kept."""
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
