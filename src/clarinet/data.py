"""Data ingestion and generation: IDX ubyte files, synthetic rotated-cluster
domain pairs, CSV export, and seeded minibatch streams.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .complabel import ComplementaryDataset, check_dataset, generate_complementary
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
        self.features, self.labels = check_dataset(self.name, self.features, self.labels, self.K)

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
        self.features, _ = check_dataset(self.name, self.features)

    def __len__(self):
        return len(self.features)


@dataclass(frozen=True)
class SyntheticPairConfig:
    K: int = 4
    n_per_domain: int = 2000
    spread: float = 0.3
    rotation_deg: float = 30.0
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
        if n == 0:
            raise FormatError("%s: holds no images" % images_path)
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
    features = images.astype(np.float64)
    features /= 255.0
    labels = labels.astype(np.int64) + 1
    return LabeledDataset(features=features, labels=labels, K=int(labels.max()),
                          name=name or str(images_path))


def write_idx(images_path, labels_path, dataset: LabeledDataset, rows: int, cols: int):
    """Write a dataset back to the IDX pair (inverse of load_idx's scaling).

    Each pixel is ``clip(rint(x * 255), 0, 255)``, formed in one buffer.
    Labels outside 1..256, which one byte cannot hold, and features that
    are NaN or infinite are a ContractError, never wrapped or zeroed.
    """
    n, d = dataset.features.shape
    if d != rows * cols:
        raise ContractError("feature width %d != rows*cols %d" % (d, rows * cols))
    labels = dataset.labels
    if labels.min() < 1 or labels.max() > 256:
        raise ContractError("dataset %r: IDX labels must be in 1..256, got %d..%d"
                            % (dataset.name, labels.min(), labels.max()))
    if not np.logical_and.reduce(np.isfinite(dataset.features), axis=None):
        raise ContractError("dataset %r: IDX features must be finite, got a NaN "
                            "or infinite value" % dataset.name)
    pixels = dataset.features * 255.0
    np.rint(pixels, out=pixels)
    np.clip(pixels, 0, 255, out=pixels)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write((labels - 1).astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic domain pairs


def make_synthetic_pair(config: SyntheticPairConfig):
    """Gaussian clusters on a circle; the target is the source law rotated.
    Target labels are retained for evaluation only.
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
    tgt_pts = tgt_pts @ rot.T
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


def _is_number(value) -> bool:
    """Whether ``np.loadtxt`` reads the field ``value`` as one number.  It
    rejects some values that ``float()`` accepts, such as ``1_0`` and
    non-ASCII digits; a blank field, which it would read as no data with a
    warning, is not a number."""
    try:
        return (bool(value.strip())
                and np.loadtxt([value], delimiter=",", comments=None).size == 1)
    except ValueError:
        return False


def _bad_row(path, rows) -> str:
    """Why ``np.loadtxt`` rejected ``rows``: the first field that is not a
    number, or the first row whose width differs from the first row's."""
    width = None
    for i, line in enumerate(rows, start=1):
        fields = line.split(",")
        for j, value in enumerate(fields, start=1):
            if not _is_number(value):
                return ("%s: data row %d, column %d: %r is not a number"
                        % (path, i, j, value.strip()))
        width = width or len(fields)
        if len(fields) != width:
            return ("%s: data row %d has %d values, data row 1 has %d"
                    % (path, i, len(fields), width))
    return "%s: the data rows are not a numeric table" % path


def read_csv(path):
    """Features and integer labels (None without a label column) of a UTF-8
    file with no comments; bytes that are not UTF-8, a value that is not a
    number (``#`` included), a feature that is NaN or infinite, a row of
    another width than the others or the header, or a label that is not a
    whole number within int64 is a FormatError, never truncated.  A file
    with no data rows gives empty arrays, without NumPy's no-data warning."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line for line in fh if line.strip()]
    except UnicodeDecodeError:
        raise FormatError("%s: not UTF-8 text" % path) from None
    try:
        body = (np.loadtxt(rows, delimiter=",", ndmin=2, comments=None) if rows
                else np.empty((0, len(header))))
    except ValueError:
        raise FormatError(_bad_row(path, rows)) from None
    if body.shape[1] != len(header):
        raise FormatError("%s: data rows have %d values, the header names %d columns"
                          % (path, body.shape[1], len(header)))
    labelled = header[-1] == "label"
    features = body[:, :-1] if labelled else body
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0]
        raise FormatError("%s: data row %d, column %d: %r is not a finite number"
                          % (path, row + 1, col + 1, float(features[row, col])))
    if labelled:
        labels = body[:, -1]
        bad = np.flatnonzero(~(np.isfinite(labels) & (labels == np.trunc(labels))))
        if bad.size:
            row = bad[0]
            raise FormatError("%s: data row %d has non-integer label %r"
                              % (path, row + 1, float(labels[row])))
        # int64 holds -2**63 .. 2**63 - 1; the float64 nearest 2**63 - 1 is 2**63
        bad = np.flatnonzero((labels < -2.0 ** 63) | (labels >= 2.0 ** 63))
        if bad.size:
            row = bad[0]
            raise FormatError("%s: data row %d has label %r, outside int64"
                              % (path, row + 1, float(labels[row])))
        return features, labels.astype(np.int64)
    return features, None


# ---------------------------------------------------------------------------
# minibatching


def batches(n: int, batch_size: int, rng: np.random.Generator):
    """Index batches for one epoch: a fresh permutation, last short batch kept."""
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
