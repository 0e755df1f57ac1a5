"""Fuzz the three on-disk parsers: on arbitrary bytes, or on a valid file cut
short or with bytes overwritten, ``read_csv``, ``load_idx`` and
``load_checkpoint`` each return or raise a FormatError or ContractError,
never another exception."""

import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clarinet.data import LabeledDataset, load_idx, read_csv, write_csv, write_idx
from clarinet.errors import ContractError, FormatError
from clarinet.models import build_triplet, default_specs, load_checkpoint, save_checkpoint

EXPECTED = (FormatError, ContractError)


def _valid_files():
    """The bytes of a small labelled CSV, IDX image and label files, and a
    checkpoint, each as its writer makes it."""
    rng = np.random.default_rng(0)
    ds = LabeledDataset(rng.uniform(size=(6, 4)), np.arange(6) % 3 + 1, K=3)
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, name) for name in ("a.csv", "images", "labels", "m.ckpt")]
        write_csv(paths[0], ds.features[:3, :2], ds.labels[:3])
        write_idx(paths[1], paths[2], ds, 2, 2)
        save_checkpoint(paths[3], build_triplet(*default_specs(2, 3, d_g=2, hidden=3), seed=0))
        blobs = []
        for path in paths:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    return blobs


CSV, IMAGES, LABELS, CKPT = _valid_files()


def damaged(valid):
    """``valid`` cut short, or with one to four bytes overwritten."""
    def overwrite(edits):
        blob = bytearray(valid)
        for at, value in edits:
            blob[at] = value
        return bytes(blob)

    edit = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255))
    return (st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
            | st.lists(edit, min_size=1, max_size=4).map(overwrite))


def _call(fn, *blobs):
    """``fn`` on the paths of files holding ``blobs``; None when it raised an
    expected error."""
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for i, blob in enumerate(blobs):
            paths.append(os.path.join(d, str(i)))
            with open(paths[-1], "wb") as fh:
                fh.write(blob)
        try:
            return fn(*paths)
        except EXPECTED:
            return None


# text that is close to a CSV: digits, signs, separators, comments and blanks
CSV_TEXT = st.text(alphabet="0123456789.,-+e#na \t\r\n\x00", max_size=60).map(
    lambda body: ("x0,label\n" + body).encode())


@given(st.binary(max_size=80) | CSV_TEXT | damaged(CSV))
@settings(max_examples=300, deadline=None)
def test_read_csv_fails_closed_and_keeps_every_row(blob):
    out = _call(read_csv, blob)
    if out is None:
        return
    features, labels = out
    # Python's universal newlines split the lines, as read_csv reads them
    lines = io.StringIO(blob.decode("utf-8"), newline=None).readlines()[1:]
    n = sum(1 for line in lines if line.strip())
    assert features.shape[0] == n
    assert labels is None or labels.shape == (n,)


@given(st.one_of(st.tuples(damaged(IMAGES), st.just(LABELS)),
                 st.tuples(st.just(IMAGES), damaged(LABELS)),
                 st.tuples(st.binary(max_size=40), st.binary(max_size=40))))
@settings(max_examples=150, deadline=None)
def test_load_idx_fails_closed(blobs):
    _call(load_idx, *blobs)


@given(damaged(CKPT) | st.binary(max_size=80))
@settings(max_examples=150, deadline=None)
def test_load_checkpoint_fails_closed(blob):
    _call(load_checkpoint, blob)
