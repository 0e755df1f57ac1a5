import os
import threading
import warnings

import numpy as np
import pytest
from scipy import stats

from clarinet.data import (IDX_IMAGES_MAGIC, LabeledDataset, SyntheticPairConfig,
                           UnlabeledDataset, batches, load_idx, make_synthetic_pair,
                           read_csv, write_csv, write_idx)
from clarinet.errors import ContractError, FormatError


@pytest.fixture
def digit_dataset():
    rng = np.random.default_rng(0)
    feats = rng.integers(0, 256, size=(40, 784)).astype(np.float64) / 255.0
    labels = rng.integers(1, 11, size=40)
    labels[0] = 10  # pin K
    return LabeledDataset(features=feats, labels=labels, K=10, name="digits")


class TestIdx:
    def test_round_trip(self, tmp_path, digit_dataset):
        imgs, labs = tmp_path / "imgs", tmp_path / "labs"
        write_idx(imgs, labs, digit_dataset, rows=28, cols=28)
        loaded = load_idx(imgs, labs)
        assert loaded.features.shape == (40, 784)
        assert np.abs(loaded.features - digit_dataset.features).max() < 1.0 / 255.0 / 2 + 1e-12
        assert np.array_equal(loaded.labels, digit_dataset.labels)
        assert loaded.features.min() >= 0.0 and loaded.features.max() <= 1.0
        pixels = np.clip(np.rint(digit_dataset.features * 255.0), 0, 255).astype(np.uint8)
        assert np.array_equal(loaded.features.view(np.int64),
                              (pixels.astype(np.float64) / 255.0).view(np.int64))

    def test_wrong_magic_cites_value(self, tmp_path, digit_dataset):
        imgs, labs = tmp_path / "imgs", tmp_path / "labs"
        write_idx(imgs, labs, digit_dataset, rows=28, cols=28)
        corrupted = bytearray(imgs.read_bytes())
        corrupted[3] = 0x42
        imgs.write_bytes(bytes(corrupted))
        with pytest.raises(FormatError, match="0x00000842"):
            load_idx(imgs, labs)

    def test_truncated_file_fails_closed(self, tmp_path, digit_dataset):
        imgs, labs = tmp_path / "imgs", tmp_path / "labs"
        write_idx(imgs, labs, digit_dataset, rows=28, cols=28)
        data = imgs.read_bytes()
        imgs.write_bytes(data[:len(data) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(imgs, labs)

    @pytest.mark.parametrize("cut", [None, 100])
    def test_pipes_read_like_files(self, tmp_path, digit_dataset, cut):
        # a FIFO has no size, as with `clarinet train` on <(zcat images.gz)
        imgs, labs = tmp_path / "imgs", tmp_path / "labs"
        write_idx(imgs, labs, digit_dataset, rows=28, cols=28)
        feeds = [(tmp_path / "imgs.fifo", imgs.read_bytes()[:cut])]
        if cut is None:  # a cut image file fails before the labels are opened
            feeds.append((tmp_path / "labs.fifo", labs.read_bytes()))

        def feed():
            for fifo, payload in feeds:
                with open(fifo, "wb") as fh:
                    fh.write(payload)

        for fifo, _ in feeds:
            os.mkfifo(fifo)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        if cut is None:
            loaded = load_idx(feeds[0][0], feeds[1][0])
            assert np.array_equal(loaded.labels, digit_dataset.labels)
            assert np.array_equal(loaded.features, load_idx(imgs, labs).features)
        else:
            with pytest.raises(FormatError, match="truncated"):
                load_idx(feeds[0][0], labs)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_count_mismatch(self, tmp_path, digit_dataset):
        imgs, labs = tmp_path / "imgs", tmp_path / "labs"
        write_idx(imgs, labs, digit_dataset, rows=28, cols=28)
        short = LabeledDataset(features=digit_dataset.features[:30],
                               labels=digit_dataset.labels[:30], K=10)
        write_idx(tmp_path / "imgs2", tmp_path / "labs2", short, rows=28, cols=28)
        with pytest.raises(FormatError, match="count"):
            load_idx(tmp_path / "imgs2", labs)  # 30 images vs 40 labels

    def test_pixels_equal_the_array_expression(self, tmp_path):
        # random pixels and the edges of the scaling: 0, 1, values outside
        # [0, 1] and the half-steps of 1/255 that rint rounds to even
        rng = np.random.default_rng(1)
        edges = np.concatenate([[0.0, 1.0, -0.0, -1e-9, -3.0, 1.0 + 1e-9, 7.5],
                                (np.arange(256) + 0.5) / 255.0,
                                np.arange(256) / 255.0])
        feats = np.concatenate([rng.uniform(-0.2, 1.2, size=2000), edges,
                                np.zeros(-(2000 + len(edges)) % 16)]).reshape(-1, 16)
        ds = LabeledDataset(feats, np.arange(len(feats)) % 256 + 1, K=256)
        imgs, labs = tmp_path / "imgs", tmp_path / "labs"
        write_idx(imgs, labs, ds, rows=4, cols=4)
        expected = np.clip(np.rint(feats * 255.0), 0, 255).astype(np.uint8)
        assert imgs.read_bytes()[16:] == expected.tobytes()
        assert np.array_equal(load_idx(imgs, labs).labels, ds.labels)

    def test_label_above_a_byte_rejected(self, tmp_path):
        ds = LabeledDataset(np.zeros((3, 4)), [1, 300, 2], K=300, name="wide")
        with pytest.raises(ContractError, match=r"dataset 'wide': IDX labels must be "
                                                r"in 1\.\.256, got 1\.\.300"):
            write_idx(tmp_path / "imgs", tmp_path / "labs", ds, rows=2, cols=2)
        assert not (tmp_path / "imgs").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        feats = np.zeros((3, 4))
        feats[1, 2] = bad
        ds = LabeledDataset(feats, [1, 2, 3], K=3, name="holes")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="dataset 'holes': IDX features "
                                                    "must be finite"):
                write_idx(tmp_path / "imgs", tmp_path / "labs", ds, rows=2, cols=2)
        assert not (tmp_path / "imgs").exists()


class TestSynthetic:
    def test_null_shift_same_law(self):
        cfg = SyntheticPairConfig(K=3, n_per_domain=4000, spread=0.2,
                                  rotation_deg=0.0, seed=1)
        src, tgt = make_synthetic_pair(cfg)
        # same generating law: per-class means agree within sampling error
        for k in range(1, 4):
            ms = src.features[src.labels == k].mean(axis=0)
            mt = tgt.features[tgt.labels == k].mean(axis=0)
            assert np.abs(ms - mt).max() < 0.05

    def test_same_seed_bit_identical(self):
        cfg = SyntheticPairConfig(seed=7)
        a_src, a_tgt = make_synthetic_pair(cfg)
        b_src, b_tgt = make_synthetic_pair(cfg)
        assert np.array_equal(a_src.features, b_src.features)
        assert np.array_equal(a_tgt.features, b_tgt.features)
        assert np.array_equal(a_src.labels, b_src.labels)

    def test_rotation_creates_a_transfer_gap(self):
        # a nearest-class-mean rule fit on the source scores lower on the
        # rotated target
        cfg = SyntheticPairConfig(K=4, n_per_domain=600, spread=0.5,
                                  rotation_deg=45.0, seed=0)
        src, tgt = make_synthetic_pair(cfg)
        means = np.stack([src.features[src.labels == k].mean(axis=0)
                          for k in range(1, 5)])

        def accuracy(ds):
            d = ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2)
            return np.mean(d.argmin(axis=1) + 1 == ds.labels)

        assert accuracy(src) > accuracy(tgt) + 0.05

    def test_invalid_config_rejected(self):
        with pytest.raises(ContractError):
            SyntheticPairConfig(K=1)
        with pytest.raises(ContractError):
            SyntheticPairConfig(spread=0.0)


class TestBatches:
    def test_sizes_with_short_tail(self):
        rng = np.random.default_rng(0)
        sizes = [len(b) for b in batches(10, 3, rng)]
        assert sizes == [3, 3, 3, 1]

    def test_one_epoch_is_a_permutation(self):
        rng = np.random.default_rng(1)
        seen = np.concatenate(batches(57, 8, rng))
        assert sorted(seen) == list(range(57))

    def test_seeded_determinism(self):
        a = batches(100, 16, np.random.default_rng(42))
        b = batches(100, 16, np.random.default_rng(42))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_shuffle_is_uniform_in_distribution(self):
        # rank statistic: position of element 0 over many epochs on n=5
        rng = np.random.default_rng(2)
        n_epochs = 20_000
        positions = np.zeros(5)
        for _ in range(n_epochs):
            perm = np.concatenate(batches(5, 5, rng))
            positions[np.flatnonzero(perm == 0)[0]] += 1
        chi2 = ((positions - n_epochs / 5) ** 2 / (n_epochs / 5)).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=4)

    def test_bad_batch_size(self):
        with pytest.raises(ContractError):
            batches(10, 0, np.random.default_rng(0))


class TestCsv:
    def test_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(12, 3))
        labels = rng.integers(1, 5, size=12)
        path = tmp_path / "data.csv"
        write_csv(path, feats, labels)
        rf, rl = read_csv(path)
        assert np.allclose(rf, feats, atol=0, rtol=0)
        assert np.array_equal(rl, labels)

    def test_round_trip_without_labels(self, tmp_path):
        feats = np.random.default_rng(4).normal(size=(5, 2))
        path = tmp_path / "data.csv"
        write_csv(path, feats)
        rf, rl = read_csv(path)
        assert np.allclose(rf, feats)
        assert rl is None


    @pytest.mark.parametrize("bad", ["2.7", "nan", "inf"])
    def test_non_integer_label_rejected(self, tmp_path, bad):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n0.5,1.0,1\n0.25,2.0,%s\n" % bad)
        with pytest.raises(FormatError, match=r"data row 2 has non-integer label %s"
                           % bad):
            read_csv(path)

    @pytest.mark.parametrize("rows, shown", [
        ("0.5,1.0,1\n0.25,abc,2\n", "data row 2, column 2: 'abc' is not a number"),
        ("0.5,,1\n", "data row 1, column 2: '' is not a number"),
        ("0.5,1.0,1\n\n0.25,2\n", "data row 2 has 2 values, data row 1 has 3"),
        ("0.5,1\n0.25,2\n", "data rows have 2 values, the header names 3 columns"),
    ])
    def test_row_that_is_not_a_numeric_table_row_rejected(self, tmp_path, rows, shown):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n" + rows)
        with pytest.raises(FormatError) as info:
            read_csv(path)
        assert str(info.value) == "%s: %s" % (path, shown)

    @pytest.mark.parametrize("label", [True, False])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, bad, label):
        path = tmp_path / "data.csv"
        head, tail = ("x0,x1,label\n", ",1") if label else ("x0,x1\n", "")
        path.write_text(head + "0.5,1.0%s\n0.25,%s%s\n" % (tail, bad, tail))
        with pytest.raises(FormatError) as info:
            read_csv(path)
        assert str(info.value) == ("%s: data row 2, column 2: %s is not a finite number"
                                   % (path, bad))


class TestDatasetRule:
    def test_rows_and_labels_must_agree(self):
        # else evaluate would compare 5 predictions with 3 labels
        with pytest.raises(ContractError, match=r"dataset 'd' has 5 rows, labels \(3,\)"):
            LabeledDataset(features=np.zeros((5, 2)), labels=[1, 2, 3], K=3, name="d")

    @pytest.mark.parametrize("make", [
        lambda X: LabeledDataset(features=X, labels=np.ones(6), K=2, name="d"),
        lambda X: UnlabeledDataset(features=X, name="d"),
    ])
    def test_one_dimensional_features_rejected(self, make):
        with pytest.raises(ContractError, match=r"dataset 'd': features not n x d: \(6,\)"):
            make(np.zeros(6))

    def test_one_class_rejected(self):
        with pytest.raises(ContractError, match="dataset 'd': K must be >= 2, got 1"):
            LabeledDataset(features=np.zeros((3, 2)), labels=[1, 1, 1], K=1, name="d")


def test_target_labels_hidden_from_training_view():
    cfg = SyntheticPairConfig(K=3, n_per_domain=50, seed=0)
    _, tgt = make_synthetic_pair(cfg)
    view = tgt.unlabeled()
    assert not hasattr(view, "labels")
    assert np.array_equal(view.features, tgt.features)
