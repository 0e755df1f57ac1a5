import os
import threading

import numpy as np
import pytest
from scipy import stats

from clarinet.data import (IDX_IMAGES_MAGIC, LabeledDataset, SyntheticPairConfig,
                           batches, load_idx, make_synthetic_pair, read_csv,
                           write_csv, write_idx)
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


def test_target_labels_hidden_from_training_view():
    cfg = SyntheticPairConfig(K=3, n_per_domain=50, seed=0)
    _, tgt = make_synthetic_pair(cfg)
    view = tgt.unlabeled()
    assert not hasattr(view, "labels")
    assert np.array_equal(view.features, tgt.features)
