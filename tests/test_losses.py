import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clarinet.autodiff as ad
from clarinet.autodiff import Tape, Tensor
from clarinet.complabel import partition_batch
from clarinet.errors import ContractError
from clarinet.losses import (adversarial_loss, entropy_weight, scatter_map,
                             total_comp_loss)
from clarinet.verify import finite_difference, relative_error


@pytest.fixture
def two_sample_batch():
    probs = Tensor(np.array([[0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]))
    labels = partition_batch([1, 3], 3)
    return probs, labels


def simplex_rows(rng, n, K):
    return rng.dirichlet(np.ones(K), size=n)


class TestClassCompLoss:
    def test_hand_arithmetic_k1(self, two_sample_batch):
        probs, labels = two_sample_batch
        expected = (-2 * 0.5 * -np.log(0.2)
                    + 0.5 * -np.log(0.2) + 0.5 * -np.log(0.1))
        per_class = total_comp_loss(probs, labels).data
        assert per_class[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3466, abs=5e-5)

    def test_empty_subset_rule_k2(self, two_sample_batch):
        probs, labels = two_sample_batch
        expected = 0.5 * -np.log(0.5) + 0.5 * -np.log(0.1)
        per_class = total_comp_loss(probs, labels).data
        assert per_class[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.4979, abs=5e-5)

    def test_binary_single_sample_cancels(self):
        probs = Tensor(np.array([[0.3, 0.7]]))
        per_class = total_comp_loss(probs, partition_batch([1], 2)).data
        assert per_class[0] == pytest.approx(0.0, abs=1e-12)


class TestTotalCompLoss:
    def test_sums_per_class(self, two_sample_batch):
        probs, labels = two_sample_batch
        per_class = total_comp_loss(probs, labels)
        assert per_class.shape == (3,)
        assert per_class.data.sum() == pytest.approx(2.3349, abs=5e-4)

    def test_l_neg_zero_when_all_nonnegative(self, two_sample_batch):
        probs, labels = two_sample_batch
        assert total_comp_loss(probs, labels).data.min() >= 0.0

    def test_l_neg_collects_negative_entries(self):
        # a prediction saturated toward the complementary class drives that
        # class's loss negative
        probs = Tensor(np.array([[0.001, 0.990, 0.009], [0.002, 0.009, 0.989],
                                 [0.990, 0.005, 0.005]]))
        per_class = total_comp_loss(probs, partition_batch([1, 1, 2], 3)).data
        negs = per_class[per_class < 0]
        assert len(negs) > 0
        assert negs.sum() < 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits0 = rng.normal(size=(8, 4))
        labels = partition_batch(rng.integers(1, 5, size=8), 4)

        def build(z):
            return ad.tsum(total_comp_loss(ad.softmax(z), labels))

        tape = Tape()
        z = Tensor(logits0, tape=tape)
        tape.backward(build(z))

        def value(x):
            t2 = Tape()
            return build(Tensor(x, tape=t2)).item()

        assert relative_error(z.grad, finite_difference(value, logits0)) < 1e-4


class TestScatterMap:
    def test_identity_at_l1(self):
        f = np.array([[0.2, 0.5, 0.3]])
        assert np.abs(scatter_map(Tensor(f), 1.0).data - f).max() < 1e-12

    def test_squares_renormalized_at_half(self):
        out = scatter_map(Tensor(np.array([[0.2, 0.5, 0.3]])), 0.5).data
        assert np.allclose(out, [[0.1053, 0.6579, 0.2368]], atol=5e-5)

    def test_one_hot_limit(self):
        out = scatter_map(Tensor(np.array([[0.7, 0.3]])), 0.1).data
        assert out.max() > 0.999

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ContractError):
            scatter_map(Tensor(np.array([[0.5, 0.5]])), 0.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_simplex_and_argmax_preserved(self, seed, l):
        rng = np.random.default_rng(seed)
        f = simplex_rows(rng, 8, 5)
        out = scatter_map(Tensor(f), l).data
        assert np.all(out >= 0.0)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        assert np.array_equal(out.argmax(axis=1), f.argmax(axis=1))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        f0 = simplex_rows(rng, 4, 3) * 0.9 + 0.02
        f0 /= f0.sum(axis=1, keepdims=True)
        c = rng.normal(size=(4, 3))

        def build(t):
            return ad.tsum(scatter_map(t, 0.5) * c)

        tape = Tape()
        t = Tensor(f0, tape=tape)
        tape.backward(build(t))

        def value(x):
            return build(Tensor(x, tape=Tape())).item()

        assert relative_error(t.grad, finite_difference(value, f0)) < 1e-4


class TestEntropyWeight:
    def test_uniform_maximum_entropy(self):
        H, omega = entropy_weight(np.full((1, 10), 0.1))
        assert H[0] == pytest.approx(np.log(10), abs=1e-12)
        assert omega[0] == pytest.approx(1.1, abs=1e-12)

    def test_one_hot_minimum_entropy(self):
        H, omega = entropy_weight(np.array([[1.0, 0.0, 0.0]]))
        assert H[0] == 0.0
        assert omega[0] == 2.0

    def test_hand_value(self):
        p = np.array([[0.6579, 0.2368, 0.1053]])
        expected = -(p * np.log(p)).sum()
        H, omega = entropy_weight(p)
        assert H[0] == pytest.approx(expected, abs=1e-12)
        assert H[0] == pytest.approx(0.8536, abs=5e-5)
        assert omega[0] == pytest.approx(1.4259, abs=5e-5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 12))
        p = simplex_rows(rng, 16, K)
        H, omega = entropy_weight(p)
        assert np.all(H >= -1e-12) and np.all(H <= np.log(K) + 1e-9)
        assert np.all(omega > 1.0 + np.exp(-np.log(K)) - 1e-9)
        assert np.all(omega <= 2.0 + 1e-12)


class TestAdversarialLoss:
    def test_constant_half_discriminator(self):
        loss = adversarial_loss(Tensor(np.full(5, 0.5)), np.array([2.0, 1.0, 5.0]),
                                np.array([1.0, 9.0]))
        assert loss.item() == pytest.approx(2 * np.log(0.5), abs=1e-12)

    def test_equal_weights_reduce_to_means(self):
        rng = np.random.default_rng(2)
        ds = rng.uniform(0.1, 0.9, size=4)
        dt = rng.uniform(0.1, 0.9, size=3)
        loss = adversarial_loss(Tensor(np.concatenate([ds, dt])), np.ones(4), np.ones(3))
        expected = np.log(ds).mean() + np.log(1 - dt).mean()
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_hand_arithmetic(self):
        loss = adversarial_loss(Tensor(np.array([0.9, 0.5, 0.2])), np.array([2.0, 1.0]),
                                np.array([1.0]))
        expected = (2 * np.log(0.9) + np.log(0.5)) / 3 + np.log(0.8)
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.5244, abs=5e-5)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = rng.uniform(1e-6, 1 - 1e-6, size=5)
            dt = rng.uniform(1e-6, 1 - 1e-6, size=4)
            loss = adversarial_loss(Tensor(np.concatenate([ds, dt])), 1 + rng.random(5),
                                    1 + rng.random(4))
            assert loss.item() <= 0.0

    def test_empty_domain_rejected(self):
        with pytest.raises(ContractError):
            adversarial_loss(Tensor(np.array([0.5])), np.zeros(0), np.ones(1))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        z0 = rng.normal(size=(6,))
        w_s = 1 + rng.random(4)
        w_t = 1 + rng.random(2)

        def build(z):
            return adversarial_loss(ad.sigmoid(z), w_s, w_t)

        tape = Tape()
        z = Tensor(z0, tape=tape)
        tape.backward(build(z))

        def value(x):
            return build(Tensor(x, tape=Tape())).item()

        assert relative_error(z.grad, finite_difference(value, z0)) < 1e-4
