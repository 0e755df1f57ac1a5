import numpy as np
import pytest
from scipy import stats

from clarinet.complabel import (ComplementaryDataset, generate_complementary,
                                partition_batch, recover_posterior,
                                transition_matrix)
from clarinet.errors import ContractError


class TestTransitionMatrix:
    def test_k3_closed_form(self):
        tm = transition_matrix(3)
        assert np.array_equal(tm.Q, [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
        assert np.array_equal(tm.Qinv, [[-1, 1, 1], [1, -1, 1], [1, 1, -1]])

    def test_k2_swap_is_self_inverse(self):
        tm = transition_matrix(2)
        assert np.array_equal(tm.Q, [[0, 1], [1, 0]])
        assert np.array_equal(tm.Qinv, tm.Q)

    @pytest.mark.parametrize("K", [2, 3, 10, 100])
    def test_q_times_qinv_is_identity(self, K):
        tm = transition_matrix(K)
        assert np.abs(tm.Q @ tm.Qinv - np.eye(K)).max() < 1e-12

    def test_rows_sum_to_one_diagonal_zero(self):
        tm = transition_matrix(7)
        assert np.array_equal(np.diag(tm.Q), np.zeros(7))
        assert np.abs(tm.Q.sum(axis=1) - 1.0).max() < 1e-12

    def test_k_below_two_rejected(self):
        with pytest.raises(ContractError):
            transition_matrix(1)


class TestGenerate:
    def test_binary_case_is_deterministic(self):
        ds = generate_complementary(np.zeros((50, 2)), np.ones(50, dtype=int), 2,
                                    np.random.default_rng(0))
        assert np.all(ds.comp_labels == 2)

    def test_never_equals_true_label(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(1, 6, size=5000)
        ds = generate_complementary(np.zeros((5000, 1)), labels, 5, rng)
        assert np.all(ds.comp_labels != ds.hidden_true_labels())

    def test_uniform_over_wrong_classes(self):
        n = 400_000
        ds = generate_complementary(np.zeros((n, 1)), np.ones(n, dtype=int), 4,
                                    np.random.default_rng(2))
        freqs = np.bincount(ds.comp_labels, minlength=5)[2:5] / n
        assert np.abs(freqs - 1.0 / 3.0).max() < 0.005

    def test_chi_square_uniformity(self):
        K = 6
        n = 100_000
        rng = np.random.default_rng(3)
        for y in (1, 4):
            ds = generate_complementary(np.zeros((n, 1)), np.full(n, y), K, rng)
            counts = np.bincount(ds.comp_labels, minlength=K + 1)[1:]
            observed = np.delete(counts, y - 1)
            chi2 = ((observed - n / (K - 1)) ** 2 / (n / (K - 1))).sum()
            assert chi2 < stats.chi2.ppf(0.999, df=K - 2)

    def test_hidden_labels_are_gated(self):
        ds = ComplementaryDataset(features=np.zeros((3, 1)),
                                  comp_labels=[1, 2, 3], K=3)
        with pytest.raises(ContractError, match="hidden true labels"):
            ds.hidden_true_labels()

    def test_contradictory_labels_rejected(self):
        with pytest.raises(ContractError):
            ComplementaryDataset(features=np.zeros((2, 1)), comp_labels=[1, 2],
                                 K=3, _true_labels=[1, 1])

    def test_empty_dataset_names_itself(self):
        with pytest.raises(ContractError, match="dataset 'held-out' is empty"):
            ComplementaryDataset(features=np.zeros((0, 2)), comp_labels=[], K=3,
                                 name="held-out")


class TestRecoverPosterior:
    def test_uniform_fixed_point(self):
        eta = recover_posterior(np.full(3, 1.0 / 3.0))
        assert np.allclose(eta, 1.0 / 3.0, atol=1e-15)

    def test_direct_substitution(self):
        assert np.allclose(recover_posterior([0.0, 0.5, 0.5]), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("K", [2, 3, 5, 10])
    def test_matches_qinv_matvec(self, K):
        rng = np.random.default_rng(K)
        tm = transition_matrix(K)
        for _ in range(20):
            eta_bar = rng.dirichlet(np.ones(K))
            assert np.abs(recover_posterior(eta_bar) - tm.Qinv @ eta_bar).max() < 1e-12

    def test_off_simplex_rejected(self):
        with pytest.raises(ContractError):
            recover_posterior([0.5, 0.6])

    def test_recovers_generating_distribution(self):
        # empirical complementary frequencies -> recover_posterior -> class law
        K = 5
        n = 200_000
        rng = np.random.default_rng(9)
        law = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
        true = rng.choice(np.arange(1, K + 1), size=n, p=law)
        ds = generate_complementary(np.zeros((n, 1)), true, K, rng)
        eta_bar = np.bincount(ds.comp_labels, minlength=K + 1)[1:] / n
        recovered = recover_posterior(eta_bar)
        # 3 Monte-Carlo standard errors on each recovered component
        se = (K - 1) * np.sqrt(eta_bar * (1 - eta_bar) / n)
        assert np.all(np.abs(recovered - law) < 3 * se + 1e-12)


class TestPartition:
    def test_counting_example(self):
        p = partition_batch([1, 1, 3], 3)
        assert np.array_equal(p.counts, [2, 0, 1])
        assert np.allclose(p.priors, [2 / 3, 0.0, 1 / 3])

    def test_degenerate_single_class(self):
        p = partition_batch([2, 2, 2], 4)
        assert np.allclose(p.priors, [0, 1, 0, 0])

    def test_priors_sum_to_one(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(1, 11, size=128)
        p = partition_batch(labels, 10)
        assert abs(p.priors.sum() - 1.0) < 1e-12

    def test_reconstruction_is_a_permutation(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(1, 5, size=37)
        p = partition_batch(labels, 4)
        gathered = np.concatenate(p.subsets)
        assert sorted(gathered) == list(range(37))
        for k in range(4):
            assert np.all(labels[p.subsets[k]] == k + 1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            partition_batch([], 3)
