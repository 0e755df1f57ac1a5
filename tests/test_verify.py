import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clarinet.verify as verify_mod
from clarinet.errors import ContractError
from clarinet.verify import (DiscreteDomain, exact_unbiasedness,
                             finite_difference, gradcheck_suite,
                             monte_carlo_unbiasedness, relative_error,
                             report_json, run_suite)


def random_domain(rng, m, K):
    return DiscreteDomain(posteriors=rng.dirichlet(np.ones(K), size=m),
                          weights=rng.dirichlet(np.ones(m)))


class TestExactUnbiasedness:
    def test_uniform_predictor_closed_form(self):
        # ell is log K everywhere, so both risks equal log K and the gap is 0
        rng = np.random.default_rng(0)
        K = 5
        domain = random_domain(rng, 7, K)
        predictor = np.full((7, K), 1.0 / K)
        true_risk, rewritten, gap = exact_unbiasedness(domain, predictor)
        assert true_risk == pytest.approx(np.log(K), abs=1e-12)
        assert rewritten == pytest.approx(np.log(K), abs=1e-12)
        assert gap < 1e-15

    def test_binary_single_point_hand_value(self):
        # one point, posterior (1,0), predictor (0.9,0.1): risk = -ln 0.9;
        # rewrite = [ -ln .9 - ln .1 ] - 1 * [ -ln .1 ] = -ln 0.9
        domain = DiscreteDomain(posteriors=np.array([[1.0, 0.0]]),
                                weights=np.array([1.0]))
        true_risk, rewritten, gap = exact_unbiasedness(domain, np.array([[0.9, 0.1]]))
        assert true_risk == pytest.approx(-np.log(0.9), abs=1e-12)
        assert rewritten == pytest.approx(-np.log(0.9), abs=1e-12)

    def test_degenerate_one_hot_posteriors(self):
        rng = np.random.default_rng(1)
        K, m = 4, 6
        domain = DiscreteDomain(posteriors=np.eye(K)[rng.integers(0, K, size=m)],
                                weights=rng.dirichlet(np.ones(m)))
        predictor = rng.dirichlet(np.ones(K), size=m)
        _, _, gap = exact_unbiasedness(domain, predictor)
        assert gap < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_gap_vanishes_everywhere(self, seed, K):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        domain = random_domain(rng, m, K)
        predictor = rng.dirichlet(np.ones(K), size=m)
        _, _, gap = exact_unbiasedness(domain, predictor)
        assert gap < 1e-10

    def test_enumeration_cap(self):
        rng = np.random.default_rng(2)
        domain = random_domain(rng, 2000, 10)
        predictor = rng.dirichlet(np.ones(10), size=2000)
        with pytest.raises(ContractError, match="cap"):
            exact_unbiasedness(domain, predictor)

    def test_off_simplex_predictor_rejected(self):
        domain = DiscreteDomain(posteriors=np.array([[0.5, 0.5]]),
                                weights=np.array([1.0]))
        with pytest.raises(ContractError):
            exact_unbiasedness(domain, np.array([[0.7, 0.7]]))

    def test_off_simplex_domain_rejected(self):
        with pytest.raises(ContractError):
            DiscreteDomain(posteriors=np.array([[0.6, 0.6]]), weights=np.array([1.0]))
        with pytest.raises(ContractError):
            DiscreteDomain(posteriors=np.array([[0.5, 0.5]]), weights=np.array([0.9]))


class TestMonteCarlo:
    def test_z_within_normal_range(self):
        rng = np.random.default_rng(3)
        domain = random_domain(rng, 9, 4)
        predictor = rng.dirichlet(np.ones(4), size=9)
        emp, true_risk, z = monte_carlo_unbiasedness(domain, predictor, 50_000, seed=0)
        assert abs(z) < 4.0
        assert emp == pytest.approx(true_risk, rel=0.2, abs=0.2)

    def test_standard_error_shrinks_with_root_n(self):
        rng = np.random.default_rng(4)
        domain = random_domain(rng, 9, 4)
        predictor = rng.dirichlet(np.ones(4), size=9)

        def observed_se(n, reps=40):
            vals = [monte_carlo_unbiasedness(domain, predictor, n, seed=s)[0]
                    for s in range(reps)]
            return np.std(vals, ddof=1)

        ratio = observed_se(2000) / observed_se(8000)
        assert ratio == pytest.approx(2.0, rel=0.35)

    def test_small_sample_rejected(self):
        domain = DiscreteDomain(posteriors=np.array([[0.5, 0.5]]),
                                weights=np.array([1.0]))
        with pytest.raises(ContractError):
            monte_carlo_unbiasedness(domain, np.array([[0.5, 0.5]]), 10, seed=0)


class TestFiniteDifference:
    def test_quadratic_exact_to_order_h2(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])

        def f(x):
            return float(x @ A @ x)

        x0 = np.array([0.3, -0.7])
        assert np.abs(finite_difference(f, x0) - 2 * A @ x0).max() < 1e-9

    def test_relative_error_scale_free(self):
        a = np.array([1e6, 2e6])
        assert relative_error(a, a * (1 + 1e-6)) == pytest.approx(1e-6, rel=1e-2)
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0


class TestGradcheckSuite:
    def test_all_ops_pass_tolerance(self):
        report = gradcheck_suite(seed=0)
        assert len(report) >= 18
        for name, err in report.items():
            assert err < 1e-4, name

    def test_detects_a_corrupted_gradient(self, monkeypatch):
        # break one backward rule; the audit must catch it
        import clarinet.autodiff as ad
        true_relu = ad.relu

        def bad_relu(x):
            out = true_relu(x)
            orig = out._backward
            if orig is not None:
                out._backward = lambda g: orig(1.1 * g)
            return out

        monkeypatch.setattr(verify_mod.ad, "relu", bad_relu)
        report = gradcheck_suite(seed=0)
        assert report["relu"] > 1e-4


class TestRunSuite:
    @pytest.mark.parametrize("name", ["unbiasedness", "gradcheck", "tmap"])
    def test_named_suites_pass(self, name):
        report = run_suite(name, seed=0)
        assert report["passed"] is True
        assert all(c["pass"] for c in report["checks"])

    def test_all_aggregates_every_check(self):
        report = run_suite("all", seed=0)
        names = {c["check"] for c in report["checks"]}
        assert {"exact_unbiasedness_gap", "monte_carlo_z", "gradcheck_max_rel_err",
                "tmap_simplex"} <= names
        assert report["passed"] is True

    def test_monte_carlo_z_is_pinned(self):
        # the value at seed 0 since the oracle's arithmetic last changed; its
        # one-batch risk and standard error are meant to stay bit for bit
        report = run_suite("unbiasedness", seed=0)
        metric = {c["check"]: c["metric"] for c in report["checks"]}["monte_carlo_z"]
        assert metric == 0.3701927399516963

    def test_unknown_suite_rejected(self):
        with pytest.raises(ContractError):
            run_suite("nope")

    def test_report_serializes(self):
        text = report_json(run_suite("tmap", seed=0))
        parsed = json.loads(text)
        assert parsed["suite"] == "tmap"
