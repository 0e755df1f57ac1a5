import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clarinet.verify as verify_mod
from clarinet.errors import ContractError
from clarinet.losses import PROB_FLOOR
from clarinet.verify import (DiscreteDomain, _complementary_labels, _draw_points,
                             exact_unbiasedness, finite_difference, gradcheck_suite,
                             monte_carlo_unbiasedness, relative_error, run_suite)


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


class TestNonFiniteInputs:
    # NaN compares false both ways, so a range test alone lets it through
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_domain_rejected(self, bad):
        with pytest.raises(ContractError, match="posteriors"):
            DiscreteDomain(posteriors=np.array([[bad, bad]]), weights=np.array([1.0]))
        with pytest.raises(ContractError, match="posteriors"):
            DiscreteDomain(posteriors=np.array([[0.5, 0.5], [bad, 0.5]]),
                           weights=np.array([0.5, 0.5]))
        with pytest.raises(ContractError, match="weights"):
            DiscreteDomain(posteriors=np.array([[0.5, 0.5]]), weights=np.array([bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predictor_rejected(self, bad):
        domain = DiscreteDomain(posteriors=np.array([[0.5, 0.5], [0.2, 0.8]]),
                                weights=np.array([0.5, 0.5]))
        predictor = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ContractError, match="predictor"):
            exact_unbiasedness(domain, predictor)
        with pytest.raises(ContractError, match="predictor"):
            monte_carlo_unbiasedness(domain, predictor, 1000, seed=0)


# a 3-point, 2-class domain against predictors of other shapes: one row,
# a 1-D row, too many classes, and one point too few
@pytest.mark.parametrize("predictor", [[[0.3, 0.7]], [0.3, 0.7],
                                       [[0.2, 0.3, 0.5]] * 3, [[0.3, 0.7]] * 2])
def test_predictor_of_another_shape_rejected(predictor):
    domain = DiscreteDomain(posteriors=[[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]],
                            weights=[0.2, 0.3, 0.5])
    message = re.escape("predictor has shape %s, the domain's is (3, 2)"
                        % (np.shape(predictor),))
    with pytest.raises(ContractError, match=message):
        exact_unbiasedness(domain, predictor)
    with pytest.raises(ContractError, match=message):
        monte_carlo_unbiasedness(domain, predictor, 1000, seed=0)


def argmax_labels(posteriors, xs, u, offsets):
    """The complementary labels as the oracle drew them before the running
    maximum: the first k with u < cum[x, k], else 0, then the offset."""
    K = posteriors.shape[1]
    y0 = (u[:, None] < np.cumsum(posteriors, axis=1)[xs]).argmax(axis=1)
    return (y0 + offsets) % K + 1


class TestComplementaryLabels:
    @pytest.mark.parametrize("rows", [
        # zero columns, first, inner and last
        [[0.0, 0.5, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
         [0.0, 0.0, 1.0, 0.0]],
        # entries of -1e-12 that make the running sum dip
        [[0.5, -1e-12, 0.5 + 1e-12], [0.6, 0.4 + 5e-13, -1e-12],
         [-1e-12, 1.0, 1e-12]],
        # running sums that end just below 1
        [[0.3, 0.7 - 5e-13], [0.25, 0.25, 0.25, 0.25 - 8e-13]],
    ])
    def test_equals_the_argmax_draw(self, rows):
        width = max(map(len, rows))
        for row in rows:
            posteriors = np.array([row + [0.0] * (width - len(row))])
            DiscreteDomain(posteriors=posteriors, weights=np.array([1.0]))
            cum = np.cumsum(posteriors[0])
            # u at, just below and just above every running-sum entry,
            # the last included, within [0, 1)
            u = np.concatenate([cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0),
                                [0.0, 0.5, np.nextafter(1.0, 0.0)]])
            u = np.unique(u[(u >= 0.0) & (u < 1.0)])
            xs = np.zeros(len(u), dtype=np.int64)
            for offset in range(1, width):
                offsets = np.full(len(u), offset, dtype=np.int64)
                expected = argmax_labels(posteriors, xs, u, offsets)
                assert np.array_equal(_complementary_labels(posteriors, xs, u, offsets),
                                      expected), (row, offset)

    @pytest.mark.parametrize("K", [2, 4, 10])
    def test_equals_the_argmax_draw_on_random_domains(self, K):
        rng = np.random.default_rng(K)
        posteriors = rng.dirichlet(np.full(K, 0.3), size=12)
        posteriors[:, 1] = 0.0
        posteriors /= posteriors.sum(axis=1, keepdims=True)
        xs = rng.integers(0, 12, size=20_000)
        u = rng.random(20_000)
        offsets = rng.integers(1, K, size=20_000)
        expected = argmax_labels(posteriors, xs, u, offsets)
        assert np.array_equal(_complementary_labels(posteriors, xs, u, offsets), expected)


class TestDrawPoints:
    @pytest.mark.parametrize("weights", [
        [1.0],
        [0.5, 0.5],
        [0.2, 0.3, 0.5],
        # zero weights, first, inner and last
        [0.0, 0.25, 0.0, 0.75, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        # a running sum that ends just below 1
        [0.25, 0.25, 0.25, 0.25 - 8e-13],
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_equals_choice_and_leaves_the_stream_as_choice_does(self, weights, seed):
        weights = np.array(weights)
        expected_rng = np.random.default_rng(seed)
        expected = expected_rng.choice(len(weights), 5000, p=weights)
        rng = np.random.default_rng(seed)
        points = _draw_points(rng, weights, 5000)
        assert points.dtype == expected.dtype
        assert np.array_equal(points, expected)
        # the draws that follow are those that follow choice
        assert np.array_equal(rng.random(100), expected_rng.random(100))
        assert np.array_equal(rng.integers(1, 4, size=100),
                              expected_rng.integers(1, 4, size=100))

    def test_a_uniform_on_an_entry_counts_it(self):
        # choice reads cdf.searchsorted(u, side="right"), so an entry equal
        # to u counts, and a run of equal entries counts whole
        weights = np.array([0.25, 0.0, 0.25, 0.5])
        u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, np.nextafter(0.5, 1.0),
                      np.nextafter(1.0, 0.0)])

        class FixedUniforms:
            def random(self, n):
                assert n == len(u)
                return u.copy()

        assert np.array_equal(_draw_points(FixedUniforms(), weights, len(u)),
                              [0, 0, 2, 3, 3, 3])

    def test_equals_choice_on_random_weights(self):
        for m in (1, 2, 8, 29, 200):
            w = np.random.default_rng(m).dirichlet(np.full(m, 0.3))
            if m > 1:
                w[::3] = 0.0
                w /= w.sum()
            for seed in range(5):
                assert np.array_equal(_draw_points(np.random.default_rng(seed), w, 20_000),
                                      np.random.default_rng(seed).choice(m, 20_000, p=w))


class TestMonteCarlo:
    # (empirical, true risk, z) from the argmax label draw and the fancy
    # gathers the oracle used before its table gathers, bit for bit
    PINNED_K4 = {
        0: ("0x1.0915c01e8f0b7p+1", "0x1.098f9c5e6acf4p+1", "-0x1.71852c2695509p-2"),
        1: ("0x1.08edc3ae4e397p+1", "0x1.098f9c5e6acf4p+1", "-0x1.ed93b9eb95855p-2"),
        2: ("0x1.0b9835fa2007ep+1", "0x1.098f9c5e6acf4p+1", "0x1.8c69d34857287p+0"),
    }
    PINNED_K10 = ("0x1.75b3fcb06a78fp+1", "0x1.732d4bd853e21p+1", "0x1.49816f36f7db0p-1")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_at_k4(self, seed):
        rng = np.random.default_rng(5)
        domain = random_domain(rng, 8, 4)
        predictor = rng.dirichlet(np.ones(4), size=8)
        out = monte_carlo_unbiasedness(domain, predictor, 100_000, seed=seed)
        assert tuple(map(float.hex, out)) == self.PINNED_K4[seed]

    def test_pinned_at_k10_with_a_zero_column(self):
        rng = np.random.default_rng(6)
        posteriors = rng.dirichlet(np.ones(10), size=20)
        posteriors[:, 3] = 0.0
        posteriors /= posteriors.sum(axis=1, keepdims=True)
        domain = DiscreteDomain(posteriors=posteriors, weights=rng.dirichlet(np.ones(20)))
        predictor = rng.dirichlet(np.ones(10), size=20)
        out = monte_carlo_unbiasedness(domain, predictor, 100_000, seed=0)
        assert tuple(map(float.hex, out)) == self.PINNED_K10

    def test_one_call_at_100k_peaks_below_5_mib(self):
        # scored in blocks, no batch-sized CE buffer is alive beside the
        # batch (8.1 MiB with one), and the points are one byte each
        # (5.3 MiB with int64 points)
        rng = np.random.default_rng(5)
        domain = random_domain(rng, 8, 4)
        predictor = rng.dirichlet(np.ones(4), size=8)
        monte_carlo_unbiasedness(domain, predictor, 100_000, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            monte_carlo_unbiasedness(domain, predictor, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 5 << 20

    def test_standard_error_over_more_cells_than_a_byte_indexes(self):
        # 30 points x 10 classes: the flat index into the CE table runs past
        # 255 while the points fit in one byte
        rng = np.random.default_rng(8)
        m, K, n = 30, 10, 20_000
        domain = random_domain(rng, m, K)
        predictor = rng.dirichlet(np.ones(K), size=m)
        emp, true_risk, z = monte_carlo_unbiasedness(domain, predictor, n, seed=0)
        draws = np.random.default_rng(0)
        xs = draws.choice(m, n, p=domain.weights)
        ybar = argmax_labels(domain.posteriors, xs, draws.random(n),
                             draws.integers(1, K, size=n))
        ce = -np.log(np.clip(predictor, PROB_FLOOR, 1.0))
        psi = ce[xs].sum(axis=1) - (K - 1.0) * ce[xs, ybar - 1]
        se = psi.std(ddof=1) / np.sqrt(n)
        assert (emp - true_risk) / z == pytest.approx(se, rel=1e-9)

    def test_domain_past_the_enumeration_cap(self):
        # 2600 x 4 = 10,400 cells: the exact oracle refuses it, and the true
        # risk here is formed without going through it
        rng = np.random.default_rng(7)
        domain = random_domain(rng, 2600, 4)
        predictor = rng.dirichlet(np.ones(4), size=2600)
        _, _, z = monte_carlo_unbiasedness(domain, predictor, 2000, seed=0)
        assert abs(z) < 4.0

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

    def test_negative_weight_rejected_before_any_draw(self, monkeypatch):
        # the domain admits weights down to -1e-12, which no draw may read
        domain = DiscreteDomain(posteriors=np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]),
                                weights=np.array([0.5 + 1e-13, -1e-13, 0.5]))

        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(verify_mod.np.random, "default_rng", no_draws)
        with pytest.raises(ContractError, match=r"non-negative weights, got \[.*-1\.?e-13"):
            monte_carlo_unbiasedness(domain, np.full((3, 2), 0.5), 1000, seed=0)

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

    # every entry at seeds 0 and 1, as the per-op tape computed them before
    # its bookkeeping was trimmed; any change to an op's arithmetic shows here
    PINNED = {
        0: {
            "add": "0x1.4d003ffff6a16p-35",
            "sub": "0x1.c03fffff9de40p-35",
            "mul": "0x1.4a9ee13311f05p-38",
            "div": "0x1.14ff07199facap-32",
            "matmul": "0x1.eab7e49419901p-37",
            "matmul_bias_x": "0x1.0c5bc81492cb9p-37",
            "matmul_bias_w": "0x1.9704226ffa28fp-38",
            "matmul_bias_b": "0x1.20243a0ed4330p-37",
            "relu": "0x1.13607ffff8407p-36",
            "sigmoid": "0x1.0f85bb6a6c5c3p-35",
            "softmax": "0x1.0c63184ded4a2p-34",
            "log": "0x1.de8177c480743p-34",
            "pow": "0x1.78a0cc535b0ffp-35",
            "mean": "0x1.9e9f1c7604fd5p-38",
            "take_rows": "0x1.7c593b13ac1c0p-38",
            "column": "0x1.ccfd5555485cdp-38",
            "outer_flatten": "0x1.10884e4b8312cp-36",
            "fanout_two_consumers": "0x1.0c0e80fac67dcp-36",
            "scatter_map_l0.5": "0x1.a12c31e7a05fep-32",
            "total_comp_loss": "0x1.4f248b7049da7p-34",
            "adversarial_loss": "0x1.f4c5895ecc3cfp-35",
            "network_softmax": "0x1.1ef71f52f05c3p-34",
            "network_sigmoid": "0x1.2cce9477b7a76p-35",
            "grad_reverse_exact": "0x0.0p+0",
        },
        1: {
            "add": "0x1.13607ffff8407p-36",
            "sub": "0x1.4d003ffff6a16p-35",
            "mul": "0x1.b5f30703402d0p-38",
            "div": "0x1.876f411dd4588p-32",
            "matmul": "0x1.ee1e83fe4be2fp-37",
            "matmul_bias_x": "0x1.3e43b7ba8a6a3p-36",
            "matmul_bias_w": "0x1.e63c930b19b8dp-36",
            "matmul_bias_b": "0x1.d10464c074e29p-36",
            "relu": "0x1.4d003ffff6a16p-35",
            "sigmoid": "0x1.19c7d4169f594p-35",
            "softmax": "0x1.df0a6ea8e39abp-36",
            "log": "0x1.f0b721bee70a4p-34",
            "pow": "0x1.2b3870a36efc9p-35",
            "mean": "0x1.968a7734d0393p-38",
            "take_rows": "0x1.63a24ec4cd6e1p-36",
            "column": "0x1.2256aaaaa27f6p-37",
            "outer_flatten": "0x1.11e10365fdda0p-37",
            "fanout_two_consumers": "0x1.a31da47d582c6p-35",
            "scatter_map_l0.5": "0x1.8d3e384fabdacp-32",
            "total_comp_loss": "0x1.0a258f3bc8fccp-33",
            "adversarial_loss": "0x1.4298c3814b4eap-35",
            "network_softmax": "0x1.0642e7c75d1f7p-35",
            "network_sigmoid": "0x1.60e9d0f9a217bp-37",
            "grad_reverse_exact": "0x0.0p+0",
        },
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pinned(self, seed):
        report = gradcheck_suite(seed=seed)
        assert {name: float.hex(err) for name, err in report.items()} == self.PINNED[seed]

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
        text = json.dumps(run_suite("tmap", seed=0), indent=2)
        parsed = json.loads(text)
        assert parsed["suite"] == "tmap"
