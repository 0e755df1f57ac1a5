"""Standalone mathematical oracles: exact unbiasedness of the complementary
risk rewrite by full enumeration, its Monte-Carlo counterpart, and a
finite-difference audit of every differentiable operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .complabel import partition_batch, transition_matrix
from .errors import ContractError
from .losses import (PROB_FLOOR, adversarial_loss, scatter_map, total_comp_loss)

ENUMERATION_CELL_CAP = 10_000
FD_STEP = 1e-5
FD_TOL = 1e-4


@dataclass(frozen=True)
class DiscreteDomain:
    """A finite feature space with known class posteriors and point weights."""

    posteriors: np.ndarray    # m x K rows on the simplex
    weights: np.ndarray       # m marginal weights, sum 1

    def __post_init__(self):
        post = np.asarray(self.posteriors, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(post < -1e-12) or np.any(np.abs(post.sum(axis=1) - 1.0) > 1e-12):
            raise ContractError("posterior rows must lie on the simplex")
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-12:
            raise ContractError("weights must lie on the simplex")
        object.__setattr__(self, "posteriors", post)
        object.__setattr__(self, "weights", w)

    @property
    def m(self):
        return self.posteriors.shape[0]

    @property
    def K(self):
        return self.posteriors.shape[1]


def _ce_table(predictor: np.ndarray) -> np.ndarray:
    """ell(pred(x), k) for every point and class: -log of the floored entry."""
    p = np.clip(np.asarray(predictor, dtype=np.float64), PROB_FLOOR, 1.0)
    return -np.log(p)


def exact_unbiasedness(domain: DiscreteDomain, predictor: np.ndarray):
    """True-label risk versus the complementary rewrite, by full enumeration.

    rewritten = sum_x w(x) sum_k ell(pred,k) - (K-1) sum_x w(x) sum_k Pbar(k|x) ell(pred,k)
    with Pbar = Q @ P.  Returns (true_risk, rewritten_risk, gap).
    """
    predictor = np.asarray(predictor, dtype=np.float64)
    if np.any(predictor < 0) or np.any(np.abs(predictor.sum(axis=1) - 1.0) > 1e-8):
        raise ContractError("predictor rows must lie on the simplex")
    if domain.m * domain.K > ENUMERATION_CELL_CAP:
        raise ContractError("enumeration capped at %d cells; use the Monte-Carlo check"
                            % ENUMERATION_CELL_CAP)
    ce = _ce_table(predictor)
    tm = transition_matrix(domain.K)
    comp_post = domain.posteriors @ tm.Q.T
    true_risk = float(np.sum(domain.weights[:, None] * domain.posteriors * ce))
    all_class = float(np.sum(domain.weights[:, None] * ce))
    comp_risk = float(np.sum(domain.weights[:, None] * comp_post * ce))
    rewritten = all_class - (domain.K - 1.0) * comp_risk
    return true_risk, rewritten, abs(true_risk - rewritten)


def monte_carlo_unbiasedness(domain: DiscreteDomain, predictor: np.ndarray,
                             n_samples: int, seed: int):
    """Sample complementary labels, score the sample as one batch, and report
    the standardized deviation from the enumerated true risk."""
    if n_samples < 1000:
        raise ContractError("monte_carlo_unbiasedness needs n >= 1000")
    rng = np.random.default_rng(seed)
    predictor = np.asarray(predictor, dtype=np.float64)
    K = domain.K
    xs = rng.choice(domain.m, size=n_samples, p=domain.weights)
    # true label per draw, then a uniform complementary label
    u = rng.random(n_samples)
    cum = np.cumsum(domain.posteriors, axis=1)
    ys = (u[:, None] < cum[xs]).argmax(axis=1) + 1
    offs = rng.integers(1, K, size=n_samples)
    ybar = (ys - 1 + offs) % K + 1

    partition = partition_batch(ybar, K)
    breakdown = total_comp_loss(Tensor(predictor[xs]), partition)
    empirical = breakdown.total.item()

    ce = _ce_table(predictor)
    true_risk, _, _ = exact_unbiasedness(domain, predictor)
    # the one-batch total is the mean of psi_i = sum_k ell_i(k) - (K-1) ell_i(ybar_i)
    psi = ce[xs].sum(axis=1) - (K - 1.0) * ce[xs, ybar - 1]
    se = float(psi.std(ddof=1) / np.sqrt(n_samples))
    z = (empirical - true_risk) / se if se > 0 else 0.0
    return empirical, true_risk, float(z)


# ---------------------------------------------------------------------------
# finite-difference audit


def finite_difference(fn, x0: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat array."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    xf = x0.copy().ravel()
    for i in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += step
        xm[i] -= step
        flat[i] = (fn(xp.reshape(x0.shape)) - fn(xm.reshape(x0.shape))) / (2 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / denom)


def _check_graph(build, x0) -> float:
    """Gradient-check one scalar graph ``build(x_tensor) -> scalar tensor``."""

    def value(x):
        return build(Tensor(x)).item()

    tape = Tape()
    xt = Tensor(x0, tape=tape)
    tape.backward(build(xt))
    analytic = xt.grad if xt.grad is not None else np.zeros_like(x0)
    return relative_error(analytic, finite_difference(value, x0))


def gradcheck_suite(seed: int = 0) -> dict:
    """Sweep every differentiable operation and both composite losses.

    Returns {check name: max relative error}; the audit passes when every
    entry is below FD_TOL.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    v = rng.normal(size=(3, 2))
    w = rng.normal(size=(3, 8))

    checks = {
        "add": (x, lambda t: ad.tsum((t + a) * 2.0)),
        "sub": (x, lambda t: ad.tsum(a - t)),
        "mul": (x, lambda t: ad.tsum(t * a)),
        "div": (x + 3.0, lambda t: ad.tsum(a / t)),
        "matmul": (x, lambda t: ad.tsum(t @ Tensor(b))),
        "relu": (x + 0.05, lambda t: ad.tsum(ad.relu(t))),
        "sigmoid": (x, lambda t: ad.tsum(ad.sigmoid(t) * a)),
        "softmax": (x, lambda t: ad.tsum(ad.softmax(t) * a)),
        "log": (np.abs(x) + 0.5, lambda t: ad.tsum(ad.log(t))),
        "pow": (np.abs(x) + 0.5, lambda t: ad.tsum(ad.pow_const(t, 1.7))),
        "mean": (x, lambda t: ad.tmean(t * a)),
        "take_rows": (x, lambda t: ad.tsum(ad.take_rows(t, [0, 2, 0]) * 1.3)),
        "ordered_sum": (x[0], lambda t: ad.ordered_sum(t * a[0], [True, False, True, True])),
        "column": (x, lambda t: ad.tsum(ad.column(t, 1) * 1.5)),
        "outer_flatten": (x[:, :2] + 1.0,
                          lambda t: ad.tsum(ad.outer_flatten(t, Tensor(v)) * w[:, :4])),
        "fanout_two_consumers": (x, lambda t: ad.tsum(t * t) + ad.tsum(ad.relu(t))),
    }

    # scatter map at the default temperature, away from the clamp boundary
    probs = rng.dirichlet(np.ones(4), size=3) * 0.9 + 0.025
    probs /= probs.sum(axis=1, keepdims=True)
    checks["scatter_map_l0.5"] = (probs, lambda t: ad.tsum(scatter_map(t, 0.5) * a))

    # composite: total complementary loss through softmax
    logits = rng.normal(size=(6, 4))
    partition = partition_batch(np.array([1, 2, 3, 4, 1, 2]), 4)
    checks["total_comp_loss"] = (logits,
                                 lambda t: total_comp_loss(ad.softmax(t), partition).total)

    # composite: adversarial loss through sigmoid discriminator outputs
    dlogits = rng.normal(size=(5,))
    w_s = 1.0 + rng.random(3)
    w_t = 1.0 + rng.random(2)
    checks["adversarial_loss"] = (
        dlogits,
        lambda t: adversarial_loss(ad.sigmoid(ad.take_rows(t, [0, 1, 2])), w_s,
                                   ad.sigmoid(ad.take_rows(t, [3, 4])), w_t))

    report = {}
    for name, (x0, build) in checks.items():
        report[name] = _check_graph(build, x0)

    # the reversal layer is linear: its backward must be exact
    tape = Tape()
    xt = Tensor(x, tape=tape)
    out = ad.tsum(ad.grad_reverse(xt, 1.5) * a)
    tape.backward(out)
    report["grad_reverse_exact"] = float(np.abs(xt.grad + 1.5 * a).max())
    return report


def run_suite(name: str, seed: int = 0) -> dict:
    """Run a named verification suite; returns a JSON-ready report."""
    checks = []
    rng = np.random.default_rng(seed)

    def add(check, metric, threshold):
        checks.append({"check": check, "metric": float(metric),
                       "threshold": threshold, "pass": bool(metric < threshold)})

    if name in ("unbiasedness", "all"):
        worst = 0.0
        for K in (2, 3, 5, 10):
            for _ in range(25):
                m = int(rng.integers(2, 30))
                domain = DiscreteDomain(posteriors=rng.dirichlet(np.ones(K), size=m),
                                        weights=rng.dirichlet(np.ones(m)))
                predictor = rng.dirichlet(np.ones(K), size=m)
                _, _, gap = exact_unbiasedness(domain, predictor)
                worst = max(worst, gap)
        add("exact_unbiasedness_gap", worst, 1e-10)
        K = 4
        domain = DiscreteDomain(posteriors=rng.dirichlet(np.ones(K), size=8),
                                weights=rng.dirichlet(np.ones(8)))
        predictor = rng.dirichlet(np.ones(K), size=8)
        _, _, z = monte_carlo_unbiasedness(domain, predictor, 100_000, seed=seed)
        add("monte_carlo_z", abs(z), 4.0)
    if name in ("gradcheck", "all"):
        report = gradcheck_suite(seed=seed)
        add("gradcheck_max_rel_err", max(report.values()), FD_TOL)
    if name in ("tmap", "all"):
        pts = rng.dirichlet(np.ones(5), size=2000)
        mapped = scatter_map(Tensor(pts), 0.5).data
        add("tmap_simplex", np.abs(mapped.sum(axis=1) - 1.0).max(), 1e-12)
        add("tmap_argmax_flips",
            np.mean(mapped.argmax(axis=1) != pts.argmax(axis=1)), 1e-12)
        ident = scatter_map(Tensor(pts), 1.0).data
        add("tmap_identity_at_l1", np.abs(ident - pts).max(), 1e-12)
        sharp = scatter_map(Tensor(np.array([[0.7, 0.3]])), 0.1).data
        add("tmap_onehot_limit", 1.0 - sharp.max(), 1e-3)
    if not checks:
        raise ContractError("unknown suite %r" % name)
    return {"suite": name, "passed": all(c["pass"] for c in checks), "checks": checks}


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2)
