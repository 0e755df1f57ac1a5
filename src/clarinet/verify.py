"""Standalone mathematical oracles: exact unbiasedness of the complementary
risk rewrite by full enumeration, its Monte-Carlo counterpart, and a
finite-difference audit of every differentiable operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .complabel import partition_batch, transition_matrix
from .errors import ContractError
from .losses import (PROB_FLOOR, adversarial_loss, scatter_map, total_comp_loss)
from .models import Network, NetworkSpec, flat_side

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
        # each sum test is written as "not within", so a NaN or infinite
        # entry, whose row sum is NaN or infinite, fails it
        if (post < -1e-12).any() or not (np.abs(post.sum(axis=1) - 1.0) <= 1e-12).all():
            raise ContractError("posteriors must be finite, each row on the simplex")
        if (w < -1e-12).any() or not abs(w.sum() - 1.0) <= 1e-12:
            raise ContractError("weights must be finite and lie on the simplex")
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


def _simplex_rows(predictor, domain: DiscreteDomain) -> np.ndarray:
    """The predictor as float64, one row per domain point and one column per
    class, each row finite and on the simplex."""
    predictor = np.asarray(predictor, dtype=np.float64)
    if predictor.shape != domain.posteriors.shape:
        raise ContractError("predictor has shape %s, the domain's is %s"
                            % (predictor.shape, domain.posteriors.shape))
    if (predictor < 0).any() or not (np.abs(predictor.sum(axis=1) - 1.0) <= 1e-8).all():
        raise ContractError("predictor must be finite, each row on the simplex")
    return predictor


def exact_unbiasedness(domain: DiscreteDomain, predictor: np.ndarray):
    """True-label risk versus the complementary rewrite, by full enumeration.

    rewritten = sum_x w(x) sum_k ell(pred,k) - (K-1) sum_x w(x) sum_k Pbar(k|x) ell(pred,k)
    with Pbar = Q @ P.  Returns (true_risk, rewritten_risk, gap).
    """
    predictor = _simplex_rows(predictor, domain)
    if domain.m * domain.K > ENUMERATION_CELL_CAP:
        raise ContractError("enumeration capped at %d cells; use the Monte-Carlo check"
                            % ENUMERATION_CELL_CAP)
    ce = _ce_table(predictor)
    w = domain.weights[:, None]
    comp_post = domain.posteriors @ transition_matrix(domain.K).Q.T
    true_risk = float((w * domain.posteriors * ce).sum())
    all_class = float((w * ce).sum())
    comp_risk = float((w * comp_post * ce).sum())
    rewritten = all_class - (domain.K - 1.0) * comp_risk
    return true_risk, rewritten, abs(true_risk - rewritten)


def _complementary_labels(posteriors, xs, u, offsets) -> np.ndarray:
    """The 1-based complementary labels ``(y0 + offsets) % K + 1``, formed in
    ``offsets``, of draws at the points ``xs`` with uniforms ``u``.

    y0, the 0-based true label, is the first k with ``u < cum[x, k]``,
    ``cum`` the running sum of x's posterior row, and 0 when there is none.
    With ``top`` the running maximum of each ``cum`` row, which never
    decreases, that k is the number of k with ``u >= top[x, k]``; a count
    of K means there is none, and the wrap ``% K`` maps it to 0.  This holds
    also where an entry down to -1e-12 makes a ``cum`` row dip.
    """
    K = posteriors.shape[1]
    top = np.maximum.accumulate(np.cumsum(posteriors, axis=1), axis=1)
    # the count is at most K: it is kept in the narrowest type that holds
    # K, one byte below 256 classes, and added into the wide offsets once
    count = np.zeros(len(xs), dtype=np.min_scalar_type(K))
    for column in top.T:
        count += u >= np.take(column, xs)
    offsets += count
    offsets %= K
    offsets += 1
    return offsets


def _draw_points(rng, weights, n) -> np.ndarray:
    """``n`` points drawn with probabilities ``weights``, as
    ``rng.choice(len(weights), n, p=weights)`` draws them: one uniform u per
    point from ``rng.random(n)``, read against ``cdf``, the running sum of
    the weights over its last entry.  Each point is the number of ``cdf``
    entries <= u, which is ``cdf.searchsorted(u, side="right")``, formed by
    one compare-and-add pass per entry.  The last entry is 1 and u < 1, so
    it never counts and gets no pass.  The uniforms are freed on return.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    xs = np.zeros(n, dtype=np.int64)
    for edge in cdf[:-1]:
        xs += u >= edge
    return xs


def monte_carlo_unbiasedness(domain: DiscreteDomain, predictor: np.ndarray,
                             n_samples: int, seed: int):
    """Sample complementary labels, score the sample as one batch, and report
    the standardized deviation from the enumerated true risk.

    ``default_rng(seed)`` draws, in this order: one uniform per point, read
    against the weights' cumulative distribution (``_draw_points``, the
    inverse-CDF draw of ``choice(m, n_samples, p=weights)``), one uniform
    per point for its true label, and the offsets ``integers(1, K,
    n_samples)`` that take each true label to a uniform complementary one
    (``_complementary_labels``).  Weights must not be negative: the domain
    admits entries down to -1e-12, which would make the distribution dip.

    The points are kept in the narrowest unsigned type that holds m, one
    byte below 256 points, and the standard error's per-sample terms
    are formed in one float64 vector; at 100k samples over 8 points and 4
    classes one call peaks at 4.7 MiB by tracemalloc, while the batch is
    scored.
    """
    if n_samples < 1000:
        raise ContractError("monte_carlo_unbiasedness needs n >= 1000")
    predictor = _simplex_rows(predictor, domain)
    if (domain.weights < 0).any():
        raise ContractError("monte_carlo_unbiasedness needs non-negative weights, got %s"
                            % (domain.weights,))
    rng = np.random.default_rng(seed)
    K = domain.K
    xs = _draw_points(rng, domain.weights, n_samples).astype(np.min_scalar_type(domain.m))
    # the arguments are drawn left to right; the uniforms are freed before
    # the batch is scored
    ybar = _complementary_labels(domain.posteriors, xs, rng.random(n_samples),
                                 rng.integers(1, K, size=n_samples))

    # the node, and with it the batch, is dropped once its total is read
    empirical = float(total_comp_loss(Tensor(np.take(predictor, xs, axis=0)),
                                      partition_batch(ybar, K)).data.sum())

    ce = _ce_table(predictor)
    true_risk = float((domain.weights[:, None] * domain.posteriors * ce).sum())
    # the one-batch total is the mean of psi_i = sum_k ell_i(k) - (K-1) ell_i(ybar_i);
    # the row sums are taken once per point and gathered, and ell_i(ybar_i)
    # is gathered from the flat table at xs_i * K + ybar_i - 1, widened to
    # int64 first (xs * K would keep xs's narrow type and wrap)
    flat = xs.astype(np.int64)
    flat *= K
    flat += ybar
    flat -= 1
    psi = np.take(ce.ravel(), flat)
    psi *= K - 1.0
    np.subtract(np.take(ce.sum(axis=1), xs), psi, out=psi)
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


def _check_network(net, x0, weight) -> float:
    """Gradient-check one ``Network.forward`` pass: the input and every
    parameter, perturbed one entry at a time through one flat vector."""
    side = flat_side(net.parameters)
    n = x0.size
    z0 = np.concatenate([x0.ravel(), side.value])

    def value(z):
        side.value[...] = z[n:]
        return float((net.forward(None, Tensor(z[:n].reshape(x0.shape))).data * weight).sum())

    numeric = finite_difference(value, z0)
    side.value[...] = z0[n:]
    tape = Tape()
    xt = Tensor(x0, tape=tape)
    tape.backward(ad.tsum(net.forward(tape, xt) * weight))
    return relative_error(np.concatenate([xt.grad.ravel(), side.grad]), numeric)


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
        "div": (np.abs(x) + 0.5, lambda t: ad.tsum(a / t)),
        "matmul": (x, lambda t: ad.tsum(t @ Tensor(b))),
        # the affine form, one operand differentiated at a time: the other
        # two are constants and get no gradient computed
        "matmul_bias_x": (x, lambda t: ad.tsum(ad.matmul(t, b, v[0]) * v)),
        "matmul_bias_w": (b, lambda t: ad.tsum(ad.matmul(x, t, v[0]) * v)),
        "matmul_bias_b": (v[0], lambda t: ad.tsum(ad.matmul(x, b, t) * v)),
        "relu": (x + 0.05, lambda t: ad.tsum(ad.relu(t))),
        "sigmoid": (x, lambda t: ad.tsum(ad.sigmoid(t) * a)),
        "softmax": (x, lambda t: ad.tsum(ad.softmax(t) * a)),
        "log": (np.abs(x) + 0.5, lambda t: ad.tsum(ad.log(t))),
        "pow": (np.abs(x) + 0.5, lambda t: ad.tsum(ad.pow_const(t, 1.7))),
        "mean": (x, lambda t: ad.tmean(t * a)),
        "take_rows": (x, lambda t: ad.tsum(ad.take_rows(t, [0, 2, 0]) * 1.3)),
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
    labels = partition_batch(np.array([1, 2, 3, 4, 1, 2]), 4)
    checks["total_comp_loss"] = (logits,
                                 lambda t: ad.tsum(total_comp_loss(ad.softmax(t), labels)))

    # composite: adversarial loss through sigmoid discriminator outputs
    dlogits = rng.normal(size=(5,))
    w_s = 1.0 + rng.random(3)
    w_t = 1.0 + rng.random(2)
    checks["adversarial_loss"] = (dlogits,
                                  lambda t: adversarial_loss(ad.sigmoid(t), w_s, w_t))

    report = {}
    for name, (x0, build) in checks.items():
        report[name] = _check_graph(build, x0)

    # one fused network pass per head, biases away from zero; 25 entries
    for head, widths, rows in (("softmax", (2, 2, 2), 2), ("sigmoid", (1, 2, 1), 2)):
        net = Network(NetworkSpec(widths, head=head), rng)
        for b in net.biases:
            b.value[...] = rng.normal(size=b.shape)
        x0 = rng.normal(size=(rows, widths[0]))
        report["network_" + head] = _check_network(net, x0,
                                                   rng.normal(size=(rows, widths[-1])))

    # the reversal layer is linear: its backward must be exact
    tape = Tape()
    xt = Tensor(x, tape=tape)
    out = ad.tsum(ad.grad_reverse(xt, 1.5) * a)
    tape.backward(out)
    report["grad_reverse_exact"] = float(np.abs(xt.grad + 1.5 * a).max())
    return report


def run_suite(name: str, seed: int = 0) -> dict:
    """Run a named verification suite; returns a JSON-ready report."""
    ad.hold_heap()
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
