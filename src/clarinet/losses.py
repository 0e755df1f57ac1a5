"""Loss computations: the complementary-label risk estimator with its per-class
breakdown, the prediction-scattering map, entropy weights, and the weighted
conditional adversarial loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .complabel import BatchPartition
from .errors import ContractError, ShapeMismatch

PROB_FLOOR = 1e-12


def cross_entropy_to_class(probs: Tensor, k: int) -> Tensor:
    """Per-sample -log p_k against a fixed 1-based class; probabilities floored."""
    p = ad.clamp(ad.column(probs, k - 1), lo=PROB_FLOOR, hi=1.0)
    return -ad.log(p)


@dataclass
class CompLossBreakdown:
    """Per-class complementary losses, their sum, and the negative part.

    ``per_class`` is the K-vector of per-class losses, one tape node;
    ``total`` and ``l_neg`` are tape scalars drawn from it, so either branch
    of the descent/ascent correction can backpropagate.  ``l_neg`` is the
    sum of the negative entries, a zero constant when none is negative.  Both
    sums run over the classes left to right (see ``total_comp_loss``).
    """

    per_class: Tensor          # K-vector on the tape
    total: Tensor
    l_neg: Tensor

    @property
    def per_class_values(self) -> np.ndarray:
        return self.per_class.data.copy()

    @property
    def min_class(self) -> float:
        return float(self.per_class.data.min())

    @property
    def l_neg_value(self) -> float:
        return self.l_neg.item()


def comp_loss_vector(probs: Tensor, partition: BatchPartition) -> Tensor:
    """All K per-class complementary losses as one tape node.

    Entry k is
    -(K-1) * (pi_k / n_k) * sum_{i in subset k} CE(p_i, k)
      + sum_j (pi_j / n_j) * sum_{l in subset j} CE(p_l, k),
    with CE(p, k) = -log clip(p_k, PROB_FLOOR, 1).  Classes with empty
    subsets contribute nothing to either term, so the pi/n ratio is never
    formed for them.  The backward pass gives d/dprobs directly.
    """
    if not isinstance(probs, Tensor):
        probs = Tensor(probs)
    K = partition.K
    P = probs.data
    n = partition.batch_size
    if P.shape != (n, K):
        raise ShapeMismatch("comp_loss_vector expects %d x %d probabilities, got %s"
                            % (n, K, P.shape))
    counts = partition.counts
    present = np.flatnonzero(counts)
    ends = np.cumsum(counts)
    starts = ends - counts
    w_self = np.zeros(K)         # (K-1) pi_k / n_k
    w_sub = np.zeros(K)          # pi_j / n_j
    w_self[present] = (K - 1.0) * partition.priors[present] / counts[present]
    w_sub[present] = partition.priors[present] / counts[present]

    clipped = np.clip(P, PROB_FLOOR, 1.0)
    ce = np.log(clipped) * -1.0
    # row k holds CE(., k) with the batch grouped by subset, so each
    # (subset j, class k) sum is one contiguous slice
    order = np.concatenate(partition.subsets)
    grouped = np.ascontiguousarray(ce[order].T)
    values = np.empty(K)
    for k in range(K):
        row = grouped[k]
        sums = {j: row[starts[j]:ends[j]].sum() for j in present}
        terms = [-w_self[k] * sums[k]] if counts[k] else []
        terms += [w_sub[j] * sums[j] for j in present]
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        values[k] = acc

    def backward(g):
        label = np.empty(n, dtype=np.intp)      # 0-based complementary class per row
        label[order] = np.repeat(np.arange(K), counts)
        inside = (P >= PROB_FLOOR) & (P <= 1.0)
        coef = g * w_sub[label][:, None]
        coef[np.arange(n), label] -= g[label] * w_self[label]
        probs._accumulate(coef * -1.0 / clipped * inside)

    return ad._make("comp_loss_vector", values, probs.tape, backward)


def class_comp_loss(probs: Tensor, partition: BatchPartition, k: int) -> Tensor:
    """Complementary-label loss for one class k in {1..K}: entry k of
    ``comp_loss_vector`` as a tape scalar."""
    K = partition.K
    if not 1 <= k <= K:
        raise ContractError("class index %r out of range {1..%d}" % (k, K))
    return ad.ordered_sum(comp_loss_vector(probs, partition), np.arange(K) == k - 1)


def total_comp_loss(probs: Tensor, partition: BatchPartition) -> CompLossBreakdown:
    """Sum of the per-class complementary losses, with the negative-part diagnostic.

    Summation-order contract: the values and gradients are bit-identical to
    the per-class graph this replaced (K+1 ``take_rows``/``tsum`` terms per
    class joined by ``add`` nodes), which fixes the arithmetic:

    - weights ``(K-1.0)*pi_k/n_k`` and ``pi_j/n_j``;
    - one contiguous 1-D ``.sum()`` per (subset j, class k); a 2-D
      ``sum(axis=1)`` or ``np.add.reduceat`` rounds differently;
    - per class, the -(K-1) term first, then j ascending over non-empty
      subsets, accumulated left to right from the first term;
    - ``total`` and ``l_neg`` summed over classes left to right, not with
      ``np.sum``;
    - backward, with g_k the upstream gradient of class k and ybar_i the
      complementary class of row i:
      ``dP[i,k] = ((g_k*w_sub[ybar_i] - [ybar_i == k]*g_k*w_self[k]) * -1.0
      / clip(P[i,k])) * inside[i,k]``, the old graph's chain rule step by
      step.

    The shorter identity pi_j/n_j = 1/n, which turns each class into one
    masked column sum, is deliberately not used: it moves the last bits, and
    so every training record and oracle output.
    """
    per_class = comp_loss_vector(probs, partition)
    negative = per_class.data < 0.0
    l_neg = ad.ordered_sum(per_class, negative) if negative.any() else Tensor(0.0)
    return CompLossBreakdown(per_class=per_class, total=ad.ordered_sum(per_class),
                             l_neg=l_neg)


def scatter_map(probs: Tensor, l: float) -> Tensor:
    """Temperature-sharpen predictions: row k gets p_k^(1/l) / sum_j p_j^(1/l).

    l=1 is the identity; as l -> 0 rows approach one-hot.

    One tape node.  Order contract: the values and gradients are bit-identical
    to the ``clamp``/``pow_const``/``tsum``/``div`` chain this replaced, with
    c = 1.0 / l:

    - forward: ``p = clip(x, PROB_FLOOR, 1.0)``, ``powered = np.power(p, c)``,
      ``denom = powered.sum(axis=-1, keepdims=True)``, ``powered / denom``;
    - backward, with g the upstream gradient, each step as that chain's rule
      did it, including the ``+ 0.0`` of each first gradient:
      ``g_den = _unbroadcast(-g * powered / (denom * denom), denom.shape) + 0.0``,
      ``g_pow = (g / denom + 0.0) + g_den`` (broadcast over the row),
      ``g_p = g_pow * c * np.power(p, c - 1.0)``, and ``dx = g_p * inside``
      with ``inside`` the clip's mask ``x >= PROB_FLOOR`` and ``x <= 1.0``.
    """
    if l <= 0:
        raise ContractError("scatter_map requires l > 0, got %r" % l)
    probs, tape = ad._coerce(probs)
    x = probs.data
    c = 1.0 / l
    p = np.clip(x, PROB_FLOOR, 1.0)
    powered = np.power(p, c)
    denom = powered.sum(axis=-1, keepdims=True)

    def backward(g):
        g_den = ad._unbroadcast(-g * powered / (denom * denom), denom.shape) + 0.0
        g_pow = g / denom
        g_pow += 0.0
        g_pow += g_den
        g_p = g_pow * c * np.power(p, c - 1.0)
        inside = (x >= PROB_FLOOR) & (x <= 1.0)
        probs._accumulate(g_p * inside, owned=True)

    return ad._make("scatter_map", powered / denom, tape, backward)


def entropy_weight(mapped: np.ndarray):
    """Shannon entropy of each mapped row and the transfer weight 1 + exp(-H).

    Operates on plain arrays: weights are constants with respect to the tape.
    """
    p = np.asarray(mapped, dtype=np.float64)
    plogp = np.where(p > 0.0, p * np.log(np.clip(p, PROB_FLOOR, 1.0)), 0.0)
    H = -plogp.sum(axis=-1)
    return H, 1.0 + np.exp(-H)


def adversarial_loss(d_source: Tensor, w_source: np.ndarray,
                     d_target: Tensor, w_target: np.ndarray) -> Tensor:
    """Weighted conditional adversarial loss.

    sum_s w_s log D(g_s) / sum_s w_s + sum_t w_t log(1 - D(g_t)) / sum_t w_t,
    with the weights treated as constants and D's outputs clipped to
    [1e-12, 1 - 1e-12].  Always <= 0.

    One tape node.  Order contract: the value and gradients are bit-identical
    to the ``clamp``/``log``/``mul``/``tsum``/``div``/``sub``/``add`` chain
    this replaced.  When D's output is 2-D the weights are reshaped to
    ``(n, 1)`` before anything else, their sums included.

    - forward: ``(w_s * log(clip(d_s))).sum() / float(w_s.sum())`` plus
      ``(w_t * log(1.0 - clip(d_t))).sum() / float(w_t.sum())``;
    - backward, with g the upstream gradient and each ``+ 0.0`` the first
      gradient of a node of that chain: per domain, ``g_term = g + 0.0``,
      ``g_sum = g_term / sum(w) + 0.0``, ``g_mul = full(shape, g_sum) + 0.0``,
      ``g_log = g_mul * w + 0.0``; then for the source
      ``g_d = g_log / clip(d_s) + 0.0``, and for the target
      ``g_u = g_log / (1.0 - clip(d_t)) + 0.0`` and ``g_d = -g_u + 0.0``;
      ``dd = g_d * inside`` with ``inside`` the clip's mask.  The target's
      gradient is passed on before the source's.
    """
    w_source = np.asarray(w_source, dtype=np.float64)
    w_target = np.asarray(w_target, dtype=np.float64)
    d_source, d_target, tape = ad._coerce(d_source, d_target)
    if d_source.size == 0 or d_target.size == 0:
        raise ContractError("adversarial_loss needs at least one sample per domain")
    eps = 1e-12
    lo, hi = eps, 1.0 - eps
    ds = np.clip(d_source.data, lo, hi)
    dt = np.clip(d_target.data, lo, hi)
    if ds.ndim == 2:
        w_source = w_source.reshape(-1, 1)
    if dt.ndim == 2:
        w_target = w_target.reshape(-1, 1)
    ws_sum = float(w_source.sum())
    wt_sum = float(w_target.sum())
    log_s = np.log(ds)
    u = 1.0 - dt
    log_t = np.log(u)
    mul_s = w_source * log_s
    mul_t = w_target * log_t
    value = mul_s.sum() / ws_sum + mul_t.sum() / wt_sum

    def log_term_grad(g, w, w_sum, mul, log_input):
        """The gradient reaching a domain's log input, term -> sum -> mul -> log."""
        g_sum = (g + 0.0) / w_sum + 0.0
        g_mul = np.full(mul.shape, g_sum) + 0.0
        g_log = ad._unbroadcast(g_mul * w, log_input.shape) + 0.0
        return g_log / log_input + 0.0

    def backward(g):
        if d_target.tape is not None:
            g_d = -log_term_grad(g, w_target, wt_sum, mul_t, u) + 0.0
            inside = (d_target.data >= lo) & (d_target.data <= hi)
            d_target._accumulate(g_d * inside, owned=True)
        if d_source.tape is not None:
            g_d = log_term_grad(g, w_source, ws_sum, mul_s, ds)
            inside = (d_source.data >= lo) & (d_source.data <= hi)
            d_source._accumulate(g_d * inside, owned=True)

    return ad._make("adversarial_loss", value, tape, backward)
