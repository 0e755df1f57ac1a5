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
    """
    if l <= 0:
        raise ContractError("scatter_map requires l > 0, got %r" % l)
    p = ad.clamp(probs, lo=PROB_FLOOR, hi=1.0)
    powered = ad.pow_const(p, 1.0 / l)
    denom = ad.tsum(powered, axis=-1, keepdims=True)
    return powered / denom


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
    with the weights treated as constants.  Always <= 0.
    """
    w_source = np.asarray(w_source, dtype=np.float64)
    w_target = np.asarray(w_target, dtype=np.float64)
    if d_source.size == 0 or d_target.size == 0:
        raise ContractError("adversarial_loss needs at least one sample per domain")
    eps = 1e-12
    ds = ad.clamp(d_source, lo=eps, hi=1.0 - eps)
    dt = ad.clamp(d_target, lo=eps, hi=1.0 - eps)
    if ds.data.ndim == 2:
        w_source = w_source.reshape(-1, 1)
    if dt.data.ndim == 2:
        w_target = w_target.reshape(-1, 1)
    s_term = ad.tsum(Tensor(w_source) * ad.log(ds)) / float(w_source.sum())
    t_term = ad.tsum(Tensor(w_target) * ad.log(1.0 - dt)) / float(w_target.sum())
    return s_term + t_term
