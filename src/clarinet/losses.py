"""Loss computations: both classifier objectives as one per-class weighted
cross-entropy, the prediction-scattering map, entropy weights, and the
weighted conditional adversarial loss.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeMismatch

PROB_FLOOR = 1e-12
# rows of a batch that weighted_ce scores at a time, in one (1 + BLOCK_ROWS) x K
# buffer whose first row carries the column sums
BLOCK_ROWS = 8192


def cross_entropy_to_class(probs: Tensor, k: int) -> Tensor:
    """Per-sample -log p_k against a fixed 1-based class; probabilities floored."""
    p = ad.clamp(ad.column(probs, k - 1), lo=PROB_FLOOR, hi=1.0)
    return -ad.log(p)


def weighted_ce(probs: Tensor, labels: np.ndarray, table: np.ndarray) -> Tensor:
    """Per-class weighted cross-entropy as one tape node.

    With CE(p, k) = -log clip(p_k, PROB_FLOOR, 1) and ``coef`` the n x K
    rows of the (K+1) x K ``table`` gathered at the 1-based ``labels``,
    entry k is the weighted column sum ``(coef * CE).sum(axis=0)[k]``.
    The caller checks the labels (``complabel.partition_batch``, once per
    training run or Monte-Carlo oracle call); unchecked, 0 reads the unused
    row 0, -1 reads label K's row, and K+1 raises a bare ``IndexError``.

    Order contract: the forward scores the batch one block of at most
    ``BLOCK_ROWS`` rows at a time, in one (1 + ``BLOCK_ROWS``) x K buffer.
    For each block it forms CE in the buffer's rows 1... (the clip, then
    ``np.log`` and ``np.negative`` in place), multiplies them in place by
    the block's gathered ``coef`` rows, and sums the buffer by
    ``einsum("nk->k")`` into row 0, which holds the column sums so far.
    That sum adds each column's entries in row order into an entry that
    starts at +0.0, as the axis-0 sum adds them (the axis-0 sum of a narrow
    array goes one short row at a time, and is the slower); carrying the
    running sums as the first row continues it left to right, so the bits
    equal those of one sum over all n rows, and no sum is ever -0.0, since
    each starts at +0.0.  Without a tape a block is clipped in the buffer,
    so no n x K array is allocated; with one, the full clip is kept for
    the backward and each block's CE is taken from it.  The backward pass
    gives d/dprobs directly, ``g * coef / -clip(P) * inside`` with
    ``inside`` the clip's mask; it reuses the gathered rows of a one-block
    batch and gathers them again otherwise.
    """
    probs, tape = ad._coerce(probs)
    P = probs.data
    n, K = len(labels), table.shape[1]
    if P.shape != (n, K):
        raise ShapeMismatch("weighted_ce expects %d x %d probabilities, got %s"
                            % (n, K, P.shape))
    clipped = np.clip(P, PROB_FLOOR, 1.0) if tape is not None else None
    buf = np.zeros((1 + min(n, BLOCK_ROWS), K))
    sums = buf[0]
    for start in range(0, n, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        coef = np.take(table, labels[block], axis=0)
        rows = buf[1:1 + len(coef)]
        clip = (np.clip(P[block], PROB_FLOOR, 1.0, out=rows) if clipped is None
                else clipped[block])
        np.log(clip, out=rows)
        np.negative(rows, out=rows)
        rows *= coef
        buf[0] = sums = np.einsum("nk->k", buf[:1 + len(coef)])

    def backward(g):
        full = coef if n <= BLOCK_ROWS else np.take(table, labels, axis=0)
        inside = (P >= PROB_FLOOR) & (P <= 1.0)
        probs._accumulate(g * full / -clipped * inside, owned=True)

    return ad._make("weighted_ce", sums, tape, backward)


def coefficient_table(n: int, K: int, objective: str = "complementary") -> np.ndarray:
    """The (K+1) x K ``weighted_ce`` table of a classifier objective on a
    batch of n: row y holds 1-based label y's coefficients, row 0 unused, so
    the labels index it directly.  Row y is ``(1 - (K-1) onehot(y)) / n``
    for ``"complementary"`` and ``onehot(y) / n`` for ``"ce"``, each entry
    the formula's scalar for its onehot bit, so the bits equal those of the
    array expression.
    """
    onehot = np.eye(K + 1, K, -1, dtype=bool)
    if objective == "complementary":
        return np.where(onehot, (1.0 - (K - 1.0)) / n, 1.0 / n)
    if objective == "ce":
        return np.where(onehot, 1.0 / n, 0.0 / n)
    raise ContractError("unknown classifier objective %r" % objective)


def total_comp_loss(probs: Tensor, labels: np.ndarray,
                    objective: str = "complementary") -> Tensor:
    """The K-vector of per-class losses of a classifier objective, one
    ``weighted_ce`` node; K is ``probs``' column count and ``labels`` the
    batch's 1-based labels, which the caller checks (see ``weighted_ce``).

    ``objective`` picks the coefficients (``coefficient_table``):
    ``"complementary"`` is the unbiased risk of Ishida et al. (2019), in
    which a sample with complementary label y costs
    sum_k CE(p, k) - (K-1) CE(p, y); ``"ce"`` is ordinary cross-entropy on
    y, whose coefficients are never negative and so neither is any class.
    """
    table = coefficient_table(len(labels), probs.shape[1], objective)
    return weighted_ce(probs, labels, table)


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


def adversarial_loss(d: Tensor, w_source: np.ndarray, w_target: np.ndarray) -> Tensor:
    """Weighted conditional adversarial loss on one stacked batch.

    ``d`` holds D's outputs, one per row: the ``len(w_source)`` source rows
    first, then the ``len(w_target)`` target rows.  The loss is
    sum_s w_s log D(g_s) / sum_s w_s + sum_t w_t log(1 - D(g_t)) / sum_t w_t,
    with the weights treated as constants and D's outputs clipped to
    [1e-12, 1 - 1e-12].  Always <= 0.

    One tape node.  With ``p`` the clipped outputs, ``u`` is ``p`` on the
    source rows and ``1 - p`` on the target rows, and ``scale`` is each
    row's weight over its domain's weight sum; the value is
    ``(scale * log(u)).sum()`` and the gradient ``g * scale / u``, negated on
    the target rows and masked by the clip.
    """
    w_source = np.asarray(w_source, dtype=np.float64)
    w_target = np.asarray(w_target, dtype=np.float64)
    d, tape = ad._coerce(d)
    n_s = len(w_source)
    if n_s == 0 or len(w_target) == 0:
        raise ContractError("adversarial_loss needs at least one sample per domain")
    if d.size != n_s + len(w_target):
        raise ShapeMismatch("adversarial_loss got %d outputs for %d + %d weights"
                            % (d.size, n_s, len(w_target)))
    eps = 1e-12
    x = d.data.reshape(-1)
    p = np.clip(x, eps, 1.0 - eps)
    u = np.concatenate([p[:n_s], 1.0 - p[n_s:]])
    scale = np.concatenate([w_source / w_source.sum(), w_target / w_target.sum()])

    def backward(g):
        dp = g * scale / u
        dp[n_s:] *= -1.0
        dp *= (x >= eps) & (x <= 1.0 - eps)
        d._accumulate(dp.reshape(d.shape), owned=True)

    return ad._make("adversarial_loss", (scale * np.log(u)).sum(), tape, backward)
