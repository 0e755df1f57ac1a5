"""The complementary risk must equal its plain-NumPy statement bit for bit.

``reference`` below states in plain NumPy the arithmetic of
``losses.weighted_ce`` and of the ``tsum`` nodes the classifier step builds
on it: with ``coef = (1 - (K-1) onehot(ybar)) / n`` for the complementary
objective, or ``onehot(y) / n`` for cross-entropy, the per-class losses are
``(coef * CE).sum(axis=0)``, and an upstream gradient ``g`` of them reaches
the probabilities as ``g * coef / -clip(P) * inside``.  ``weighted_ce``
scores the batch ``BLOCK_ROWS`` rows at a time in one (1 + ``BLOCK_ROWS``)
x K buffer: it forms a block's products in place in the buffer's rows
1..., with ``coef`` gathered from its table, and sums the buffer by
``einsum("nk->k")`` into row 0, which carries the column sums so far.
Without a tape a block is clipped in the buffer; with one the full clip is
kept for the backward.  The batches here straddle those blocks.  Training
records and oracle outputs depend on every bit of it, so values and
gradients are compared with ``np.array_equal``, the sign of zero included,
and the tapeless vector as bytes.  The last tests bound the memory the
tapeless path allocates.
"""

import tracemalloc

import numpy as np
import pytest

import clarinet.autodiff as ad
from clarinet.autodiff import Tape, Tensor
from clarinet.complabel import partition_batch
from clarinet.losses import BLOCK_ROWS, PROB_FLOOR, coefficient_table, total_comp_loss


def reference(P, labels, K, objective="complementary"):
    """Per-class losses, ``total``, ``l_neg`` and, per backward target, the
    gradient reaching ``P``; ``grad_l_neg`` only when a class is negative.
    The ``"ce"`` objective's coefficients are ``onehot(y) / n``."""
    n = len(labels)
    onehot = labels[:, None] == np.arange(1, K + 1)
    coef = (1.0 - (K - 1.0) * onehot) / n if objective == "complementary" else onehot / n
    clipped = np.clip(P, PROB_FLOOR, 1.0)
    inside = (P >= PROB_FLOOR) & (P <= 1.0)
    per_class = (coef * -np.log(clipped)).sum(axis=0)
    negative = per_class < 0.0
    out = {"per_class": per_class, "total": per_class.sum(),
           "l_neg": (per_class * negative).sum() if negative.any() else 0.0}
    # the upstream gradient of the per-class vector: a tsum's ones, masked by
    # the l_neg product with the negative entries
    upstreams = {"total": np.ones(K)}
    if negative.any():
        upstreams["l_neg"] = np.ones(K) * negative + 0.0
    for target, g in upstreams.items():
        out["grad_" + target] = g * coef / -clipped * inside + 0.0
    return out


def run_fused(P, labels, K, objective="complementary"):
    """The same quantities from ``total_comp_loss`` on a tape, reduced and
    backpropagated as ``train._classifier_step`` does it."""
    labels = partition_batch(labels, K)
    out = {}
    for target in ("total", "l_neg"):
        tape = Tape()
        probs = Tensor(P, tape=tape)
        per_class = total_comp_loss(probs, labels, objective)
        negative = per_class.data < 0.0
        out.update(per_class=per_class.data.copy(), total=per_class.data.sum(),
                   l_neg=(per_class.data * negative).sum() if negative.any() else 0.0)
        if target == "total":
            tape.backward(ad.tsum(per_class))
            out["grad_total"] = probs.grad
        elif negative.any():
            tape.backward(ad.tsum(per_class * negative))
            out["grad_l_neg"] = probs.grad
    return out


def assert_identical(ref, fused):
    assert set(ref) == set(fused)
    for key in ref:
        assert np.array_equal(ref[key], fused[key]), key
        # the sign of zero is part of the bit pattern
        assert np.array_equal(np.signbit(ref[key]), np.signbit(fused[key])), key


def softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def random_batch(rng, n, K, scale):
    return softmax(rng.normal(scale=scale, size=(n, K))), rng.integers(1, K + 1, size=n)


@pytest.mark.parametrize("K", [2, 4, 5, 10])
@pytest.mark.parametrize("n", [128, 80])
@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_random_batches_match_bit_for_bit(K, n, scale):
    # scale 40 pushes some probabilities under PROB_FLOOR, where the clamp
    # cuts the gradient; with K=5 the weight K-2 is no power of two, so
    # (K-2)/n and (K-2)*(1/n) can round apart
    rng = np.random.default_rng([K, n, int(scale)])
    for _ in range(3):
        P, labels = random_batch(rng, n, K, scale)
        if scale > 1.0:
            assert (P < PROB_FLOOR).any()
        assert_identical(reference(P, labels, K), run_fused(P, labels, K))


@pytest.mark.parametrize("objective", ["complementary", "ce"])
@pytest.mark.parametrize("n", [128, 100_000])
def test_monte_carlo_sized_batch(n, objective):
    # 100k rows at K=4 is the Monte-Carlo oracle's one batch
    rng = np.random.default_rng(n)
    P, labels = random_batch(rng, n, 4, 40.0)
    assert_identical(reference(P, labels, 4, objective), run_fused(P, labels, 4, objective))


@pytest.mark.parametrize("K", [4, 10])
def test_batch_with_an_empty_class(K):
    rng = np.random.default_rng(K)
    P, labels = random_batch(rng, 80, K, 2.0)
    labels[labels == 2] = 1
    assert_identical(reference(P, labels, K), run_fused(P, labels, K))


@pytest.mark.parametrize("K", [4, 10])
def test_batch_with_some_negative_classes(K):
    # rows whose complementary label is in the first half put almost no mass
    # on that label, which drives those classes negative (for K=2 a class
    # loss is a sum over the other subset alone and cannot go negative)
    rng = np.random.default_rng(100 + K)
    logits = rng.normal(size=(128, K))
    labels = rng.integers(1, K + 1, size=128)
    low = labels <= K // 2
    logits[np.flatnonzero(low), labels[low] - 1] = -12.0
    P = softmax(logits)
    fused = run_fused(P, labels, K)
    negatives = int((fused["per_class"] < 0.0).sum())
    assert 0 < negatives < K
    assert "grad_l_neg" in fused
    assert_identical(reference(P, labels, K), fused)


@pytest.mark.parametrize("objective", ["complementary", "ce"])
@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1,
                               100_000])
@pytest.mark.parametrize("K", [2, 4, 10])
def test_batches_across_coefficient_blocks(K, n, objective):
    # the products are formed one block of gathered coefficients at a time;
    # a column of exact 1.0 makes each of its CE entries -0.0.  Without a
    # tape each block is clipped in the block buffer, so that path is
    # compared too, as bytes
    rng = np.random.default_rng([K, n])
    P, labels = random_batch(rng, n, K, 40.0)
    P[:, K // 2] = 1.0
    ref = reference(P, labels, K, objective)
    assert not ref["per_class"][K // 2]
    assert_identical(ref, run_fused(P, labels, K, objective))
    tapeless = total_comp_loss(Tensor(P), labels, objective).data
    assert tapeless.tobytes() == ref["per_class"].tobytes()


@pytest.mark.parametrize("objective", ["complementary", "ce"])
@pytest.mark.parametrize("n", [1, 128, 100_000])
@pytest.mark.parametrize("K", [2, 4, 10])
def test_coefficient_table_equals_the_onehot_form(K, n, objective):
    # the onehot/np.where form the table gather replaced, compared bit for bit
    labels = np.random.default_rng([K, n]).integers(1, K + 1, size=n)
    onehot = labels[:, None] == np.arange(1, K + 1)
    if objective == "complementary":
        expected = np.where(onehot, (1.0 - (K - 1.0)) / n, 1.0 / n)
    else:
        expected = np.where(onehot, 1.0 / n, 0.0 / n)
    coef = np.take(coefficient_table(n, K, objective), labels, axis=0)
    assert coef.shape == expected.shape
    assert np.array_equal(coef.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n", [100_000, 300_000])
def test_tapeless_allocation_does_not_grow_with_the_batch(n):
    # a second tapeless call allocates, beyond its input, one
    # (1 + BLOCK_ROWS) x K buffer and one block of coefficients, whatever n
    rng = np.random.default_rng(n)
    P, labels = random_batch(rng, n, 4, 1.0)
    probs = Tensor(P)
    total_comp_loss(probs, labels)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total_comp_loss(probs, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1 << 20
