"""The fused complementary risk must reproduce the per-class graph bit for bit.

``reference_total_comp_loss`` below is the per-class graph that
``losses.total_comp_loss`` used to build: K+1 ``take_rows``/``tsum`` terms per
class, joined by ``add`` nodes.  Training records and oracle outputs depend on
every bit of it, so values and gradients are compared with ``np.array_equal``.
"""

import numpy as np
import pytest

import clarinet.autodiff as ad
from clarinet.autodiff import Tape, Tensor
from clarinet.complabel import partition_batch
from clarinet.losses import class_comp_loss, cross_entropy_to_class, total_comp_loss


def reference_class_comp_loss(probs, partition, k):
    K = partition.K
    ce_k = cross_entropy_to_class(probs, k)
    terms = []
    idx_k = partition.subsets[k - 1]
    n_k = partition.counts[k - 1]
    if n_k > 0:
        w = (K - 1.0) * partition.priors[k - 1] / n_k
        terms.append(-w * ad.tsum(ad.take_rows(ce_k, idx_k)))
    for j in range(K):
        n_j = partition.counts[j]
        if n_j == 0:
            continue
        w = partition.priors[j] / n_j
        terms.append(w * ad.tsum(ad.take_rows(ce_k, partition.subsets[j])))
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def reference_total_comp_loss(probs, partition):
    """(per-class tape scalars, total, l_neg) of the per-class graph."""
    per_class = [reference_class_comp_loss(probs, partition, k)
                 for k in range(1, partition.K + 1)]
    total = per_class[0]
    for t in per_class[1:]:
        total = total + t
    negatives = [t for t in per_class if t.item() < 0.0]
    if negatives:
        l_neg = negatives[0]
        for t in negatives[1:]:
            l_neg = l_neg + t
    else:
        l_neg = Tensor(0.0)
    return per_class, total, l_neg


def run_both(logits, labels, K):
    """Values and softmax-input gradients of the reference and the fused loss.

    Returns one dict per implementation with keys ``per_class``, ``total``,
    ``l_neg`` and, per backward target, ``grad_total`` / ``grad_l_neg``.
    """
    partition = partition_batch(labels, K)
    results = []
    for fused in (False, True):
        out = {}
        for target in ("total", "l_neg"):
            tape = Tape()
            z = Tensor(logits, tape=tape)
            probs = ad.softmax(z)
            if fused:
                b = total_comp_loss(probs, partition)
                per_class, total, l_neg = b.per_class_values, b.total, b.l_neg
            else:
                pcs, total, l_neg = reference_total_comp_loss(probs, partition)
                per_class = np.array([t.item() for t in pcs])
            out["per_class"] = per_class
            out["total"] = total.item()
            out["l_neg"] = l_neg.item()
            node = total if target == "total" else l_neg
            if node.tape is tape:
                tape.backward(node)
                out["grad_" + target] = z.grad
        results.append(out)
    return results


def assert_identical(ref, fused):
    assert set(ref) == set(fused)
    for key in ref:
        assert np.array_equal(ref[key], fused[key]), key
        # the sign of zero is part of the bit pattern
        assert np.array_equal(np.signbit(ref[key]), np.signbit(fused[key])), key


def random_batch(rng, n, K, scale):
    return rng.normal(scale=scale, size=(n, K)), rng.integers(1, K + 1, size=n)


@pytest.mark.parametrize("K", [2, 4, 10])
@pytest.mark.parametrize("n", [128, 80])
@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_random_batches_match_bit_for_bit(K, n, scale):
    # scale 40 pushes some probabilities under PROB_FLOOR, where the clamp
    # cuts the gradient
    rng = np.random.default_rng([K, n, int(scale)])
    for _ in range(3):
        logits, labels = random_batch(rng, n, K, scale)
        ref, fused = run_both(logits, labels, K)
        assert_identical(ref, fused)


@pytest.mark.parametrize("K", [4, 10])
def test_batch_with_an_empty_class(K):
    rng = np.random.default_rng(K)
    logits, labels = random_batch(rng, 80, K, 2.0)
    labels[labels == 2] = 1
    ref, fused = run_both(logits, labels, K)
    assert_identical(ref, fused)


@pytest.mark.parametrize("K", [4, 10])
def test_batch_with_some_negative_classes(K):
    # rows whose complementary label is in the first half put almost no mass
    # on that label, which drives those classes negative (for K=2 a class
    # loss is a sum over the other subset alone and cannot go negative)
    rng = np.random.default_rng(100 + K)
    logits, labels = random_batch(rng, 128, K, 1.0)
    low = labels <= K // 2
    logits[np.flatnonzero(low), labels[low] - 1] = -12.0
    ref, fused = run_both(logits, labels, K)
    negatives = int((fused["per_class"] < 0.0).sum())
    assert 0 < negatives < K
    assert "grad_l_neg" in fused
    assert_identical(ref, fused)


def test_class_comp_loss_is_the_vector_entry():
    rng = np.random.default_rng(7)
    logits, labels = random_batch(rng, 128, 4, 1.0)
    probs = ad.softmax(Tensor(logits))
    partition = partition_batch(labels, 4)
    for k in range(1, 5):
        ref = reference_class_comp_loss(probs, partition, k).item()
        assert class_comp_loss(probs, partition, k).item() == ref
