"""The fused adversarial head must equal its references bit for bit.

``reference_scatter_map`` below is the ``clamp``/``pow_const``/``tsum``/``div``
graph that ``losses.scatter_map`` used to build.  ``reference_adversarial_loss``
states in plain NumPy the arithmetic of ``losses.adversarial_loss`` on one
stacked batch, and ``reference_adversarial_step`` that of a whole
``train._adversarial_step``: G, F, the scatter map, the outer product, the
reversal layer and D run once on the source rows followed by the target
rows.  Training records depend on every bit of them, so values and gradients
are compared byte for byte (signed zeros included).  The last tests pin the
``owned`` first-gradient rule of ``autodiff``.
"""

import numpy as np
import pytest

import clarinet.autodiff as ad
from clarinet.autodiff import Tape, Tensor
from clarinet.errors import NonFiniteValue, ShapeMismatch
from clarinet.losses import PROB_FLOOR, adversarial_loss, entropy_weight, scatter_map
from clarinet.models import build_triplet, default_specs
from clarinet.train import TrainConfig, _adversarial_step


def reference_scatter_map(probs, l):
    p = ad.clamp(probs, lo=PROB_FLOOR, hi=1.0)
    powered = ad.pow_const(p, 1.0 / l)
    denom = ad.tsum(powered, axis=-1, keepdims=True)
    return powered / denom


def reference_adversarial_loss(d, w_source, w_target, upstream):
    """Value of the weighted adversarial loss of the stacked outputs ``d``
    (source rows first) and the gradient that ``upstream`` sends to ``d``."""
    eps = 1e-12
    n_s = len(w_source)
    x = d.reshape(-1)
    p = np.clip(x, eps, 1.0 - eps)
    source = np.arange(len(x)) < n_s
    u = np.where(source, p, 1.0 - p)
    scale = np.concatenate([w_source / w_source.sum(), w_target / w_target.sum()])
    sign = np.where(source, 1.0, -1.0)
    inside = (x >= eps) & (x <= 1.0 - eps)
    grad = upstream * scale / u * sign * inside + 0.0
    return (scale * np.log(u)).sum(), grad.reshape(d.shape)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def backward_from(tape, out, upstream):
    """``Tape.backward`` started from any output with a chosen upstream
    gradient, so a -0.0 can reach the node under test."""
    out.grad = np.asarray(upstream, dtype=np.float64)
    for t in reversed(tape._nodes):
        if t.grad is not None and t._backward is not None:
            t._backward(t.grad)


def run(fn, inputs, upstream, *args):
    """Value of ``fn(*tensors, *args)`` and the gradients of every input."""
    tape = Tape()
    xs = [Tensor(x, tape=tape) for x in inputs]
    out = fn(*xs, *args)
    backward_from(tape, out, upstream)
    return out.data, [x.grad for x in xs]


def compare(fused, reference, inputs, upstream, *args):
    value, grads = run(fused, inputs, upstream, *args)
    ref_value, ref_grads = run(reference, inputs, upstream, *args)
    assert_same_bits(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert_same_bits(g, ref)


def probabilities(rng, n, K):
    """Softmax rows with entries under PROB_FLOOR, plus exact one-hot rows
    (1.0 and 0.0) and an entry above 1 that the clip cuts."""
    logits = rng.normal(scale=12.0, size=(n, K))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[0] = 0.0
    p[0, 0] = 1.0
    p[1, -1] = 1.0 + 1e-9
    return p


def upstream_like(rng, shape):
    """A random upstream gradient with some exact +0.0 and -0.0 entries."""
    g = rng.normal(size=shape)
    flat = g.reshape(-1)
    flat[::5] = -0.0
    flat[1::7] = 0.0
    return g


class TestScatterMap:
    @pytest.mark.parametrize("K", [2, 4, 10])
    @pytest.mark.parametrize("l", [0.1, 0.5, 1.0])
    def test_matches_the_chain(self, K, l):
        rng = np.random.default_rng([K, int(l * 10)])
        p = probabilities(rng, 24, K)
        assert (p < PROB_FLOOR).any() and (p == 1.0).any()
        compare(scatter_map, reference_scatter_map, [p], upstream_like(rng, p.shape), l)

    def test_all_negative_zero_upstream(self):
        rng = np.random.default_rng(3)
        p = probabilities(rng, 8, 4)
        compare(scatter_map, reference_scatter_map, [p], np.full(p.shape, -0.0), 0.5)

    def test_one_dimensional_row(self):
        rng = np.random.default_rng(4)
        p = probabilities(rng, 3, 5)[2]
        compare(scatter_map, reference_scatter_map, [p], upstream_like(rng, p.shape), 0.5)

    def test_one_node_named_in_non_finite_errors(self):
        tape = Tape()
        scatter_map(Tensor(np.full((2, 3), 1.0 / 3.0), tape=tape), 0.5)
        assert len(tape._nodes) == 2            # the input leaf and one node
        with pytest.raises(NonFiniteValue, match="scatter_map"):
            scatter_map(Tensor([[np.nan, 0.5]]), 0.5)


EDGES = np.array([0.0, 1e-12, 1.0 - 1e-12, 1.0])


def discriminator_outputs(rng, n, two_d):
    d = 1.0 / (1.0 + np.exp(-rng.normal(scale=3.0, size=n)))
    d[:len(EDGES)] = EDGES
    return d.reshape(-1, 1) if two_d else d


class TestAdversarialLoss:
    @staticmethod
    def compare(d, w_s, w_t, upstream):
        tape = Tape()
        x = Tensor(d, tape=tape)
        out = adversarial_loss(x, w_s, w_t)
        backward_from(tape, out, upstream)
        value, grad = reference_adversarial_loss(d, w_s, w_t, upstream)
        assert_same_bits(out.data, np.float64(value))
        assert_same_bits(x.grad, grad)

    @pytest.mark.parametrize("two_d", [False, True])
    @pytest.mark.parametrize("upstream", [1.0, -0.0, 0.0, -2.5])
    def test_matches_the_chain(self, two_d, upstream):
        rng = np.random.default_rng([int(two_d), 7])
        d = np.concatenate([discriminator_outputs(rng, 12, two_d),
                            discriminator_outputs(rng, 9, two_d)])
        self.compare(d, 1.0 + rng.random(12), 1.0 + rng.random(9), np.float64(upstream))

    def test_entropy_weights_from_scattered_predictions(self):
        rng = np.random.default_rng(11)
        _, w = entropy_weight(scatter_map(Tensor(probabilities(rng, 32, 4)), 0.5).data)
        d = discriminator_outputs(rng, 32, True)
        self.compare(d, w[:16], w[16:], np.float64(1.0))

    def test_row_count_must_match_the_weights(self):
        with pytest.raises(ShapeMismatch, match="3 outputs for 2 \\+ 2 weights"):
            adversarial_loss(Tensor([0.2, 0.7, 0.4]), np.ones(2), np.ones(2))

    def test_one_node_named_in_non_finite_errors(self):
        tape = Tape()
        adversarial_loss(Tensor([0.2, 0.7, 0.4], tape=tape), np.ones(2), np.ones(1))
        assert len(tape._nodes) == 2            # the input leaf and one node
        with pytest.raises(NonFiniteValue, match="adversarial_loss"):
            adversarial_loss(Tensor([np.nan, 0.5]), np.ones(1), np.ones(1))


def mlp_forward(net, x):
    """Output of an affine/relu stack as ``Network.forward`` computes it, with
    each affine layer's input and each relu's mask, before the head."""
    inputs, masks = [], []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(x)
        x = x @ w.value
        x += b.value
        if i < last:
            masks.append(x > 0.0)
            x = x * masks[-1]
    return x, inputs, masks


def mlp_backward(net, inputs, masks, g, grads):
    """Walk ``g`` back through the stack, storing each parameter's gradient
    in ``grads``; returns the gradient that reaches the stack's input."""
    for i in reversed(range(len(net.weights))):
        w, b = net.weights[i], net.biases[i]
        if i < len(masks):
            g = g * masks[i] + 0.0
        grads[id(w)] = inputs[i].T @ g + 0.0
        grads[id(b)] = g.sum(axis=0) + 0.0
        g = (g * w.value.T if w.shape[1] == 1 else g @ w.value.T) + 0.0
    return g


def reference_adversarial_step(triplet, src, tgt, lam, l):
    """Loss and parameter gradients of one conditional adversarial step."""
    grads = {}
    n_s = len(src)
    g, g_in, g_masks = mlp_forward(triplet.G, np.concatenate([src, tgt]))
    z, f_in, f_masks = mlp_forward(triplet.F, g)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    c = 1.0 / l
    clipped = np.clip(probs, PROB_FLOOR, 1.0)
    powered = np.power(clipped, c)
    denom = powered.sum(axis=-1, keepdims=True)
    mapped = powered / denom
    n, d_g = g.shape
    K = mapped.shape[1]
    feat = (g[:, :, None] * mapped[:, None, :]).reshape(n, d_g * K)
    o, d_in, d_masks = mlp_forward(triplet.D, feat)
    e = np.exp(-np.abs(o))
    out = np.where(o >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    plogp = np.where(mapped > 0.0, mapped * np.log(np.clip(mapped, PROB_FLOOR, 1.0)), 0.0)
    w = 1.0 + np.exp(plogp.sum(axis=-1))
    loss, g_out = reference_adversarial_loss(out, w[:n_s], w[n_s:], np.float64(1.0))

    g_feat = mlp_backward(triplet.D, d_in, d_masks, g_out * out * (1.0 - out) + 0.0, grads)
    g3 = (-lam * g_feat + 0.0).reshape(n, d_g, K)
    g_g = np.einsum("ndk,nk->nd", g3, mapped) + 0.0
    g_mapped = np.einsum("ndk,nd->nk", g3, g) + 0.0
    g_den = (-g_mapped * powered / (denom * denom)).sum(axis=-1, keepdims=True) + 0.0
    g_pow = (g_mapped / denom + 0.0) + g_den
    inside = (probs >= PROB_FLOOR) & (probs <= 1.0)
    g_probs = g_pow * c * np.power(clipped, c - 1.0) * inside + 0.0
    dot = (g_probs * probs).sum(axis=-1, keepdims=True)
    g_z = probs * (g_probs - dot) + 0.0
    # G's output feeds the outer product and F; the tape reaches the outer
    # product first
    g_g = g_g + mlp_backward(triplet.F, f_in, f_masks, g_z, grads)
    mlp_backward(triplet.G, g_in, g_masks, g_g, grads)
    return loss, grads


def test_adversarial_step_matches_the_chains():
    """Three whole adversarial steps give the reference's loss and parameter
    gradients, each step from the parameters the last one left."""
    rng = np.random.default_rng(17)
    src = rng.normal(size=(32, 2))
    tgt = rng.normal(size=(24, 2))
    config = TrainConfig(K=4, l=0.5, hidden=8, d_g=4)
    triplet = build_triplet(*default_specs(2, 4, d_g=4, hidden=8), seed=5)
    for _ in range(3):
        loss, grads = reference_adversarial_step(triplet, src, tgt, 0.7, config.l)
        assert _adversarial_step(triplet, src, tgt, 0.7, config) == loss
        params = triplet.classifier_params + triplet.discriminator_params
        assert len(grads) == len(params)
        for p in params:
            assert_same_bits(p.grad, grads[id(p)])


# ---------------------------------------------------------------------------
# owned first gradients

def test_owned_gradient_is_taken_in_place_as_a_positive_zero():
    tape = Tape()
    x, y, z = (Tensor([1.0, 2.0], tape=tape) for _ in range(3))
    g = np.array([-0.0, 3.0])
    x._accumulate(g, owned=True)
    assert x.grad is g
    assert_same_bits(x.grad, np.array([0.0, 3.0]))
    # NumPy arithmetic on 0-d arrays gives a scalar, which has no buffer
    z0 = Tensor(1.0, tape=tape)
    z0._accumulate(np.float64(-0.0), owned=True)
    assert_same_bits(z0.grad, np.float64(0.0))
    # not owned: copied, and the caller's array is left alone
    h = np.array([-0.0, 3.0])
    y._accumulate(h)
    assert y.grad is not h and np.signbit(h[0])
    assert_same_bits(y.grad, np.array([0.0, 3.0]))
    # a later contribution is added out of place
    first = z.grad = np.array([1.0, 1.0])
    z._accumulate(np.array([2.0, 2.0]), owned=True)
    assert_same_bits(first, np.array([1.0, 1.0]))
    assert_same_bits(z.grad, np.array([3.0, 3.0]))


# op on x, x, and an upstream gradient that makes the op's fresh product -0.0
# somewhere, so the owned + 0.0 has work to do
OWNED_SITES = {
    "relu": (ad.relu, [[-1.5, 2.0]], [[-1.0, -0.0]]),
    "sigmoid": (ad.sigmoid, [[-1.5, 2.0]], [[-0.0, -0.0]]),
    "softmax": (ad.softmax, [[-1000.0, 0.0]], [[-1.0, 0.0]]),
    "grad_reverse": (lambda x: ad.grad_reverse(x, 0.5), [[-1.5, 2.0]], [[0.0, 0.0]]),
    "matmul_one_column": (lambda x: ad.matmul(x, Tensor([[-1.0], [-2.0]])),
                          [[-1.5, 2.0]], [[0.0]]),
    "adversarial_loss_target": (
        lambda x: adversarial_loss(x, np.ones(1), np.ones(2)),
        [0.5, 0.0, 0.5], 1.0),
}


@pytest.mark.parametrize("site", sorted(OWNED_SITES))
def test_owned_first_gradient_is_a_positive_zero(site, monkeypatch):
    raw = []
    accumulate = Tensor._accumulate

    def spy(self, g, **kwargs):
        raw.append(np.array(g, copy=True))
        accumulate(self, g, **kwargs)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    op, x0, upstream = OWNED_SITES[site]
    tape = Tape()
    x = Tensor(x0, tape=tape)
    backward_from(tape, op(x), upstream)
    assert any((np.signbit(g) & (g == 0.0)).any() for g in raw)
    assert not (np.signbit(x.grad) & (x.grad == 0.0)).any()


def test_one_column_matmul_gradient_equals_the_blas_product():
    rng = np.random.default_rng(19)
    a0, b0 = rng.normal(size=(128, 64)), rng.normal(size=(64, 1))
    upstream = rng.normal(size=(128, 1))
    upstream[::3] = 0.0
    tape = Tape()
    a = Tensor(a0, tape=tape)
    tape.backward(ad.tsum(ad.matmul(a, Tensor(b0)) * upstream))
    assert_same_bits(a.grad, upstream @ b0.T + 0.0)


def test_fan_out_parent_gradient_is_never_mutated(monkeypatch):
    """h feeds two matmuls: each contribution is a fresh owned product, the
    second is added out of place, and no upstream array is written to."""
    handed = []
    accumulate = Tensor._accumulate

    def spy(self, g, **kwargs):
        accumulate(self, g, **kwargs)
        handed.append((self, g, np.array(g, copy=True)))

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    rng = np.random.default_rng(23)
    w1, w2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
    u1, u2 = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    tape = Tape()
    x = Tensor(rng.normal(size=(5, 3)), tape=tape)
    h = ad.relu(x)
    a = ad.matmul(h, Tensor(w1))
    b = ad.matmul(h, Tensor(w2))
    tape.backward(ad.tsum(a * u1) + ad.tsum(b * u2))

    to_h = [(g, seen) for t, g, seen in handed if t is h]
    assert len(to_h) == 2
    for g, seen in to_h:                      # neither changed after the call
        assert_same_bits(g, seen)
    expected = (u2 @ w2.T + 0.0) + u1 @ w1.T  # b was recorded last, so it comes first
    assert_same_bits(h.grad, expected)
    assert h.grad is not to_h[0][0] and h.grad is not to_h[1][0]
    assert_same_bits(a.grad, u1 + 0.0)
    assert_same_bits(b.grad, u2 + 0.0)
    assert_same_bits(x.grad, expected * (x.data > 0.0) + 0.0)
