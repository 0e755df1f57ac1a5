"""The fused network node and the flat optimiser buffers, bit for bit.

``reference_forward`` below is the per-op chain that ``Network.forward`` used
to record: each affine layer a ``matmul`` node over taped copies of its
weight and bias, ``relu`` between the layers and the head's node last.  Each
copy's gradient is added into its parameter when the tape reaches it, in
reverse creation order, as the removed leaf path did.  ``ad.mlp`` must give
the same output, input gradient and parameter gradients, signed zeros
included.  The last tests pin the flat buffers of ``build_triplet``: every
per-layer ``Parameter`` is a view into its side's buffer, and one
``sgd_step`` on a side equals the per-parameter steps.
"""

import numpy as np
import pytest

import clarinet.autodiff as ad
from clarinet.autodiff import Tape, Tensor
from clarinet.errors import ContractError, NonFiniteValue
from clarinet.models import (Network, NetworkSpec, build_triplet, default_specs,
                             load_checkpoint, save_checkpoint)
from clarinet.train import sgd_step


def reference_forward(net, tape, x, leaves):
    """The old chain; appends each (parameter, taped copy) pair to ``leaves``."""
    def leaf(p):
        t = Tensor(p.value, tape=tape)
        leaves.append((p, t))
        return t

    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = ad.matmul(h, leaf(w), leaf(b))
        if i < last:
            h = ad.relu(h)
    if net.spec.head == "softmax":
        h = ad.softmax(h)
    elif net.spec.head == "sigmoid":
        h = ad.sigmoid(h)
    return h


def run(net, x0, upstreams, taped, fused):
    """Outputs, input gradient and parameter gradients of ``len(upstreams)``
    passes of ``net`` over ``x0`` on one tape, each pass's output sent its
    upstream gradient by one backward from the sum."""
    for p in net.parameters:
        p.grad[...] = 0.0
    tape = Tape()
    x = Tensor(x0, tape=tape if taped else None)
    leaves = []
    outs = [net.forward(tape, x) if fused else reference_forward(net, tape, x, leaves)
            for _ in upstreams]
    loss = sum((ad.tsum(out * u) for out, u in zip(outs[1:], upstreams[1:])),
               ad.tsum(outs[0] * upstreams[0]))
    tape.backward(loss)
    for p, t in reversed(leaves):
        if t.grad is not None:
            p.grad += t.grad
    return [o.data for o in outs], x.grad, [p.grad.copy() for p in net.parameters]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def compare(net, x0, upstreams, taped):
    outs, x_grad, grads = run(net, x0, upstreams, taped, fused=True)
    ref_outs, ref_x_grad, ref_grads = run(net, x0, upstreams, taped, fused=False)
    for a, b in zip(outs, ref_outs):
        assert_same_bits(a, b)
    if taped:
        assert_same_bits(x_grad, ref_x_grad)
    else:
        assert x_grad is None and ref_x_grad is None
    for a, b in zip(grads, ref_grads):
        assert_same_bits(a, b)


def network(widths, head, seed):
    """A network with nonzero biases, and an input whose first rows are +0.0
    and -0.0, so some relu inputs are exact zeros of either sign."""
    rng = np.random.default_rng(seed)
    net = Network(NetworkSpec(widths, head=head), rng)
    for b in net.biases[1:]:
        b.value[...] = rng.normal(scale=0.1, size=b.shape)
    x0 = rng.normal(size=(48, widths[0]))
    x0[0] = 0.0
    x0[1] = -0.0
    return net, x0, rng


def upstream_like(rng, shape):
    """A random upstream gradient with some exact +0.0 and -0.0 entries."""
    g = rng.normal(size=shape)
    flat = g.reshape(-1)
    flat[::5] = -0.0
    flat[1::7] = 0.0
    return g


# G, F and D of the synth-k4 benchmark's triplet, and a one-layer D
SHAPES = {"G": ((2, 32, 16), "none"), "F": ((16, 4), "softmax"),
          "D": ((64, 64, 1), "sigmoid"), "D_one_layer": ((8, 1), "sigmoid")}


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_one_pass_matches_the_chain(name, taped):
    widths, head = SHAPES[name]
    net, x0, rng = network(widths, head, seed=len(name))
    compare(net, x0, [upstream_like(rng, (len(x0), widths[-1]))], taped)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_two_passes_on_one_tape_accumulate_in_tape_order(name):
    widths, head = SHAPES[name]
    net, x0, rng = network(widths, head, seed=3 + len(name))
    compare(net, x0, [upstream_like(rng, (len(x0), widths[-1])) for _ in range(2)],
            taped=True)


def test_one_node_per_pass():
    net, x0, _ = network(*SHAPES["D"], seed=1)
    tape = Tape()
    x = Tensor(x0, tape=tape)
    net.forward(tape, x)
    assert len(tape._nodes) == 2            # the input and one node
    out = net.forward(None, Tensor(x0))
    assert out.tape is None and out._backward is None


@pytest.mark.parametrize("head", ["none", "softmax", "sigmoid"])
def test_non_finite_layer_output_names_the_op(head):
    net = Network(NetworkSpec((2, 3, 1), head=head), np.random.default_rng(0))
    net.weights[0].value[...] = 1e308
    x = Tensor(np.ones((2, 2)))
    for forward in (lambda: net.forward(None, x), lambda: reference_forward(net, None, x, [])):
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteValue, match="^matmul produced a non-finite value$"):
            forward()


def test_input_from_another_tape_is_rejected():
    net = Network(NetworkSpec((2, 1)), np.random.default_rng(0))
    x = Tensor(np.ones((1, 2)), tape=Tape())
    with pytest.raises(ContractError, match="another tape"):
        net.forward(Tape(), x)
    with pytest.raises(ContractError, match="another tape"):
        net.forward(None, x)


# ---------------------------------------------------------------------------
# flat optimiser buffers

def triplet(seed=5):
    return build_triplet(*default_specs(2, 4, d_g=4, hidden=8), seed=seed)


def test_parameters_are_views_into_their_side():
    t = triplet()
    for side, params in ((t.classifier_side, t.classifier_params),
                         (t.discriminator_side, t.discriminator_params)):
        assert side.value.size == sum(p.value.size for p in params)
        flat = np.concatenate([p.value.ravel() for p in params])
        assert_same_bits(side.value, flat)
        for p in params:
            for name in ("value", "grad", "momentum"):
                assert np.shares_memory(getattr(p, name), getattr(side, name))
    for a in ("value", "grad", "momentum"):
        for b in ("value", "grad", "momentum"):
            assert not np.shares_memory(getattr(t.classifier_side, a),
                                        getattr(t.discriminator_side, b))
    # the draws are those of per-parameter arrays: one seed, one set of values
    fresh = Network(t.G.spec, np.random.default_rng(5))
    for p, q in zip(t.G.parameters, fresh.parameters):
        assert_same_bits(p.value, q.value)


def test_load_checkpoint_writes_through_the_views(tmp_path):
    saved = triplet(seed=2)
    rng = np.random.default_rng(9)
    for p in saved.classifier_params + saved.discriminator_params:
        p.value[...] = rng.normal(size=p.shape)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, saved)
    loaded = load_checkpoint(path)
    assert_same_bits(loaded.classifier_side.value, saved.classifier_side.value)
    assert_same_bits(loaded.discriminator_side.value, saved.discriminator_side.value)
    for p in loaded.classifier_params + loaded.discriminator_params:
        assert np.shares_memory(p.value, loaded.classifier_side.value) or \
            np.shares_memory(p.value, loaded.discriminator_side.value)


@pytest.mark.parametrize("ascend", [False, True])
def test_flat_sgd_step_equals_per_parameter_steps(ascend):
    rng = np.random.default_rng(13)
    flat, loose = triplet(), triplet()
    for _ in range(3):
        g = rng.normal(size=flat.classifier_side.shape)
        g[::7] = -0.0
        flat.classifier_side.grad[...] = g
        loose.classifier_side.grad[...] = g
        sgd_step([flat.classifier_side], 0.02, 0.9, 5e-5, ascend=ascend)
        sgd_step(loose.classifier_params, 0.02, 0.9, 5e-5, ascend=ascend)
        for name in ("value", "momentum"):
            assert_same_bits(getattr(flat.classifier_side, name),
                             getattr(loose.classifier_side, name))
