import numpy as np
import pytest

import clarinet.autodiff as ad
from clarinet.autodiff import Parameter, Tape, Tensor
from clarinet.errors import ContractError, NonFiniteValue, ShapeMismatch
from clarinet.verify import finite_difference, relative_error


def scalar_grad(build, x0):
    tape = Tape()
    x = Tensor(x0, tape=tape)
    tape.backward(build(x))
    return x.grad


class TestForward:
    def test_identity_linear_layer(self):
        x = Tensor([[1.0, 2.0]])
        out = x @ Tensor(np.eye(2)) + Tensor(np.zeros(2))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_relu_definition(self):
        assert np.array_equal(ad.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_forward_determinism(self):
        w = np.random.default_rng(3).normal(size=(4, 3))
        x = np.random.default_rng(4).normal(size=(5, 4))
        a = (Tensor(x) @ Tensor(w)).data
        b = (Tensor(x) @ Tensor(w)).data
        assert np.array_equal(a, b)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_nonfinite_is_an_error(self):
        with pytest.raises(NonFiniteValue, match="log"):
            ad.log(Tensor([0.0]))

    def test_softmax_rows_on_simplex(self):
        x = np.random.default_rng(0).normal(scale=30.0, size=(50, 7))
        p = ad.softmax(Tensor(x)).data
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


class TestFiniteCheck:
    """Every node checks its result: a 0-d result as one float, an array
    through a reduction over all its entries."""

    @pytest.mark.parametrize("op, name", [(ad.tsum, "sum"), (ad.tmean, "mean")])
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_scalar_result(self, op, name):
        with pytest.raises(NonFiniteValue, match="^%s produced a non-finite value$" % name):
            op(Tensor([1e308, 1e308]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_array_result(self):
        # one entry of the array overflows, the others stay finite
        with pytest.raises(NonFiniteValue, match="^mul produced a non-finite value$"):
            ad.mul(Tensor([[1.0, 1e308], [2.0, 3.0]]), 10.0)

    @pytest.mark.parametrize("data", [np.nan, [[1.0, np.nan], [0.5, 2.0]]])
    @pytest.mark.parametrize("op, name", [
        (lambda x: ad.add(x, 1.0), "add"),
        (lambda x: ad.mul(x, 2.0), "mul"),
        (ad.relu, "relu"),
        (ad.tsum, "sum"),
        (ad.tmean, "mean"),
    ])
    def test_nan_input_names_the_op(self, data, op, name):
        with pytest.raises(NonFiniteValue, match="^%s produced a non-finite value$" % name):
            op(Tensor(data))

    @pytest.mark.parametrize("data", [2.5, [[1.0, -0.0], [1e308, -1e308]]])
    def test_finite_results_pass_unchanged(self, data):
        assert np.array_equal(ad.mul(Tensor(data), 1.0).data, data)
        assert ad.tsum(Tensor(data)).item() == np.sum(data)


class TestBackward:
    def test_square_derivative(self):
        g = scalar_grad(lambda x: x * x, np.array(3.0))
        assert g == pytest.approx(6.0, abs=1e-12)

    def test_cross_entropy_after_softmax(self):
        # d(-log softmax(z)_k)/dz = p - onehot(k)
        rng = np.random.default_rng(1)
        z0 = rng.normal(size=(1, 5))
        k = 2

        def build(z):
            p = ad.clamp(ad.softmax(z), lo=1e-12, hi=1.0)
            return -ad.log(ad.column(p, k))

        tape = Tape()
        z = Tensor(z0, tape=tape)
        tape.backward(ad.tsum(build(z)))
        p = np.exp(z0 - z0.max()) / np.exp(z0 - z0.max()).sum()
        expected = p.copy()
        expected[0, k] -= 1.0
        assert relative_error(z.grad, expected) < 1e-10
        numeric = finite_difference(
            lambda x: float(-np.log(np.exp(x - x.max()) / np.exp(x - x.max()).sum())[0, k]),
            z0)
        assert relative_error(z.grad, numeric) < 1e-4

    def test_two_consumers_sum_contributions(self):
        x0 = np.array([1.5, -0.4, 2.0])

        def build(x):
            return ad.tsum(x * x) + ad.tsum(ad.relu(x))

        analytic = scalar_grad(build, x0)
        numeric = finite_difference(
            lambda x: float((x * x).sum() + np.maximum(x, 0.0).sum()), x0)
        assert relative_error(analytic, numeric) < 1e-4

    def test_unvisited_parameter_gets_zero(self):
        # two one-layer networks on one tape; only the first reaches the output
        used = [Parameter([[2.0]]), Parameter([0.5])]
        unused = [Parameter([[5.0]]), Parameter([0.5])]
        for p in used + unused:
            p.grad[...] = 7.0
            p.zero_grad()
        tape = Tape()
        x = Tensor([[1.0]])
        out = ad.tsum(ad.mlp(tape, x, used[:1], used[1:]) * 3.0)
        ad.mlp(tape, x, unused[:1], unused[1:])
        tape.backward(out)
        assert np.array_equal(used[0].grad, [[3.0]]) and np.array_equal(used[1].grad, [3.0])
        assert np.array_equal(unused[0].grad, [[0.0]]) and np.array_equal(unused[1].grad, [0.0])

    def test_backward_requires_scalar(self):
        tape = Tape()
        x = Tensor([1.0, 2.0], tape=tape)
        with pytest.raises(ContractError, match="scalar"):
            tape.backward(x)

    def test_tape_is_single_use(self):
        tape = Tape()
        x = Tensor(2.0, tape=tape)
        tape.backward(x * x)
        with pytest.raises(ContractError, match="fresh tape"):
            tape.backward(x)

    def test_mixed_tapes_rejected(self):
        a = Tensor(1.0, tape=Tape())
        b = Tensor(2.0, tape=Tape())
        with pytest.raises(ContractError, match="different tapes"):
            a + b


class TestGradientRules:
    def test_constant_operands_get_no_gradient_computed(self, monkeypatch):
        received = []
        accumulate = Tensor._accumulate

        def spy(self, g, **kwargs):
            received.append(self)
            accumulate(self, g, **kwargs)

        monkeypatch.setattr(Tensor, "_accumulate", spy)
        rng = np.random.default_rng(0)
        tape = Tape()
        x = Tensor(rng.normal(size=(3, 2)), tape=tape)
        w = Tensor(rng.normal(size=(2, 2)), tape=tape)
        c = Tensor(rng.normal(size=(3, 2)) + 3.0)
        cw = Tensor(rng.normal(size=(2, 2)))
        cb = Tensor(rng.normal(size=2))
        terms = [x + c, c + x, x - c, c - x, x * c, c * x, x / c, c / x,
                 ad.matmul(x, cw, cb), ad.matmul(c, w), ad.matmul(c, w, cb),
                 ad.outer_flatten(x, c), ad.outer_flatten(c, x)]
        out = ad.tsum(terms[0])
        for t in terms[1:]:
            out = out + ad.tsum(t)
        tape.backward(out)
        assert all(t.tape is not None for t in received)
        assert c.grad is None and cw.grad is None and cb.grad is None
        assert x.grad is not None and w.grad is not None

    def test_self_add_doubles_and_leaves_the_parent_gradient(self):
        tape = Tape()
        x = Tensor([1.0, -2.0, 0.5], tape=tape)
        upstream = np.array([0.25, -3.0, 7.0])
        y = x + x
        tape.backward(ad.tsum(y * upstream))
        assert np.array_equal(x.grad, 2.0 * upstream)
        assert np.array_equal(y.grad, upstream)

    def test_fan_out_doubles_and_leaves_both_parent_gradients(self):
        tape = Tape()
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], tape=tape)
        upstream = np.array([[0.5, -1.5], [2.0, 0.125]])
        y1 = x + 1.0
        y2 = x + np.ones(2)
        tape.backward(ad.tsum(y1 * upstream) + ad.tsum(y2 * upstream))
        assert np.array_equal(x.grad, 2.0 * upstream)
        assert np.array_equal(y1.grad, upstream)
        assert np.array_equal(y2.grad, upstream)

    def test_first_gradient_is_a_positive_zero(self):
        tape = Tape()
        x = Tensor([1.0, 2.0], tape=tape)
        tape.backward(ad.tsum(x * -0.0))
        assert np.array_equal(x.grad, [0.0, 0.0])
        assert not np.signbit(x.grad).any()

    def test_bias_matmul_equals_matmul_then_add_bit_for_bit(self):
        rng = np.random.default_rng(2)
        x0, w0, b0 = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        upstream = rng.normal(size=(5, 4))
        results = []
        for fused in (True, False):
            tape = Tape()
            x, w, b = (Tensor(v, tape=tape) for v in (x0, w0, b0))
            out = ad.matmul(x, w, b) if fused else x @ w + b
            tape.backward(ad.tsum(out * upstream))
            results.append((out.data, x.grad, w.grad, b.grad))
        for fused, plain in zip(*results):
            assert np.array_equal(fused, plain)

    def test_bias_that_does_not_broadcast_is_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"\(3,\).*\(2, 4\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


class TestGradReverse:
    def test_forward_identity(self):
        x = Tensor([0.3, 0.7])
        assert np.array_equal(ad.grad_reverse(x, 1.0).data, [0.3, 0.7])

    def test_backward_negates(self):
        tape = Tape()
        x = Tensor([0.5, -1.0], tape=tape)
        upstream = np.array([2.0, 3.0])
        tape.backward(ad.tsum(ad.grad_reverse(x, 1.0) * upstream))
        assert np.array_equal(x.grad, -upstream)

    def test_lambda_zero_annihilates(self):
        tape = Tape()
        x = Tensor([1.0], tape=tape)
        tape.backward(ad.tsum(ad.grad_reverse(x, 0.0)))
        assert np.array_equal(x.grad, [0.0])

    def test_double_reversal_restores(self):
        tape = Tape()
        x = Tensor([1.0, 2.0], tape=tape)
        upstream = np.array([4.0, -1.0])
        tape.backward(ad.tsum(ad.grad_reverse(ad.grad_reverse(x, 1.0), 1.0) * upstream))
        assert np.array_equal(x.grad, upstream)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractError):
            ad.grad_reverse(Tensor([1.0]), -0.5)


class TestOuterFlatten:
    def test_basis_vector(self):
        out = ad.outer_flatten(Tensor([1.0, 0.0]), Tensor([0.3, 0.7]))
        assert np.allclose(out.data, [0.3, 0.7, 0.0, 0.0])

    def test_symmetry(self):
        out = ad.outer_flatten(Tensor([1.0, 1.0]), Tensor([0.5, 0.5]))
        assert np.allclose(out.data, [0.5, 0.5, 0.5, 0.5])

    def test_gradient_wrt_u_is_sum_v(self):
        v = np.array([0.2, 0.5, 0.3])
        tape = Tape()
        u = Tensor([1.3, -0.2], tape=tape)
        tape.backward(ad.tsum(ad.outer_flatten(u, Tensor(v))))
        assert np.allclose(u.grad, v.sum())

    def test_empty_operand_rejected(self):
        with pytest.raises(ContractError):
            ad.outer_flatten(Tensor(np.ones((2, 0))), Tensor(np.ones((2, 3))))


def test_random_op_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 4))

        def build(x):
            h = ad.relu(x @ Tensor(rng_mats) + 0.3)
            return ad.tsum(ad.softmax(h) * c[:, :3])

        rng_mats = rng.normal(size=(4, 3))
        analytic = scalar_grad(build, x0)

        def value(x):
            tape = Tape()
            return build(Tensor(x, tape=tape)).item()

        assert relative_error(analytic, finite_difference(value, x0)) < 1e-4
