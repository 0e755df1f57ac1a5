import numpy as np
import pytest

from clarinet.autodiff import Tape, Tensor
import clarinet.autodiff as ad
from clarinet.errors import ContractError, ShapeMismatch
from clarinet.models import (NetworkSpec, build_triplet, conditional_feature,
                             default_specs, load_checkpoint, predict,
                             pseudo_label, save_checkpoint)
from clarinet.verify import finite_difference, relative_error


def small_triplet(seed=0, d=2, K=4, d_g=8):
    return build_triplet(NetworkSpec((d, 16, d_g)),
                         NetworkSpec((d_g, K), head="softmax"),
                         NetworkSpec((d_g * K, 8, 1), head="sigmoid"), seed=seed)


class TestBuild:
    def test_discriminator_input_width(self):
        spec_g, spec_f, spec_d = default_specs(2, 4, d_g=8)
        assert spec_d.widths[0] == 32
        build_triplet(spec_g, spec_f, spec_d, seed=0)

    def test_same_seed_bit_identical(self):
        a, b = small_triplet(5), small_triplet(5)
        for pa, pb in zip(a.classifier_params + a.discriminator_params,
                          b.classifier_params + b.discriminator_params):
            assert np.array_equal(pa.value, pb.value)

    def test_different_seeds_differ(self):
        a, b = small_triplet(0), small_triplet(1)
        assert any(not np.array_equal(pa.value, pb.value)
                   for pa, pb in zip(a.classifier_params, b.classifier_params))

    def test_width_mismatch_names_junction(self):
        with pytest.raises(ContractError, match="F input width"):
            build_triplet(NetworkSpec((2, 8)), NetworkSpec((9, 3), head="softmax"),
                          NetworkSpec((24, 1), head="sigmoid"), seed=0)

    def test_parameter_registries_disjoint(self):
        t = small_triplet()
        classifier = {id(p) for p in t.classifier_params}
        discriminator = {id(p) for p in t.discriminator_params}
        assert not classifier & discriminator

    def test_biases_zero_at_init(self):
        t = small_triplet()
        for net in (t.G, t.F, t.D):
            for b in net.biases:
                assert np.array_equal(b.value, np.zeros_like(b.value))


class TestConditionalFeature:
    def test_identity_temperature_basis_feature(self):
        out = conditional_feature(Tensor([[1.0, 0.0]]), Tensor([[0.5, 0.5]]), 1.0)
        assert np.allclose(out.data, [[0.5, 0.5, 0.0, 0.0]])

    def test_scatter_then_outer_by_hand(self):
        out = conditional_feature(Tensor([[1.0, 1.0]]), Tensor([[0.2, 0.8]]), 0.5)
        assert np.allclose(out.data, [[0.0588, 0.9412, 0.0588, 0.9412]], atol=5e-5)

    def test_identity_temperature_reproduces_plain_conditioning(self):
        g = np.array([[0.4, -1.2, 0.7]])
        f = np.array([[0.3, 0.7]])
        out = conditional_feature(Tensor(g), Tensor(f), 1.0)
        assert np.abs(out.data - np.outer(g, f).ravel()).max() < 1e-12

    def test_gradient_through_both_arguments(self):
        rng = np.random.default_rng(0)
        g0 = rng.normal(size=(3, 2))
        f0 = rng.dirichlet(np.ones(3), size=3) * 0.9 + 0.03
        f0 /= f0.sum(axis=1, keepdims=True)
        c = rng.normal(size=(3, 6))

        def build_g(g):
            return ad.tsum(conditional_feature(g, Tensor(f0), 0.5) * c)

        def build_f(f):
            return ad.tsum(conditional_feature(Tensor(g0), f, 0.5) * c)

        for build, x0 in ((build_g, g0), (build_f, f0)):
            tape = Tape()
            x = Tensor(x0, tape=tape)
            tape.backward(build(x))
            numeric = finite_difference(lambda v: build(Tensor(v, tape=Tape())).item(), x0)
            assert relative_error(x.grad, numeric) < 1e-4


class TestPredict:
    def test_rows_on_simplex(self):
        t = small_triplet()
        p = predict(t, np.random.default_rng(1).normal(size=(20, 2)))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"2-D input of width 2, got \(2,\)"):
            predict(small_triplet(), np.zeros(2))

    def test_pseudo_label_argmax(self):
        probs = np.array([0.1, 0.7, 0.2])
        assert probs.argmax() + 1 == 2

    def test_tie_breaks_toward_smallest_index(self):
        assert np.array([0.5, 0.5]).argmax() + 1 == 1
        t = small_triplet()
        labels = pseudo_label(t, np.zeros((3, 2)))
        assert labels.shape == (3,)
        assert np.all((1 <= labels) & (labels <= 4))

    def test_argmax_invariant_under_scatter(self):
        from clarinet.losses import scatter_map
        t = small_triplet()
        x = np.random.default_rng(2).normal(size=(30, 2))
        p = predict(t, x)
        for l in (0.1, 0.5, 2.0):
            mapped = scatter_map(Tensor(p), l).data
            assert np.array_equal(mapped.argmax(axis=1), p.argmax(axis=1))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        t = small_triplet(seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, t)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(4).normal(size=(5, 2))
        assert np.array_equal(predict(t, x), predict(loaded, x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope" + b"\x00" * 32)
        from clarinet.errors import FormatError
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == "%s: not a checkpoint file: bad magic" % path
