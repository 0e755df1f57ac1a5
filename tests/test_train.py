import argparse
import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clarinet
import clarinet.autodiff as ad
import clarinet.train as train_mod
from clarinet.autodiff import Parameter, Tape, Tensor
from clarinet.complabel import partition_batch
from clarinet.data import (LabeledDataset, SyntheticPairConfig, UnlabeledDataset,
                           batches, make_synthetic_pair)
from clarinet.errors import ContractError, NonFiniteValue
from clarinet.losses import (PROB_FLOOR, adversarial_loss, cross_entropy_to_class,
                             entropy_weight, scatter_map, total_comp_loss)
from clarinet.models import (build_triplet, conditional_feature, default_specs, predict,
                            pseudo_label)
from clarinet.train import (VARIANTS, TrainConfig, evaluate, lambda_schedule,
                            sgd_step, train_clarinet, write_metrics_csv,
                            _adversarial_step, _classifier_step, _fresh_triplet)
from clarinet.cli import build_parser


def synthetic_task(seed=0, n=400, spread=0.35):
    cfg = SyntheticPairConfig(K=4, n_per_domain=n, spread=spread,
                              rotation_deg=30.0, seed=0)
    src, tgt = make_synthetic_pair(cfg)
    source = src.to_complementary(np.random.default_rng([seed, 7]))
    return source, tgt


def small_config(**kw):
    base = dict(K=4, t_max=6, t_s=2, gamma1=0.02, gamma2=0.001, batch_size=64,
                seed=0, hidden=16, d_g=8)
    base.update(kw)
    return TrainConfig(**base)


class TestSgd:
    def test_plain_step(self):
        p = Parameter([1.0])
        p.grad[...] = 0.5
        sgd_step([p], lr=1.0)
        assert p.value[0] == pytest.approx(0.5)

    def test_decay_only(self):
        p = Parameter([2.0])
        sgd_step([p], lr=0.1, weight_decay=5e-5)
        assert p.value[0] == pytest.approx(2.0 * (1 - 0.1 * 5e-5), abs=1e-15)

    def test_momentum_velocity_recursion(self):
        # constant gradient g: theta1 = -g, theta2 = -g - (1 + 0.9)g
        g = 0.7
        p = Parameter([0.0])
        p.grad[...] = g
        sgd_step([p], lr=1.0, momentum=0.9)
        assert p.value[0] == pytest.approx(-g)
        p.grad[...] = g
        sgd_step([p], lr=1.0, momentum=0.9)
        assert p.value[0] == pytest.approx(-g - 1.9 * g)

    def test_ascend_flips_direction(self):
        p = Parameter([0.0])
        p.grad[...] = 1.0
        sgd_step([p], lr=0.5, ascend=True)
        assert p.value[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("ascend", [False, True])
    def test_in_place_update_matches_the_plain_expression(self, ascend):
        rng = np.random.default_rng(4)
        value = rng.normal(size=(6, 5))
        value[0, :2] = (0.0, -0.0)
        p = Parameter(value.copy())
        momentum = np.zeros_like(value)
        for step in range(4):
            grad = rng.normal(size=value.shape)
            grad[1, :3] = (0.0, -0.0, -0.0)
            p.grad = grad.copy()
            sgd_step([p], lr=0.05, momentum=0.9, weight_decay=5e-5, ascend=ascend)
            sign = -1.0 if ascend else 1.0
            momentum = momentum * 0.9 + (sign * grad + 5e-5 * value)
            value = value - 0.05 * momentum
            assert np.array_equal(p.momentum, momentum), step
            assert np.array_equal(p.value, value), step
            assert np.array_equal(np.signbit(p.value), np.signbit(value)), step

    def test_shape_mismatch(self):
        p = Parameter([1.0, 2.0])
        p.grad = np.zeros(3)
        with pytest.raises(ContractError):
            sgd_step([p], lr=0.1)


class TestLambdaSchedule:
    def test_boundaries(self):
        assert lambda_schedule(0.0) == 0.0
        assert lambda_schedule(1.0) == pytest.approx(2 / (1 + np.exp(-10)) - 1, abs=1e-15)
        assert lambda_schedule(1.0) == pytest.approx(0.99991, abs=5e-6)

    def test_midpoint(self):
        assert lambda_schedule(0.5) == pytest.approx(2 / (1 + np.exp(-5)) - 1, abs=1e-15)
        assert lambda_schedule(0.5) == pytest.approx(0.98661, abs=5e-6)

    def test_monotone(self):
        vals = [lambda_schedule(p) for p in np.linspace(0, 1, 50)]
        assert np.all(np.diff(vals) > 0)


class TestAlgorithmMechanics:
    def test_discriminator_frozen_until_start_epoch(self):
        source, tgt = synthetic_task()
        config = small_config(t_max=5, t_s=3)
        snapshots = {}

        def snap(epoch, triplet):
            snapshots[epoch] = [p.value.copy() for p in triplet.discriminator_params]

        result = train_clarinet(source, tgt.unlabeled(), config, epoch_callback=snap)
        init_vals = [p.value for p in _fresh_triplet(2, config).discriminator_params]
        for epoch in (1, 2, 3):
            for a, b in zip(snapshots[epoch], init_vals):
                assert np.array_equal(a, b)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(snapshots[5], init_vals))
        for r in result.records:
            if r.epoch <= config.t_s:
                assert np.isnan(r.adv_loss) and r.lam == 0.0
            else:
                assert np.isfinite(r.adv_loss) and r.lam > 0.0

    def test_epoch_count_and_lambda_monotone(self):
        source, tgt = synthetic_task()
        result = train_clarinet(source, tgt.unlabeled(), small_config(t_max=3, t_s=1))
        assert len(result.records) == 3
        lams = [r.lam for r in result.records]
        assert lams == sorted(lams)

    def test_ascent_baseline_equals_gated_adversarial_bit_exactly(self):
        source, tgt = synthetic_task()
        config = small_config(t_max=4, t_s=4)
        plain = train_clarinet(source, None, dataclasses.replace(config, variant="gac"),
                               eval_data=tgt)
        gated = train_clarinet(source, tgt.unlabeled(), config, eval_data=tgt)
        for a, b in zip(plain.model.classifier_params, gated.model.classifier_params):
            assert np.array_equal(a.value, b.value)
        for ra, rb in zip(plain.records, gated.records):
            assert ra.comp_loss == rb.comp_loss
            assert ra.target_acc == rb.target_acc

    def test_ascent_branch_fires_iff_min_class_negative(self):
        source, _ = synthetic_task(n=64)
        config = small_config(gamma1=0.1, batch_size=64, t_max=6, t_s=6,
                              momentum=0.0, weight_decay=0.0)
        triplet = _fresh_triplet(2, config)
        feats = source.features[:64]
        labels = source.comp_labels[:64]
        fired = 0
        for _ in range(150):
            probs = Tensor(predict(triplet, feats))
            per_class = total_comp_loss(probs, partition_batch(labels, 4)).data
            expect_ascent = per_class.min() < 0.0
            _, l_neg, ascended = _classifier_step(triplet, feats, labels, config)
            assert ascended == expect_ascent
            # the reported negative part sums the negative classes, 0.0 if none
            assert l_neg == pytest.approx(per_class[per_class < 0.0].sum(),
                                          rel=1e-12, abs=0.0)
            fired += int(ascended)
        assert fired > 0  # this fixture saturates into the negative regime

    def test_classifier_step_update_matches_branch_gradient(self):
        # with momentum 0 and no decay the applied delta is -lr*grad of the
        # descent branch (or +lr*grad of the negative part when ascending),
        # verified against an identical twin network differentiated directly
        source, _ = synthetic_task(n=32)
        config = small_config(momentum=0.0, weight_decay=0.0, batch_size=32)
        triplet = _fresh_triplet(2, config)
        twin = _fresh_triplet(2, config)
        feats, labels = source.features[:32], source.comp_labels[:32]

        tape = Tape()
        f = twin.F.forward(tape, twin.G.forward(tape, Tensor(feats)))
        per_class = total_comp_loss(f, partition_batch(labels, 4))
        for p in twin.classifier_params:
            p.zero_grad()
        negative = per_class.data < 0.0
        descend = not negative.any()
        tape.backward(ad.tsum(per_class if descend else per_class * negative))
        sign = -1.0 if descend else 1.0

        d_before = [p.value.copy() for p in triplet.discriminator_params]
        loss, l_neg, _ = _classifier_step(triplet, feats, labels, config)
        assert loss == per_class.data.sum()
        assert l_neg == per_class.data[negative].sum()
        for p, twin_p in zip(triplet.classifier_params, twin.classifier_params):
            expected = twin_p.value + sign * config.gamma1 * twin_p.grad
            assert np.allclose(p.value, expected, atol=1e-12)
        # the classifier step never touches the discriminator
        for p, b in zip(triplet.discriminator_params, d_before):
            assert np.array_equal(p.value, b)

    def test_gradient_reversal_realizes_minimax_split(self):
        # one backward through the reversal layer must move the discriminator
        # down the adversarial gradient and the classifier up the lam-scaled one
        source, tgt = synthetic_task(n=64)
        config = small_config(momentum=0.0, weight_decay=0.0, batch_size=64)
        lam = 0.7
        triplet = _fresh_triplet(2, config)
        twin = _fresh_triplet(2, config)
        feats_s, feats_t = source.features[:32], tgt.features[:32]

        tape = Tape()
        g = twin.G.forward(tape, Tensor(np.concatenate([feats_s, feats_t])))
        f = twin.F.forward(tape, g)
        feat = conditional_feature(g, f, config.l)
        _, w = entropy_weight(scatter_map(Tensor(f.data.copy()), config.l).data)
        loss = adversarial_loss(twin.D.forward(tape, feat), w[:32], w[32:])
        for p in twin.classifier_params + twin.discriminator_params:
            p.zero_grad()
        tape.backward(loss)

        before_c = [p.value.copy() for p in triplet.classifier_params]
        before_d = [p.value.copy() for p in triplet.discriminator_params]
        _adversarial_step(triplet, feats_s, feats_t, lam, config)
        for p, b, twin_p in zip(triplet.classifier_params, before_c,
                                twin.classifier_params):
            assert np.allclose(p.value - b, +config.gamma2 * lam * twin_p.grad,
                               atol=1e-10)
        for p, b, twin_p in zip(triplet.discriminator_params, before_d,
                                twin.discriminator_params):
            assert np.allclose(p.value - b, -config.gamma2 * twin_p.grad,
                               atol=1e-10)

    def test_fixed_seed_bit_identical_metrics(self, tmp_path):
        source, tgt = synthetic_task()
        texts = []
        for name in ("a", "b"):
            result = train_clarinet(source, tgt.unlabeled(), small_config(),
                                    eval_data=tgt)
            path = tmp_path / (name + ".csv")
            write_metrics_csv(path, result.records)
            texts.append(path.read_text())

        def drop_seconds(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert drop_seconds(texts[0]) == drop_seconds(texts[1])

    def test_nonfinite_abort_names_epoch(self):
        source, tgt = synthetic_task(n=64)
        source.features[0, 0] = np.nan     # every batch of 64 holds row 0
        config = small_config(batch_size=64)
        with pytest.raises(NonFiniteValue, match="epoch 1 iteration 0"):
            train_clarinet(source, tgt.unlabeled(), config)

    def test_config_k_mismatch(self):
        source, tgt = synthetic_task()
        with pytest.raises(ContractError, match="K"):
            train_clarinet(source, None, small_config(K=5, variant="gac"))

    def test_label_edited_out_of_range_fails_before_any_step(self, monkeypatch):
        # the labels are checked once before epoch 1: a label moved out of
        # {1..K} after the dataset was built, here in the first epoch's last
        # batch, stops the run before any parameter moves
        source, _ = synthetic_task()
        config = small_config(variant="gac")
        last = batches(len(source), config.batch_size,
                       np.random.default_rng([config.seed, 1]))[-1]
        source.comp_labels[last[0]] = config.K + 1
        steps = []
        monkeypatch.setattr(train_mod, "sgd_step", lambda *args, **kw: steps.append(args))
        with pytest.raises(ContractError, match="out of range"):
            train_clarinet(source, None, config)
        assert steps == []

    def test_invalid_config_values(self):
        with pytest.raises(ContractError):
            TrainConfig(gamma1=0.0)
        with pytest.raises(ContractError):
            TrainConfig(t_s=11, t_max=10)
        with pytest.raises(ContractError):
            TrainConfig(variant="nope")
        with pytest.raises(ContractError, match="batch_size must be >= 1, got 0"):
            TrainConfig(batch_size=0)
        with pytest.raises(ContractError, match="t_max must be >= 1, got 0"):
            TrainConfig(t_max=0, t_s=0)
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        with pytest.raises(ContractError, match="lambda_gain must be >= 0, got nan"):
            TrainConfig(lambda_gain=float("nan"))


def per_class_ce_chain(probs, labels):
    """Cross-entropy as the two-step stage and the CE ablation once built it:
    per present class in ascending order, -log clip(p_k) summed over that
    class's rows, then the class sums added and divided by the batch size."""
    terms = [ad.tsum(ad.take_rows(cross_entropy_to_class(probs, int(k)),
                                  np.flatnonzero(labels == k)))
             for k in np.unique(labels)]
    return sum(terms[1:], terms[0]) / float(len(labels))


class TestCrossEntropyObjective:
    @pytest.mark.parametrize("K", [4, 10])
    def test_weighted_ce_step_matches_the_per_class_chain(self, K):
        config = small_config(K=K, variant="ablation-ce")
        rng = np.random.default_rng(K)
        feats = rng.normal(size=(64, 2))
        labels = rng.integers(1, K + 1, size=64)
        labels[labels == 2] = 1                 # class 2 is absent
        triplet = _fresh_triplet(2, config)
        triplet.F.weights[-1].value *= 400.0    # saturates the softmax

        def node(probs, labels):
            return ad.tsum(total_comp_loss(probs, partition_batch(labels, K), "ce"))

        runs = {}
        for name, loss_of in (("chain", per_class_ce_chain), ("node", node)):
            tape = Tape()
            g = triplet.G.forward(tape, Tensor(feats))
            logits = ad.mlp(tape, g, triplet.F.weights, triplet.F.biases)
            probs = ad.softmax(logits)
            loss = loss_of(probs, labels)
            triplet.classifier_side.zero_grad()
            tape.backward(loss)
            runs[name] = (loss.item(), logits.grad, triplet.classifier_side.grad.copy())
        assert (probs.data[np.arange(64), labels - 1] < PROB_FLOOR).any()
        for a, b in zip(runs["node"], runs["chain"]):
            assert np.allclose(a, b, rtol=1e-12, atol=0.0)

        loss, l_neg, ascended = _classifier_step(triplet, feats, labels, config)
        assert (l_neg, ascended) == (0.0, False)
        assert np.allclose(loss, runs["chain"][0], rtol=1e-12, atol=0.0)
        assert np.allclose(triplet.classifier_side.grad, runs["chain"][2],
                           rtol=1e-12, atol=0.0)


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the heap hold relies on glibc's malloc thresholds")


def second_call_minor_faults(setup, call):
    """Minor page faults of the second of two ``call``s, in a child process
    that runs ``setup`` first."""
    script = setup + """
import resource
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    %s
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""" % call
    env = dict(os.environ, PYTHONPATH=str(Path(clarinet.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return int(out.stdout)


@glibc_only
def test_heap_hold_keeps_later_trainings_free_of_page_faults():
    # without the hold, the second training faults its working set back in
    # (thousands of minor faults); with it, a handful at most
    setup = """
import numpy as np
from clarinet.data import SyntheticPairConfig, make_synthetic_pair
from clarinet.train import TrainConfig, train_clarinet
src, tgt = make_synthetic_pair(SyntheticPairConfig(
    K=4, n_per_domain=2000, spread=0.45, rotation_deg=30.0, radius=2.0, seed=0))
source = src.to_complementary(np.random.default_rng([0, 7]))
config = TrainConfig(K=4, t_max=2, t_s=1, gamma1=0.02, gamma2=0.001, batch_size=128,
                     hidden=32, d_g=16, lambda_gain=10.0, seed=0)
"""
    call = "train_clarinet(source, tgt.unlabeled(), config, eval_data=tgt)"
    assert second_call_minor_faults(setup, call) < 500


@glibc_only
def test_heap_hold_keeps_later_verify_suites_free_of_page_faults():
    # the Monte-Carlo oracle holds about 13 MB of 100k x 4 arrays at once: a
    # hold that keeps less faults thousands of pages back in on every suite
    setup = "from clarinet.verify import run_suite\n"
    assert second_call_minor_faults(setup, 'run_suite("all", 0)') < 500


class TestNegativeRiskCorrection:
    def overfit_fixture(self, correction):
        cfg = SyntheticPairConfig(K=4, n_per_domain=40, spread=0.2,
                                  rotation_deg=0.0, seed=3)
        src, _ = make_synthetic_pair(cfg)
        source = src.to_complementary(np.random.default_rng(3))
        config = TrainConfig(K=4, t_max=80, t_s=80, gamma1=0.1, batch_size=40,
                             seed=3, hidden=32, d_g=16, momentum=0.9,
                             variant="gac", correction_enabled=correction)
        return train_clarinet(source, None, config)

    def test_correction_keeps_loss_bounded(self):
        result = self.overfit_fixture(correction=True)
        assert sum(r.ascent_steps for r in result.records) >= 1
        assert min(r.comp_loss for r in result.records) > -10.0

    def test_disabled_correction_diverges(self):
        result = self.overfit_fixture(correction=False)
        assert min(r.comp_loss for r in result.records) < -10.0


class TestTwoStep:
    def test_stage_two_labels_are_stage_one_argmax(self):
        source, tgt = synthetic_task(n=200)
        result = train_clarinet(source, tgt.unlabeled(),
                                small_config(t_max=3, t_s=1, variant="two-step"),
                                eval_data=tgt)
        recomputed = pseudo_label(result.extras["stage1_model"], source.features)
        assert np.array_equal(result.extras["pseudo_labels"], recomputed)

    def test_noise_rate_reported(self):
        source, tgt = synthetic_task(n=200)
        result = train_clarinet(source, tgt.unlabeled(),
                                small_config(t_max=3, t_s=1, variant="two-step"))
        noise = result.extras["pseudo_label_noise"]
        assert 0.0 <= noise <= 1.0
        manual = np.mean(result.extras["pseudo_labels"]
                         != source.hidden_true_labels())
        assert noise == pytest.approx(manual)


class TestEvaluate:
    @staticmethod
    def identity_triplet(K):
        """A triplet that predicts, for a one-hot row, that row's class: its
        G and F weights are identities and its biases zero."""
        triplet = build_triplet(*default_specs(K, K, d_g=K, hidden=K), seed=0)
        for w in triplet.G.weights + triplet.F.weights:
            w.value[...] = np.eye(K)
        return triplet

    def test_perfect_and_constant_predictors(self):
        classes = np.tile([1, 2, 3, 4], 2)
        ds = LabeledDataset(features=np.eye(4)[classes - 1], labels=classes, K=4)
        triplet = self.identity_triplet(4)
        assert evaluate(triplet, ds) == 1.0
        # F ignores its input and favours class 1
        triplet.F.weights[0].value[...] = 0.0
        triplet.F.biases[0].value[0] = 1.0
        assert evaluate(triplet, ds) == 0.25

    def test_hand_confusion_count(self):
        preds = np.array([1, 1, 2, 2, 2, 3, 3, 3, 1, 3])  # 7 of 10 correct
        ds = LabeledDataset(features=np.eye(3)[preds - 1],
                            labels=np.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 3]), K=3)
        assert evaluate(self.identity_triplet(3), ds) == pytest.approx(0.7)


def run_fingerprint(result):
    """Every record value but the wall time, floats as hex so that NaN equals
    NaN bit for bit, and the bytes of every parameter and momentum buffer."""
    rows = [tuple(v.hex() if isinstance(v, float) else v
                  for k, v in dataclasses.asdict(r).items() if k != "seconds")
            for r in result.records]
    params = result.model.classifier_params + result.model.discriminator_params
    return rows, [p.value.tobytes() for p in params], [p.momentum.tobytes() for p in params]


class TestVariantTable:
    def run(self, variant, config_variant=None, **kw):
        """A run of ``variant``, set with ``replace`` over a config made for
        ``config_variant``, as a caller switches the variant of a config."""
        source, tgt = synthetic_task(n=200)
        config = small_config(t_max=4, t_s=1, variant=config_variant or variant, **kw)
        config = dataclasses.replace(config, variant=variant)
        return run_fingerprint(train_clarinet(source, tgt.unlabeled(), config,
                                              eval_data=tgt))

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_argument_decides_over_config_variant(self, variant):
        other = "ablation-no-t" if variant == "clarinet" else "clarinet"
        run = self.run(variant)
        assert self.run(variant, config_variant=other) == run
        assert self.run(other) != run

    def test_no_t_ablation_is_clarinet_at_unit_temperature(self):
        assert self.run("ablation-no-t", l=0.5) == self.run("clarinet", l=1.0)

    def test_baselines_set_their_own_variant(self):
        # two-step's first stage is the gac run of the same config
        source, tgt = synthetic_task(n=200)
        config = small_config(t_max=4, t_s=1)
        two_step = train_clarinet(source, tgt.unlabeled(),
                                  dataclasses.replace(config, variant="two-step"))
        gac = train_clarinet(source, None, dataclasses.replace(config, variant="gac"))
        stage1 = two_step.extras["stage1_model"]
        for a, b in zip(stage1.classifier_params, gac.model.classifier_params):
            assert np.array_equal(a.value, b.value)
        assert np.array_equal(two_step.extras["pseudo_labels"],
                              pseudo_label(gac.model, source.features))
        assert set(two_step.extras) == {"stage1_model", "pseudo_labels",
                                        "pseudo_label_noise"}

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "gac"])
    def test_adversarial_variant_needs_target_data(self, variant):
        source, _ = synthetic_task(n=64)
        with pytest.raises(ContractError,
                           match="variant %r needs target data, got None" % variant):
            train_clarinet(source, None, small_config(variant=variant))

    def test_gac_ignores_its_target(self):
        source, tgt = synthetic_task(n=200)
        config = small_config(t_max=3, t_s=1, variant="gac")
        # a target smaller than the source would shorten an adversarial epoch
        small_target = UnlabeledDataset(tgt.features[:64])
        runs = [run_fingerprint(train_clarinet(source, target, config))
                for target in (None, small_target)]
        assert runs[0] == runs[1]

    def test_cli_choices_are_the_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices["train"]._actions if a.dest == "variant")
        assert action.choices == tuple(VARIANTS)
