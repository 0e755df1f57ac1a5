"""Training loops: the one-step adversarial trainer, the gradient-ascent
complementary baseline, the two-step pseudo-label baseline, both ablations,
SGD with momentum and weight decay, the adversarial tradeoff schedule, and
metrics bookkeeping.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .complabel import ComplementaryDataset, partition_batch
from .data import LabeledDataset, UnlabeledDataset, batches
from .errors import ContractError, NonFiniteValue
from .losses import adversarial_loss, entropy_weight, scatter_map, total_comp_loss
from .models import NetworkTriplet, build_triplet, default_specs, pseudo_label


@dataclass(frozen=True)
class Variant:
    """A trainer variant: its classifier objective (which picks the weighted
    cross-entropy's coefficients), its adversary, and a scatter temperature
    that overrides ``TrainConfig.l`` when set."""

    objective: str          # "complementary" (the ascent-corrected risk) or "ce"
    adversary: str          # "conditional" (CDAN, entropy-weighted), "plain" or "none"
    l: float | None = None


VARIANTS = {
    "clarinet": Variant("complementary", "conditional"),
    "gac": Variant("complementary", "none"),
    "two-step": Variant("ce", "plain"),     # the second stage; the first is gac
    "ablation-ce": Variant("ce", "conditional"),
    "ablation-no-t": Variant("complementary", "conditional", l=1.0),
}


@dataclass
class TrainConfig:
    gamma1: float = 5e-5          # classifier learning rate
    gamma2: float = 0.005         # adversarial learning rate
    t_max: int = 100
    t_s: int = 5                  # adversary starts after this epoch
    batch_size: int = 128
    K: int = 10
    l: float = 0.5                # scatter temperature
    momentum: float = 0.9
    weight_decay: float = 5e-5
    lambda_gain: float = 10.0     # steepness of the tradeoff schedule
    seed: int = 0
    variant: str = "clarinet"
    hidden: int = 128
    d_g: int = 64
    correction_enabled: bool = True   # diagnostic: False disables the ascent branch

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ContractError("learning rates must be positive")
        # each test is written as "not >=", so a NaN fails it too
        for key, low in (("t_max", 1), ("batch_size", 1), ("seed", 0),
                         ("lambda_gain", 0), ("hidden", 1), ("d_g", 1)):
            value = getattr(self, key)
            if not value >= low:
                raise ContractError("%s must be >= %d, got %r" % (key, low, value))
        # t_s == t_max keeps the adversary off for the whole run
        if not 0 <= self.t_s <= self.t_max:
            raise ContractError("need 0 <= t_s <= t_max")
        if self.l <= 0:
            raise ContractError("scatter temperature l must be positive")
        if self.variant not in VARIANTS:
            raise ContractError("unknown variant %r" % self.variant)


@dataclass
class MetricsRecord:
    epoch: int
    iterations: int
    comp_loss: float
    l_neg: float
    ascent_steps: int
    adv_loss: float
    lam: float
    target_acc: float
    seconds: float


@dataclass
class TrainResult:
    model: NetworkTriplet
    records: list
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# optimizer and schedule


def sgd_step(params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0,
             ascend: bool = False):
    """v <- momentum*v + grad + wd*theta; theta <- theta - lr*v.

    Ascent negates the gradient before the update (weight decay still pulls
    toward zero).
    """
    for p in params:
        if p.grad.shape != p.value.shape:
            raise ContractError("gradient shape %s != parameter shape %s"
                                % (p.grad.shape, p.value.shape))
        # one work buffer per parameter; grad + s and s - grad round exactly
        # as +-1.0*grad + s, and m*lr as lr*m
        step = p.value * weight_decay
        if ascend:
            np.subtract(step, p.grad, out=step)
        else:
            np.add(p.grad, step, out=step)
        p.momentum *= momentum
        p.momentum += step
        p.value -= np.multiply(p.momentum, lr, out=step)


def lambda_schedule(p: float, gain: float = 10.0) -> float:
    """Adversarial tradeoff ramp 2/(1+exp(-gain*p)) - 1 on progress p in [0,1]."""
    return 2.0 / (1.0 + math.exp(-gain * p)) - 1.0


# ---------------------------------------------------------------------------
# shared helpers


def evaluate(model: NetworkTriplet, dataset: LabeledDataset) -> float:
    """Fraction of the model's argmax predictions matching the true labels."""
    return float(np.mean(pseudo_label(model, dataset.features) == dataset.labels))


def _classifier_step(triplet, feats, labels, config):
    """Lines 5-13 of the per-iteration loop for the variant's objective: descend
    its total, or ascend its negative part when a class goes negative (which
    cross-entropy never does) on ``labels``, int64 in {1..K}; returns (loss,
    l_neg, ascended)."""
    tape = Tape()
    g = triplet.G.forward(tape, Tensor(feats))
    f = triplet.F.forward(tape, g)
    side = triplet.classifier_side

    per_class = total_comp_loss(f, labels, VARIANTS[config.variant].objective)
    negative = per_class.data < 0.0
    ascend = config.correction_enabled and bool(negative.any())
    l_neg = float((per_class.data * negative).sum())
    side.zero_grad()
    tape.backward(ad.tsum(per_class * negative) if ascend else ad.tsum(per_class))
    sgd_step([side], config.gamma1, config.momentum, config.weight_decay, ascend=ascend)
    return float(per_class.data.sum()), l_neg, ascend


def _adversarial_step(triplet, src_feats, tgt_feats, lam, config):
    """Lines 15-17 on one stacked batch: the source rows, then the target rows,
    go through G, F and D once, and one backward through the reversal layer
    updates both sides.  A plain adversary sees G's features with unit weights."""
    variant = VARIANTS[config.variant]
    n_s = len(src_feats)
    tape = Tape()
    g = triplet.G.forward(tape, Tensor(np.concatenate([src_feats, tgt_feats])))
    if variant.adversary == "conditional":
        l_eff = config.l if variant.l is None else variant.l
        # the mapped predictions feed both the conditioning and the weights
        mapped = scatter_map(triplet.F.forward(tape, g), l_eff)
        feat = ad.outer_flatten(g, mapped)
        _, w = entropy_weight(mapped.data)
    else:
        feat = g
        w = np.ones(len(g.data))
    d = triplet.D.forward(tape, ad.grad_reverse(feat, lam))
    loss = adversarial_loss(d, w[:n_s], w[n_s:])
    triplet.classifier_side.zero_grad()
    triplet.discriminator_side.zero_grad()
    tape.backward(loss)
    # D descends directly; the reversal layer has already scaled the classifier
    # gradient by -lam, so a plain descent there realizes the ascent.
    sgd_step([triplet.discriminator_side, triplet.classifier_side], config.gamma2,
             config.momentum, config.weight_decay)
    return loss.item()


def _run_loop(triplet, source: ComplementaryDataset, labels, target,
              config: TrainConfig, eval_data, epoch_callback=None):
    """Shared epoch/iteration loop of every variant: ``VARIANTS[config.variant]``
    picks the classifier objective and the adversary, and ``labels`` holds, per
    source row, the labels its objective reads (complementary or pseudo),
    checked once before the first step."""
    variant = VARIANTS[config.variant]
    if source.K != config.K:
        raise ContractError("source K=%d != config K=%d" % (source.K, config.K))
    labels = partition_batch(labels, config.K)
    ad.hold_heap()
    rng_src = np.random.default_rng([config.seed, 1])
    rng_tgt = np.random.default_rng([config.seed, 2])
    n_src = len(source)
    n_tgt = len(target) if target is not None else n_src
    n_iter = math.ceil(min(n_src, n_tgt) / config.batch_size)
    records = []
    for epoch in range(1, config.t_max + 1):
        t0 = time.perf_counter()
        src_batches = batches(n_src, config.batch_size, rng_src)[:n_iter]
        tgt_batches = (batches(n_tgt, config.batch_size, rng_tgt)[:n_iter]
                       if target is not None else [None] * n_iter)
        comp_sum = 0.0
        l_neg_sum = 0.0
        adv_sum = 0.0
        adv_n = 0
        ascent_steps = 0
        lam = 0.0
        adversarial_now = variant.adversary != "none" and epoch > config.t_s
        if adversarial_now:
            lam = lambda_schedule((epoch - config.t_s) / (config.t_max - config.t_s),
                                  gain=config.lambda_gain)
        for it in range(n_iter):
            idx = src_batches[it]
            feats = source.features[idx]
            try:
                c, ln, ascended = _classifier_step(triplet, feats, labels[idx], config)
                comp_sum += c
                l_neg_sum += ln
                ascent_steps += int(ascended)
                if adversarial_now:
                    tgt_feats = target.features[tgt_batches[it]]
                    adv_sum += _adversarial_step(triplet, feats, tgt_feats, lam, config)
                    adv_n += 1
            except NonFiniteValue as exc:
                raise NonFiniteValue("epoch %d iteration %d: %s" % (epoch, it, exc)) from exc
        try:
            acc = evaluate(triplet, eval_data) if eval_data is not None else float("nan")
        except NonFiniteValue as exc:
            raise NonFiniteValue("epoch %d evaluation: %s" % (epoch, exc)) from exc
        records.append(MetricsRecord(
            epoch=epoch, iterations=n_iter,
            comp_loss=comp_sum / n_iter, l_neg=l_neg_sum / n_iter,
            ascent_steps=ascent_steps,
            adv_loss=adv_sum / adv_n if adv_n else float("nan"),
            lam=lam, target_acc=acc, seconds=time.perf_counter() - t0))
        if epoch_callback is not None:
            epoch_callback(epoch, triplet)
    return records


# ---------------------------------------------------------------------------
# entry point


def _fresh_triplet(d: int, config: TrainConfig) -> NetworkTriplet:
    # gac keeps the conditional D it never trains, so its draws match clarinet's
    conditional = VARIANTS[config.variant].adversary != "plain"
    specs = default_specs(d, config.K, d_g=config.d_g, hidden=config.hidden,
                          conditional=conditional)
    return build_triplet(*specs, seed=config.seed)


def train_clarinet(source: ComplementaryDataset, target: UnlabeledDataset | None,
                   config: TrainConfig, eval_data: LabeledDataset | None = None,
                   epoch_callback=None) -> TrainResult:
    """Train ``config.variant``.  gac reads no target, which may be None;
    two-step first trains gac, then adapts on that model's pseudo labels
    with a plain feature-level adversary."""
    variant = VARIANTS[config.variant]
    if variant.adversary != "none" and target is None:
        raise ContractError("variant %r needs target data, got None" % config.variant)
    labels, extras = source.comp_labels, {}
    if config.variant == "two-step":
        stage1 = train_clarinet(source, None, replace(config, variant="gac"))
        labels = pseudo_label(stage1.model, source.features)
        try:
            noise = float(np.mean(labels != source.hidden_true_labels()))
        except ContractError:
            noise = float("nan")
        extras = {"stage1_model": stage1.model, "pseudo_labels": labels,
                  "pseudo_label_noise": noise}
    if variant.adversary == "none":
        target = None
    triplet = _fresh_triplet(source.features.shape[1], config)
    records = _run_loop(triplet, source, labels, target, config, eval_data,
                        epoch_callback=epoch_callback)
    return TrainResult(model=triplet, records=records, extras=extras)


# ---------------------------------------------------------------------------
# metrics output

CSV_COLUMNS = ("epoch", "comp_loss", "l_neg", "ascent_steps", "adv_loss",
               "lambda", "target_acc", "seconds")


def write_metrics_csv(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([r.epoch, "%.17g" % r.comp_loss, "%.17g" % r.l_neg,
                        r.ascent_steps, "%.17g" % r.adv_loss, "%.17g" % r.lam,
                        "%.17g" % r.target_acc, "%.6f" % r.seconds])
