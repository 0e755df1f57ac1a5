"""Training loops: the one-step adversarial trainer, the gradient-ascent
complementary baseline, the two-step pseudo-label baseline, both ablations,
SGD with momentum and weight decay, the adversarial tradeoff schedule, and
metrics bookkeeping.
"""

from __future__ import annotations

import csv
import functools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .complabel import ComplementaryDataset, partition_batch
from .data import LabeledDataset, UnlabeledDataset, batches
from .errors import ContractError, NonFiniteValue
from .losses import (adversarial_loss, cross_entropy_to_class, entropy_weight,
                     scatter_map, total_comp_loss)
from .models import (NetworkTriplet, build_triplet, default_specs, predict,
                     pseudo_label)

VARIANTS = ("clarinet", "gac", "two-step", "ablation-ce", "ablation-no-t")


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
    if not 0.0 <= p <= 1.0:
        warnings.warn("schedule progress %r outside [0,1]; clamping" % p)
        p = min(max(p, 0.0), 1.0)
    return 2.0 / (1.0 + math.exp(-gain * p)) - 1.0


# ---------------------------------------------------------------------------
# shared helpers


def evaluate(model, dataset: LabeledDataset) -> float:
    """Fraction of argmax predictions matching the true labels."""
    if isinstance(model, NetworkTriplet):
        pred = pseudo_label(model, dataset.features)
    else:
        pred = model(dataset.features).argmax(axis=1) + 1
    return float(np.mean(pred == dataset.labels))


def _zero_grads(params):
    for p in params:
        p.zero_grad()


def _classifier_step(triplet, feats, comp_labels, config):
    """Lines 5-13 of the per-iteration loop; returns (comp_loss, l_neg, ascended)."""
    tape = Tape()
    g = triplet.G.forward(tape, Tensor(feats))
    f = triplet.F.forward(tape, g)
    params = triplet.classifier_params

    if config.variant == "ablation-ce":
        # plain cross-entropy against the complementary labels
        terms = []
        partition = partition_batch(comp_labels, config.K)
        for k in range(1, config.K + 1):
            idx = partition.subsets[k - 1]
            if len(idx):
                terms.append(ad.tsum(ad.take_rows(cross_entropy_to_class(f, k), idx)))
        loss = terms[0]
        for t in terms[1:]:
            loss = loss + t
        loss = loss / float(len(comp_labels))
        _zero_grads(params)
        tape.backward(loss)
        sgd_step(params, config.gamma1, config.momentum, config.weight_decay)
        return loss.item(), 0.0, False

    partition = partition_batch(comp_labels, config.K)
    breakdown = total_comp_loss(f, partition)
    total_value = breakdown.total.item()
    l_neg_value = breakdown.l_neg_value
    _zero_grads(params)
    if breakdown.min_class >= 0.0 or not config.correction_enabled:
        tape.backward(breakdown.total)
        sgd_step(params, config.gamma1, config.momentum, config.weight_decay)
        return total_value, l_neg_value, False
    tape.backward(breakdown.l_neg)
    sgd_step(params, config.gamma1, config.momentum, config.weight_decay, ascend=True)
    return total_value, l_neg_value, True


def _adversarial_step(triplet, src_feats, tgt_feats, lam, config, conditional=True,
                      src_weighted=True):
    """Lines 15-17: one backward through the reversal layer updates both sides."""
    tape = Tape()
    xs = Tensor(src_feats)
    xt = Tensor(tgt_feats)
    gs = triplet.G.forward(tape, xs)
    gt = triplet.G.forward(tape, xt)
    if conditional:
        l_eff = 1.0 if config.variant == "ablation-no-t" else config.l
        fs = triplet.F.forward(tape, gs)
        ft = triplet.F.forward(tape, gt)
        # the mapped predictions feed both the conditioning and the weights
        mapped_s = scatter_map(fs, l_eff)
        feat_s = ad.outer_flatten(gs, mapped_s)
        mapped_t = scatter_map(ft, l_eff)
        feat_t = ad.outer_flatten(gt, mapped_t)
        _, w_s = entropy_weight(mapped_s.data)
        _, w_t = entropy_weight(mapped_t.data)
    else:
        feat_s, feat_t = gs, gt
        w_s = np.ones(len(src_feats))
        w_t = np.ones(len(tgt_feats))
    if not src_weighted:
        w_s = np.ones(len(src_feats))
        w_t = np.ones(len(tgt_feats))
    d_s = triplet.D.forward(tape, ad.grad_reverse(feat_s, lam))
    d_t = triplet.D.forward(tape, ad.grad_reverse(feat_t, lam))
    loss = adversarial_loss(d_s, w_s, d_t, w_t)
    _zero_grads(triplet.classifier_params)
    _zero_grads(triplet.discriminator_params)
    tape.backward(loss)
    # D descends directly; the reversal layer has already scaled the classifier
    # gradient by -lam, so a plain descent there realizes the ascent.
    sgd_step(triplet.discriminator_params, config.gamma2, config.momentum,
             config.weight_decay)
    sgd_step(triplet.classifier_params, config.gamma2, config.momentum,
             config.weight_decay)
    return loss.item()


@functools.cache
def _hold_heap():
    """Keep freed memory in the process from one training step to the next.

    A synth-k4 step allocates and frees about 1 MB of arrays.  While glibc's
    trim threshold is at its 128 KB default, the top of the heap can go back
    to the kernel at the end of each step and be faulted in again by the
    next one: about 300 minor page faults a step, or 0.2-0.4 s of system
    time a run, depending on what the process allocated before.  glibc
    raises its mmap threshold to the size of a freed mmapped block, and its
    trim threshold to twice that, so freeing one 4 MB block keeps up to 8 MB
    of free heap from then on.  Its adaptive thresholds otherwise work as
    before (``mallopt`` would switch them off), and no value changes.
    """
    np.empty(4 << 20, dtype=np.uint8)


def _run_loop(triplet, source: ComplementaryDataset, target, config: TrainConfig,
              eval_data, adversary: bool, conditional=True, src_weighted=True,
              ce_labels=None, epoch_callback=None):
    """Shared epoch/iteration loop for the one-step trainer and both baselines.

    ``ce_labels`` switches the classifier objective to plain cross-entropy on
    the given true/pseudo labels (the two-step second stage).
    """
    if source.K != config.K:
        raise ContractError("source K=%d != config K=%d" % (source.K, config.K))
    _hold_heap()
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
        adversarial_now = adversary and epoch > config.t_s
        if adversarial_now:
            lam = lambda_schedule((epoch - config.t_s) / (config.t_max - config.t_s),
                                  gain=config.lambda_gain)
        for it in range(n_iter):
            idx = src_batches[it]
            feats = source.features[idx]
            try:
                if ce_labels is None:
                    c, ln, ascended = _classifier_step(triplet, feats,
                                                       source.comp_labels[idx], config)
                else:
                    c = _true_label_step(triplet, feats, ce_labels[idx], config)
                    ln, ascended = 0.0, False
                comp_sum += c
                l_neg_sum += ln
                ascent_steps += int(ascended)
                if adversarial_now:
                    tgt_feats = target.features[tgt_batches[it]]
                    adv_sum += _adversarial_step(triplet, feats, tgt_feats, lam,
                                                 config, conditional=conditional,
                                                 src_weighted=src_weighted)
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


def _true_label_step(triplet, feats, labels, config):
    """Ordinary cross-entropy descent on given (pseudo) labels."""
    tape = Tape()
    f = triplet.F.forward(tape, triplet.G.forward(tape, Tensor(feats)))
    terms = []
    for k in np.unique(labels):
        idx = np.flatnonzero(labels == k)
        terms.append(ad.tsum(ad.take_rows(cross_entropy_to_class(f, int(k)), idx)))
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    loss = loss / float(len(labels))
    params = triplet.classifier_params
    _zero_grads(params)
    tape.backward(loss)
    sgd_step(params, config.gamma1, config.momentum, config.weight_decay)
    return loss.item()


# ---------------------------------------------------------------------------
# entry points


def _fresh_triplet(d: int, config: TrainConfig, conditional=True) -> NetworkTriplet:
    specs = default_specs(d, config.K, d_g=config.d_g, hidden=config.hidden,
                          conditional=conditional)
    return build_triplet(*specs, seed=config.seed)


def train_clarinet(source: ComplementaryDataset, target: UnlabeledDataset,
                   config: TrainConfig, eval_data: LabeledDataset | None = None,
                   triplet: NetworkTriplet | None = None,
                   epoch_callback=None) -> TrainResult:
    """The one-step trainer (also runs both ablation variants)."""
    if config.variant not in ("clarinet", "ablation-ce", "ablation-no-t"):
        raise ContractError("train_clarinet got variant %r" % config.variant)
    if triplet is None:
        triplet = _fresh_triplet(source.features.shape[1], config)
    records = _run_loop(triplet, source, target, config, eval_data, adversary=True,
                        epoch_callback=epoch_callback)
    return TrainResult(model=triplet, records=records)


def train_gac(source: ComplementaryDataset, config: TrainConfig,
              eval_data: LabeledDataset | None = None,
              triplet: NetworkTriplet | None = None,
              epoch_callback=None) -> TrainResult:
    """Non-transfer baseline: complementary classification with the ascent
    correction, no adversary."""
    if triplet is None:
        triplet = _fresh_triplet(source.features.shape[1], config)
    records = _run_loop(triplet, source, None, config, eval_data, adversary=False,
                        epoch_callback=epoch_callback)
    return TrainResult(model=triplet, records=records)


def train_two_step(source: ComplementaryDataset, target: UnlabeledDataset,
                   config: TrainConfig, eval_data: LabeledDataset | None = None) -> TrainResult:
    """Label-correct with the ascent baseline, then adversarial adaptation on the
    pseudo labels with an unconditional feature-level adversary."""
    stage1 = train_gac(source, config)
    pseudo = pseudo_label(stage1.model, source.features)
    extras = {"stage1_records": stage1.records, "stage1_model": stage1.model,
              "pseudo_labels": pseudo}
    try:
        true = source.hidden_true_labels()
        extras["pseudo_label_noise"] = float(np.mean(pseudo != true))
    except ContractError:
        extras["pseudo_label_noise"] = float("nan")

    triplet = _fresh_triplet(source.features.shape[1], config, conditional=False)
    records = _run_loop(triplet, source, target, config, eval_data, adversary=True,
                        conditional=False, src_weighted=False, ce_labels=pseudo)
    return TrainResult(model=triplet, records=records, extras=extras)


def train_variant(variant: str, source, target, config, eval_data=None) -> TrainResult:
    if variant in ("clarinet", "ablation-ce", "ablation-no-t"):
        return train_clarinet(source, target, config, eval_data)
    if variant == "gac":
        return train_gac(source, config, eval_data)
    if variant == "two-step":
        return train_two_step(source, target, config, eval_data)
    raise ContractError("unknown variant %r" % variant)


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
