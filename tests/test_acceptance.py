"""End-to-end acceptance gate: ten criteria, one printed pass/fail line each.

The pass/fail lines are written to the unbuffered original stdout so they show
up in the run log even when pytest captures test output.
"""

import multiprocessing
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clarinet.autodiff as ad
from clarinet.autodiff import Tape, Tensor
from clarinet.complabel import (partition_batch, recover_posterior,
                                transition_matrix)
from clarinet.data import (SyntheticPairConfig, load_idx, make_synthetic_pair)
from clarinet.losses import scatter_map, total_comp_loss
from clarinet.models import predict
from clarinet.train import (TrainConfig, train_clarinet, write_metrics_csv,
                            _classifier_step, _fresh_triplet)
from clarinet.verify import (DiscreteDomain, exact_unbiasedness,
                             gradcheck_suite, monte_carlo_unbiasedness)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _passthrough_announcements(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def announce(criterion, ok, detail):
    line = "\nCRITERION %2d: %s - %s" % (criterion, "PASS" if ok else "FAIL", detail)
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


# ---------------------------------------------------------------------------
# shared end-to-end run (criteria 7 and 9)

SYNTH_CFG = SyntheticPairConfig(K=4, n_per_domain=2000, spread=0.45,
                                rotation_deg=30.0, radius=2.0, seed=0)
SEEDS = (0, 1, 2, 3, 4)


def synth_train_config(seed, variant):
    return TrainConfig(K=4, t_max=60, t_s=10, gamma1=0.02, gamma2=0.001,
                       batch_size=128, hidden=32, d_g=16, lambda_gain=10.0,
                       seed=seed, variant=variant)


def final_target_acc(src, tgt, variant, seed):
    """The last epoch's target accuracy of one (variant, seed) run; at module
    level, so that a spawned worker can import it."""
    source = src.to_complementary(np.random.default_rng([seed, 7]))
    result = train_clarinet(source, tgt.unlabeled(),
                            synth_train_config(seed, variant), eval_data=tgt)
    return result.records[-1].target_acc


@pytest.fixture(scope="module")
def synthetic_runs():
    # the runs share no state, so two spawned workers train them; each
    # starts with one OpenBLAS thread, which leaves these runs' bits as they
    # are and stops a second thread from spinning beside the other worker
    src, tgt = make_synthetic_pair(SYNTH_CFG)
    t0 = time.perf_counter()
    variants = ("clarinet", "two-step", "gac", "ablation-ce", "ablation-no-t")
    jobs = [(src, tgt, variant, seed) for variant in variants for seed in SEEDS]
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            accs = pool.starmap(final_target_acc, jobs, chunksize=1)
    finally:
        if threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = threads
    means = {variant: float(np.mean(accs[i * len(SEEDS):(i + 1) * len(SEEDS)]))
             for i, variant in enumerate(variants)}
    return means, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_1_exact_unbiasedness():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for K in (2, 3, 5, 10):
        for _ in range(25):
            m = int(rng.integers(2, 40))
            domain = DiscreteDomain(posteriors=rng.dirichlet(np.ones(K), size=m),
                                    weights=rng.dirichlet(np.ones(m)))
            predictor = rng.dirichlet(np.ones(K), size=m)
            _, _, gap = exact_unbiasedness(domain, predictor)
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10
    announce(1, ok, "worst enumeration gap %.3e over 100 pairs in %.1fs" % (worst, elapsed))
    assert ok


def test_criterion_2_monte_carlo_unbiasedness():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    domain = DiscreteDomain(posteriors=rng.dirichlet(np.ones(4), size=12),
                            weights=rng.dirichlet(np.ones(12)))
    predictor = rng.dirichlet(np.ones(4), size=12)
    _, _, z = monte_carlo_unbiasedness(domain, predictor, 100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = abs(z) < 4.0 and elapsed < 30
    announce(2, ok, "|z| = %.3f at n=1e5 in %.1fs" % (abs(z), elapsed))
    assert ok


def test_criterion_3_gradient_audit():
    t0 = time.perf_counter()
    report = gradcheck_suite(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(report.values())
    ok = worst < 1e-4 and elapsed < 60
    announce(3, ok, "max relative error %.3e across %d checks in %.1fs"
             % (worst, len(report), elapsed))
    assert ok


def test_criterion_4_transition_matrix_algebra():
    worst_inv = 0.0
    worst_rec = 0.0
    rng = np.random.default_rng(2)
    for K in (2, 3, 5, 10, 37, 100):
        tm = transition_matrix(K)
        worst_inv = max(worst_inv, np.abs(tm.Q @ tm.Qinv - np.eye(K)).max())
        eta = rng.dirichlet(np.ones(K), size=20)
        eta_bar = eta @ tm.Q.T
        rec = recover_posterior(eta_bar)
        worst_rec = max(worst_rec, np.abs(rec - eta_bar @ tm.Qinv.T).max(),
                        np.abs(rec - eta).max())
    ok = worst_inv < 1e-12 and worst_rec < 1e-12
    announce(4, ok, "Q*Qinv deviation %.2e, posterior recovery deviation %.2e (K up to 100)"
             % (worst_inv, worst_rec))
    assert ok


def test_criterion_5_temperature_map_properties():
    rng = np.random.default_rng(3)
    pts = rng.dirichlet(np.ones(5), size=10_000)
    half = scatter_map(Tensor(pts), 0.5).data
    simplex_ok = (np.all(half >= 0)
                  and np.abs(half.sum(axis=1) - 1.0).max() < 1e-12)
    argmax_ok = np.array_equal(half.argmax(axis=1), pts.argmax(axis=1))
    ident_ok = np.abs(scatter_map(Tensor(pts), 1.0).data - pts).max() < 1e-12
    sharp = scatter_map(Tensor(np.array([[0.7, 0.3]])), 0.1).data
    onehot_ok = sharp.max() > 0.999
    ok = simplex_ok and argmax_ok and ident_ok and onehot_ok
    announce(5, ok, "simplex %s, argmax %s, l=1 identity %s, one-hot limit %.5f"
             % (simplex_ok, argmax_ok, ident_ok, sharp.max()))
    assert ok


def test_criterion_6_training_mechanics(tmp_path):
    cfg = SyntheticPairConfig(K=4, n_per_domain=400, spread=0.45,
                              rotation_deg=30.0, seed=0)
    src, tgt = make_synthetic_pair(cfg)
    source = src.to_complementary(np.random.default_rng([0, 7]))
    config = TrainConfig(K=4, t_max=6, t_s=3, gamma1=0.02, gamma2=0.001,
                         batch_size=64, seed=0, hidden=16, d_g=8)

    # (a) discriminator parameters untouched through epoch T_s
    snapshots = {}
    init = [p.value.copy() for p in _fresh_triplet(2, config).discriminator_params]
    train_clarinet(source, tgt.unlabeled(), config,
                   epoch_callback=lambda e, t: snapshots.update(
                       {e: [p.value.copy() for p in t.discriminator_params]}))
    frozen_ok = all(np.array_equal(a, b)
                    for e in range(1, config.t_s + 1)
                    for a, b in zip(snapshots[e], init))
    moved_ok = any(not np.array_equal(a, b)
                   for a, b in zip(snapshots[config.t_max], init))

    # (b) ascent fires iff min per-class loss < 0, updating via grad(L_neg) only
    ascent_config = TrainConfig(K=4, t_max=1, t_s=1, gamma1=0.1, batch_size=64,
                                seed=0, hidden=16, d_g=8, momentum=0.0,
                                weight_decay=0.0)
    triplet = _fresh_triplet(2, ascent_config)
    feats = source.features[:64]
    labels = source.comp_labels[:64]
    branch_ok = True
    saw_ascent = False
    for _ in range(150):
        probs = Tensor(predict(triplet, feats))
        expect = total_comp_loss(probs, partition_batch(labels, 4)).data.min() < 0.0
        twin = None
        if expect:
            saw_ascent = True
            # recompute grad(L_neg) on an identical copy before the step
            twin = _fresh_triplet(2, ascent_config)
            for p, q in zip(twin.classifier_params, triplet.classifier_params):
                p.value[...] = q.value
            tape = Tape()
            f = twin.F.forward(tape, twin.G.forward(tape, Tensor(feats)))
            per_class = total_comp_loss(f, partition_batch(labels, 4))
            for p in twin.classifier_params:
                p.zero_grad()
            tape.backward(ad.tsum(per_class * (per_class.data < 0.0)))
            before = [p.value.copy() for p in triplet.classifier_params]
        _, _, ascended = _classifier_step(triplet, feats, labels, ascent_config)
        if ascended != expect:
            branch_ok = False
            break
        if expect:
            for p, b, tp in zip(triplet.classifier_params, before,
                                twin.classifier_params):
                if not np.allclose(p.value - b, ascent_config.gamma1 * tp.grad,
                                   atol=1e-12):
                    branch_ok = False
    branch_ok = branch_ok and saw_ascent

    # (c) fixed seed gives bit-identical metrics, wall-clock column aside
    texts = []
    for name in ("a", "b"):
        res = train_clarinet(source, tgt.unlabeled(), config, eval_data=tgt)
        path = tmp_path / (name + ".csv")
        write_metrics_csv(path, res.records)
        texts.append([line.rsplit(",", 1)[0]
                      for line in path.read_text().splitlines()])
    identical_ok = texts[0] == texts[1]

    ok = frozen_ok and moved_ok and branch_ok and identical_ok
    announce(6, ok, "discriminator frozen %s, ascent branch %s, bit-identical metrics %s"
             % (frozen_ok and moved_ok, branch_ok, identical_ok))
    assert ok


def test_criterion_7_synthetic_end_to_end(synthetic_runs):
    means, elapsed = synthetic_runs
    gap = means["clarinet"] - means["gac"]
    ordering = means["clarinet"] > means["two-step"] > means["gac"]
    ok = ordering and gap >= 0.05 and elapsed < 600
    announce(7, ok, "adversarial %.4f > two-step %.4f > ascent-only %.4f, gap %.1f pts, %.0fs"
             % (means["clarinet"], means["two-step"], means["gac"], 100 * gap, elapsed))
    assert ok


IDX_DIR = Path(__file__).resolve().parent.parent / "data" / "digits"
IDX_FILES = ("mnist-train-images-idx3-ubyte", "mnist-train-labels-idx1-ubyte",
             "usps-train-images-idx3-ubyte", "usps-train-labels-idx1-ubyte")


def test_criterion_8_scaled_digit_task():
    paths = [IDX_DIR / f for f in IDX_FILES]
    if not all(p.exists() for p in paths):
        announce(8, True, "SKIPPED with notice: no IDX digit files under %s" % IDX_DIR)
        pytest.skip("digit IDX files not supplied locally; criterion skipped with notice")
    t0 = time.perf_counter()
    src = load_idx(paths[0], paths[1], name="digits-source")
    tgt = load_idx(paths[2], paths[3], name="digits-target")
    keep = np.random.default_rng(0).permutation(len(src))[:5000]
    from clarinet.data import LabeledDataset
    src = LabeledDataset(src.features[keep], src.labels[keep], K=src.K)
    accs = {"clarinet": [], "gac": []}
    for variant in accs:
        for seed in (0, 1, 2):
            source = src.to_complementary(np.random.default_rng([seed, 7]))
            config = TrainConfig(K=10, t_max=100, t_s=5, gamma1=5e-5,
                                 gamma2=0.005, batch_size=128, seed=seed,
                                 variant=variant)
            result = train_clarinet(source, tgt.unlabeled(), config,
                                    eval_data=tgt)
            accs[variant].append(result.records[-1].target_acc)
    gap = np.mean(accs["clarinet"]) - np.mean(accs["gac"])
    elapsed = time.perf_counter() - t0
    ok = gap >= 0.05 and elapsed < 2700
    announce(8, ok, "digit transfer gap %.1f pts in %.0fs" % (100 * gap, elapsed))
    assert ok


def test_criterion_9_ablation_collapse(synthetic_runs):
    means, _ = synthetic_runs
    ce_ok = means["ablation-ce"] < 2.0 * (1.0 / 4.0)
    between_ok = means["ablation-ce"] < means["ablation-no-t"] < means["clarinet"]
    ok = ce_ok and between_ok
    announce(9, ok, "plain-CE ablation %.4f < 0.5; no-sharpening ablation %.4f strictly "
             "between it and the full method %.4f"
             % (means["ablation-ce"], means["ablation-no-t"], means["clarinet"]))
    assert ok


def test_criterion_10_negative_risk_correction():
    cfg = SyntheticPairConfig(K=4, n_per_domain=40, spread=0.2,
                              rotation_deg=0.0, seed=3)
    src, _ = make_synthetic_pair(cfg)
    source = src.to_complementary(np.random.default_rng(3))

    def run(correction):
        config = TrainConfig(K=4, t_max=80, t_s=80, gamma1=0.1, batch_size=40,
                             seed=3, hidden=32, d_g=16,
                             correction_enabled=correction)
        return train_clarinet(source, None, replace(config, variant="gac"))

    corrected = run(True)
    ascents = sum(r.ascent_steps for r in corrected.records)
    bounded = min(r.comp_loss for r in corrected.records)
    uncorrected = run(False)
    diverged = min(r.comp_loss for r in uncorrected.records)
    ok = ascents >= 1 and bounded > -10.0 and diverged < -10.0
    announce(10, ok, "%d ascent steps, corrected loss floor %.2f > -10, "
             "uncorrected floor %.2f < -10" % (ascents, bounded, diverged))
    assert ok
