"""The clarinet benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload synth-k4 --seed 0 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

- ``synth-k4``: ``train_clarinet`` on the criterion-7 synthetic K=4 setup;
- ``idx-k10``: ``train_clarinet`` with default rates and architecture on a
  generated K=10, 28x28 two-domain task, round-tripped through IDX files;
- ``oracles``: repeated ``clarinet verify all`` over consecutive seeds.

A run sets the workload up, then repeats whole units of work (a full training
run, or one CLI call) while another unit still fits in ``--seconds``.  With
``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` each unit is run untraced and then traced, and the last line
holds the per-layer metrics from the traced units.  Every unit's outputs are
checked; a unit that raises or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"
# The machine's speed drifts over seconds, so set-up is sampled in slots spread
# over the run: a slot before the first unit and then whenever 1/SETUP_SLOTS of
# the run has passed.  A slot repeats the set-up until SETUP_SLOT_S seconds or
# SETUP_SLOT_MAX repeats; setup_s is the median of every repeat.
SETUP_SLOTS, SETUP_SLOT_S, SETUP_SLOT_MAX = 8, 0.05, 25

# criterion 7 of the acceptance suite: data, rates and architecture unchanged
SYNTH_DATA = dict(K=4, n_per_domain=2000, spread=0.45, rotation_deg=30.0,
                  radius=2.0, seed=0)
SYNTH_TRAIN = dict(K=4, t_max=60, t_s=10, gamma1=0.02, gamma2=0.001,
                   batch_size=128, hidden=32, d_g=16, lambda_gain=10.0)
# Unit i of run s trains seed 5*s + i % 5, as criterion 7 averages five
# seeds: some seeds end near chance (31 ends at 0.2445), so the accuracy floor
# applies to the median over the seeds a run trained.
SYNTH_SEED_WINDOW = 5
SYNTH_ACC_FLOOR = 0.5          # chance is 0.25

IDX_K, IDX_SIDE, IDX_N = 10, 28, 1280
IDX_TRAIN = dict(K=IDX_K, t_max=50, t_s=5)   # default rates and architecture

# calls of run s cycle through seeds s*20 .. s*20+19, so the mix of oracle
# inputs does not depend on how many calls fit in the run
ORACLE_SEED_WINDOW = 20


@dataclasses.dataclass
class Unit:
    """One unit of work: a full training run, or one ``verify all`` call."""

    seconds: float             # wall time of the unit
    steps: list                # epoch times, or the call time
    samples: int               # source samples through the classifier step, or 1 call
    digest: str                # of the outputs, wall times excluded
    target_acc: float = float("nan")   # final epoch of a training run
    inputs: int = 0            # units with equal inputs must give equal digests
    iterations: int = 0
    ascents: int = 0
    problems: list = dataclasses.field(default_factory=list)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# training workloads


@dataclasses.dataclass
class TrainInputs:
    runs: list                 # (complementary source, TrainConfig), cycled by unit
    target: object
    eval_data: object


def synth_setup(seed, workdir):
    from clarinet import data, train
    src, tgt = data.make_synthetic_pair(data.SyntheticPairConfig(**SYNTH_DATA))
    runs = []
    for s in range(SYNTH_SEED_WINDOW * seed, SYNTH_SEED_WINDOW * (seed + 1)):
        runs.append((src.to_complementary(np.random.default_rng([s, 7])),
                     train.TrainConfig(seed=s, **SYNTH_TRAIN)))
    return TrainInputs(runs, tgt.unlabeled(), tgt)


def idx_domains(seed):
    """Two K=10 28x28 domains: each class is a blob of three Gaussian strokes;
    the target shifts the strokes right by three pixels and dims them."""
    from clarinet.data import LabeledDataset
    rng = np.random.default_rng([seed, 28])
    yy, xx = np.mgrid[0:IDX_SIDE, 0:IDX_SIDE]
    centres = rng.uniform(6.0, IDX_SIDE - 6.0, size=(IDX_K, 3, 2, 1, 1))
    d2 = (yy - centres[:, :, 0]) ** 2 + (xx - centres[:, :, 1]) ** 2
    protos = np.exp(-d2 / (2 * 2.5 ** 2)).sum(axis=1)
    protos /= protos.max(axis=(1, 2), keepdims=True)

    def domain(shift, gain, name):
        labels = rng.permutation(np.repeat(np.arange(1, IDX_K + 1), IDX_N // IDX_K))
        images = np.roll(protos[labels - 1], shift, axis=2) * gain
        images += rng.normal(0.0, 0.1, size=images.shape)
        return LabeledDataset(np.clip(images, 0.0, 1.0).reshape(IDX_N, -1), labels,
                              K=IDX_K, name=name)

    return domain(0, 1.0, "idx-source"), domain(3, 0.7, "idx-target")


def idx_setup(seed, workdir):
    from clarinet import data, train
    loaded = []
    for ds in idx_domains(seed):
        images = os.path.join(workdir, ds.name + "-images-idx3-ubyte")
        labels = os.path.join(workdir, ds.name + "-labels-idx1-ubyte")
        data.write_idx(images, labels, ds, IDX_SIDE, IDX_SIDE)
        loaded.append(data.load_idx(images, labels, name=ds.name))
    src, tgt = loaded
    source = src.to_complementary(np.random.default_rng([seed, 7]))
    return TrainInputs([(source, train.TrainConfig(seed=seed, **IDX_TRAIN))],
                       tgt.unlabeled(), tgt)


def check_records(records, config):
    """Output checks on one training run's metrics records."""
    problems = []
    if [r.epoch for r in records] != list(range(1, config.t_max + 1)):
        problems.append("expected epochs 1..%d" % config.t_max)
    for r in records:
        for name, value in dataclasses.asdict(r).items():
            if name == "adv_loss" and r.epoch <= config.t_s:
                ok = math.isnan(value)          # no adversary yet, by design
            else:
                ok = math.isfinite(value)
            if not ok:
                problems.append("epoch %d: %s = %r" % (r.epoch, name, value))
    return problems


def records_digest(records) -> str:
    rows = []
    for r in records:
        row = dataclasses.asdict(r)
        del row["seconds"]
        rows.append({k: v.hex() if isinstance(v, float) else v for k, v in row.items()})
    return _digest(rows)


def train_unit(inputs, index, tracer=None):
    from clarinet import train
    marks = [time.perf_counter()]

    def on_epoch(epoch, _triplet):
        marks.append(time.perf_counter())
        if tracer is not None:
            tracer.unit = epoch + 1

    if tracer is not None:
        tracer.unit = 1
    key = index % len(inputs.runs)
    source, config = inputs.runs[key]
    result = train.train_clarinet(source, inputs.target, config,
                                  eval_data=inputs.eval_data, epoch_callback=on_epoch)
    records = result.records
    n_src = len(source)
    batch = config.batch_size
    return Unit(seconds=marks[-1] - marks[0], steps=list(np.diff(marks)),
                samples=sum(min(r.iterations * batch, n_src) for r in records),
                digest=records_digest(records),
                target_acc=records[-1].target_acc if records else float("nan"),
                iterations=sum(r.iterations for r in records),
                inputs=key, ascents=sum(r.ascent_steps for r in records),
                problems=check_records(records, config))


# ---------------------------------------------------------------------------
# oracles workload


def oracles_setup(seed, workdir):
    """A cold start of the CLI module, which every ``clarinet verify`` pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import clarinet.cli"], env=env,
                   cwd=str(ROOT), check=True, timeout=60)
    return seed * ORACLE_SEED_WINDOW


def oracles_unit(base_seed, index, tracer=None):
    from clarinet import cli
    argv = ["verify", "all", "--seed", str(base_seed + index % ORACLE_SEED_WINDOW)]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    problems = [] if code == 0 else ["exit code %r" % code]
    try:
        report = json.loads(out.getvalue())
        if not report["passed"]:
            problems.append("failed checks: %s"
                            % [c["check"] for c in report["checks"] if not c["pass"]])
    except (ValueError, KeyError, TypeError) as exc:
        problems.append("unreadable report: %r" % exc)
    return Unit(seconds=seconds, steps=[seconds], samples=1,
                digest=_digest(out.getvalue()), inputs=index % ORACLE_SEED_WINDOW,
                problems=problems)


# name: (set-up, unit, floor on the median final target accuracy or None)
WORKLOADS = {
    "synth-k4": (synth_setup, train_unit, SYNTH_ACC_FLOOR),
    "idx-k10": (idx_setup, train_unit, None),
    "oracles": (oracles_setup, oracles_unit, None),
}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Units attempted and failed, and every problem found (run-level ones too)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, run_unit, state, index, units, tracer=None):
        """Run one unit; an exception or a failed output check counts it failed."""
        self.attempted += 1
        try:
            unit = run_unit(state, index, tracer)
        except Exception as exc:        # the benchmark reports, then carries on
            self.failed += 1
            self.problems.append("unit %d raised %s: %s"
                                 % (self.attempted, type(exc).__name__, exc))
            return None
        units.append(unit)
        if unit.problems:
            self.failed += 1
            self.problems.extend("unit %d: %s" % (self.attempted, p)
                                 for p in unit.problems)
        return unit


def check_run(units, tally, acc_floor):
    """Units run on equal inputs must give equal outputs, and the median final
    target accuracy over the distinct inputs must reach the floor."""
    digests, accs = {}, {}
    for u in units:
        digests.setdefault(u.inputs, set()).add(u.digest)
        accs[u.inputs] = u.target_acc
    if any(len(d) > 1 for d in digests.values()):
        tally.problems.append("units on equal inputs gave different outputs")
    if acc_floor is None:
        return
    median = percentile(list(accs.values()), 50)
    if not median >= acc_floor:
        tally.problems.append("median target_acc %.4f below floor %.2f over %s"
                              % (median, acc_floor, sorted(accs.values())))


def unit_indices(seconds):
    """Indices of the units to run: always one, then another while one more of
    the average length so far still ends within ``seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return


def percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None when not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure(workload, seed, seconds, workdir):
    setup, run_unit, acc_floor = WORKLOADS[workload]
    setup_times = []

    def setup_slot():
        slot_start = time.perf_counter()
        for _ in range(SETUP_SLOT_MAX):
            t0 = time.perf_counter()
            inputs = setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            if time.perf_counter() - slot_start >= SETUP_SLOT_S:
                break
        return inputs, time.perf_counter()

    state, last_slot = setup_slot()
    units, tally = [], Tally()
    for index in unit_indices(seconds):
        tally.attempt(run_unit, state, index, units)
        if time.perf_counter() - last_slot >= seconds / SETUP_SLOTS:
            _, last_slot = setup_slot()
    check_run(units, tally, acc_floor)

    steps = [s for u in units for s in u.steps]
    metrics = {
        "setup_s": (float(np.median(setup_times)), "s"),
        # median over units, so a slow spell of the machine that spans a
        # minority of them does not move it
        "samples_per_s": (percentile([u.samples / u.seconds for u in units], 50), "1/s"),
        "epoch_s_p50": (percentile(steps, 50), "s"),
        "epoch_s_p80": (percentile(steps, 80), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"units": len(units), "steps": len(steps),
              "digests": sorted({u.digest for u in units})}
    if workload == "oracles":
        detail.update(suite_s_p50=metrics["epoch_s_p50"][0],
                      suite_s_p80=metrics["epoch_s_p80"][0])
    else:                               # per training seed of the run
        detail.update(target_acc=sorted({u.inputs: u.target_acc for u in units}.items()))
    return metrics, tally, detail


def measure_traced(workload, seed, seconds, workdir):
    from spans import Tracer
    setup, run_unit, _ = WORKLOADS[workload]
    tracer = Tracer()
    tracer.install()
    try:
        state = setup(seed, workdir)
    finally:
        tracer.uninstall()

    # Every pair runs the first unit's inputs, so per-unit counts repeat
    # exactly for a seed.  The accuracy floor needs several training seeds,
    # so it is checked by untraced runs only.
    plain, traced, tally = [], [], Tally()
    pair_seconds = []          # (untraced, traced) wall time of each pair
    for index in unit_indices(seconds):
        before = tally.attempt(run_unit, state, 0, plain)
        if before is None:
            continue
        tracer.install()
        tracer.unit = index
        try:
            after = tally.attempt(run_unit, state, 0, traced, tracer)
        finally:
            tracer.uninstall()
        if after is None:
            continue
        pair_seconds.append((before.seconds, after.seconds))
        # a training digest covers every record field but wall time,
        # target_acc included
        if after.digest != before.digest:
            tally.problems.append("pair %d: tracing changed the outputs" % index)
    check_run(plain + traced, tally, None)
    leftover = Tracer.leftover_wrappers()
    if leftover:
        tally.problems.append("tracing wrappers left installed: %s" % leftover)

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / ("%s-seed%d.npz" % (workload, seed)))
    metrics = layer_metrics(tracer, traced, pair_seconds)
    detail = {"units": len(traced), "spans": len(tracer.spans),
              "digests": sorted({u.digest for u in traced})}
    return metrics, tally, detail


def layer_metrics(tracer, traced, pair_seconds):
    from spans import AUTODIFF_OPS, FORWARD_BY_HEAD, FUNCTIONS
    setup_spans = ("data.make_synthetic_pair", "data.write_idx", "data.load_idx")
    calls, incl, self_s, out_bytes = tracer.totals()
    n = max(len(traced), 1)
    iters = sum(u.iterations for u in traced)
    per_iter = iters if iters else n    # an oracles "iteration" is one call
    op_names = ["autodiff." + op for op in AUTODIFF_OPS]
    m = {}
    for name in [span for _, _, span in FUNCTIONS if span not in setup_spans] + [
            "autodiff.backward", *FORWARD_BY_HEAD.values()]:
        m[name + ".calls"] = (calls[name] / n, "count")
        m[name + ".s"] = (incl[name] / n, "s")
    for name in ("losses.total_comp_loss", "train.train_clarinet", "cli.main"):
        m[name + ".self_s"] = (self_s[name] / n, "s")
    for name in setup_spans:            # from the one traced set-up
        m[name + ".s"] = (incl[name], "s")
    m["autodiff.ops_per_iter"] = (sum(calls[o] for o in op_names) / per_iter, "count")
    m["autodiff.out_mb_per_iter"] = (
        sum(out_bytes[o] for o in op_names) / per_iter / 1e6, "MB")
    m["train.iters"] = (iters / n, "count")
    m["train.ascent_ratio"] = (
        sum(u.ascents for u in traced) / iters if iters else 0.0, "ratio")
    m["train.target_acc"] = (traced[0].target_acc if traced and iters else 0.0, "ratio")
    # traced samples_per_s / untraced samples_per_s over the same units
    plain_s = sum(p for p, _ in pair_seconds)
    traced_s = sum(t for _, t in pair_seconds)
    m["trace.samples_per_s_ratio"] = (plain_s / traced_s if traced_s else float("nan"),
                                      "ratio")
    return m


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "clarinet" / "__init__.py").is_file():
        print("clarinet sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = measure_traced if args.trace else measure
        metrics, tally, detail = run(args.workload, args.seed, args.seconds, workdir)
    expected = declared_metrics(args.trace)
    if set(metrics) != expected:
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(metrics) ^ expected))

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=tally.problems[:20],
                  fail_ratio=tally.failed / tally.attempted,
                  env={"nproc": len(os.sched_getaffinity(0)),
                       "numpy": np.__version__, "blas_threads": blas_threads(),
                       "python": sys.version.split()[0]})
    print(json.dumps(detail))
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
