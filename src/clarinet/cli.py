"""Config-driven command line: ``prepare`` complementary datasets, ``train``
experiments across variants and seeds, ``verify`` the math oracles, and
``eval`` a saved model.

Precedence is flags > config file > defaults; every output embeds the fully
resolved configuration so a run is reproducible from its artifacts alone.
So a run's seeds are each --seed, else the config's ``seeds``, else [0];
``prepare`` and ``verify`` take exactly one.
Exit codes: 0 success, 1 verification/assertion failure, 2 usage or config error
or a diverged (non-finite) run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .complabel import ComplementaryDataset
from .data import (LabeledDataset, SyntheticPairConfig, UnlabeledDataset,
                   load_idx, make_synthetic_pair, read_csv, write_csv)
from .errors import ContractError, FormatError, NonFiniteValue
from .models import load_checkpoint, save_checkpoint
from .train import VARIANTS, TrainConfig, evaluate, train_clarinet, write_metrics_csv
from .verify import run_suite

# the config name of a TrainConfig field, where the two differ
_CONFIG_NAMES = {"t_max": "epochs", "t_s": "ts", "batch_size": "batch"}

# config key -> TrainConfig field, for every field but K, which the task's
# data set, and seed, which takes each entry of seeds in turn
_TRAIN_FIELDS = {_CONFIG_NAMES.get(f.name, f.name): f
                 for f in dataclasses.fields(TrainConfig) if f.name not in ("K", "seed")}

TRAIN_DEFAULTS = {**{key: f.default for key, f in _TRAIN_FIELDS.items()},
                  "seeds": [0], "out": "runs"}


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ContractError("%s is not JSON: %s" % (path, exc)) from None


def _finite(value):
    """``value``, or None where it is missing or not finite: a run without
    target labels has no accuracy, and JSON has no NaN."""
    return value if value is not None and math.isfinite(value) else None


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)


def _check_seed(seed, source):
    """A seed NumPy's generators take: a non-negative integer."""
    if seed < 0:
        raise ContractError("%s must be a non-negative integer, got %r" % (source, seed))


def _seeds(args, seeds, one=False):
    """The seeds of a run: each --seed if any is given, else ``seeds``, the
    resolved config's (checked by ``_resolve``).  A --seed must be a
    non-negative integer, no seed may repeat, and with ``one``, as for
    ``prepare`` and ``verify``, there must be exactly one."""
    seeds, source = (args.seed, "--seed") if args.seed else (seeds, "config key seeds")
    if one and len(seeds) > 1:
        if args.seed:
            raise ContractError("%s takes one --seed, got %d" % (args.verb, len(seeds)))
        raise ContractError("%s takes one seed, got config key seeds %r" % (args.verb, seeds))
    for seed in args.seed:
        _check_seed(seed, "--seed")
    for seed in seeds:
        if seeds.count(seed) > 1:
            raise ContractError("seed %d is given %d times in %s"
                                % (seed, seeds.count(seed), source))
    return seeds


# file fields of the task types that read files
_FILE_FIELDS = {
    "idx": ("source_images", "source_labels", "target_images", "target_labels"),
    "prepared": ("manifest", "source_csv", "target_csv"),
}

# the keys each task type reads, besides "type"
_TASK_KEYS = {
    "synthetic": (*(f.name for f in dataclasses.fields(SyntheticPairConfig)), "subsample"),
    "idx": (*_FILE_FIELDS["idx"], "subsample"),
    "prepared": _FILE_FIELDS["prepared"],
}


def _require_task(task):
    """The config's task must be an object holding only the keys its type
    reads; the file fields of an ``idx`` or ``prepared`` task must each be a
    non-empty string (an integer would be opened as a file descriptor), and
    the fields of a ``synthetic`` task must be valid generator fields.  The
    manifest and the run summaries echo the task, so it must hold only
    finite numbers: strict JSON has no NaN."""
    if not isinstance(task, dict):
        raise ContractError("config needs a 'task' object, got %r" % (task,))
    kind = task.get("type")
    if kind in _TASK_KEYS:
        known = {"type", *_TASK_KEYS[kind]}
        unknown = sorted(set(task) - known)
        if unknown:
            raise ContractError("unknown %s task keys %s; known keys are %s"
                                % (kind, ", ".join(unknown), ", ".join(sorted(known))))
    for name in _FILE_FIELDS.get(kind, ()):
        value = task.get(name)
        if not (isinstance(value, str) and value):
            raise ContractError("task.%s must be a non-empty string, got %r" % (name, value))
    if kind == "synthetic":
        # a non-finite generator field is named by its own message
        _synthetic_config(task)
    try:
        json.dumps(task, allow_nan=False)
    except ValueError:
        raise ContractError("task must hold only finite numbers, got %r" % (task,)) from None


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite number; an int may stand for a float."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _check_type(name, value, default):
    """``value`` if it has the type of ``default``: true or false for a bool,
    an integer for an int, a finite number (an int may stand for it) for a
    float, a string for a str and a non-empty list of integers for a list."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = _is_int(value), "an integer"
    elif isinstance(default, float):
        ok, kind = _is_number(value), "a finite number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:
        ok = isinstance(value, list) and bool(value) and all(map(_is_int, value))
        kind = "a non-empty list of integers"
    if not ok:
        raise ContractError("%s must be %s, got %r" % (name, kind, value))
    return value


def _resolve(args, **defaults):
    """The config of ``prepare`` and ``train``: flags > --config file >
    TRAIN_DEFAULTS, updated by the verb's own ``defaults``.  A key outside
    TRAIN_DEFAULTS and ``task`` is an error rather than silently ignored,
    and so is a value of the wrong type, from the file or from a flag."""
    config = {} if args.config is None else _read_json(args.config)
    if not isinstance(config, dict):
        raise ContractError("config file must hold a JSON object")
    known = set(TRAIN_DEFAULTS) | {"task"}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ContractError("unknown config keys %s; known keys are %s"
                            % (", ".join(unknown), ", ".join(sorted(known))))
    flags = {key: getattr(args, key) for key in TRAIN_DEFAULTS
             if getattr(args, key, None) is not None}
    resolved = dict(TRAIN_DEFAULTS, **defaults)
    for key, value in [*config.items(), *flags.items()]:
        if key != "task":
            value = _check_type("config key " + key, value, TRAIN_DEFAULTS[key])
        resolved[key] = value
    for seed in resolved["seeds"]:
        _check_seed(seed, "a seed in config key seeds")
    _require_task(resolved.get("task"))
    return resolved


def _train_config(resolved, seed) -> TrainConfig:
    return TrainConfig(K=resolved["K"], seed=seed,
                       **{f.name: resolved[key] for key, f in _TRAIN_FIELDS.items()})


# ---------------------------------------------------------------------------
# task loading


def _synthetic_config(task) -> SyntheticPairConfig:
    """The synthetic task's generator config, for both ``prepare`` and
    ``train``; a field that is given must have its default's type, and an
    absent one takes the ``SyntheticPairConfig`` default."""
    return SyntheticPairConfig(**{
        f.name: _check_type("task." + f.name, task[f.name], f.default)
        for f in dataclasses.fields(SyntheticPairConfig) if f.name in task})


def _labelled_pair(task, seed):
    """The complementary source and the labelled target of a synthetic or idx
    task, for both ``prepare`` and ``train``.  ``task.subsample``, when given
    and not null, keeps that many source rows, drawn with ``seed``; the
    complementary labels are drawn from ``default_rng([seed, 7])``."""
    kind = task.get("type")
    if kind == "synthetic":
        src, tgt = make_synthetic_pair(_synthetic_config(task))
    elif kind == "idx":
        src = load_idx(task["source_images"], task["source_labels"], name="idx-source")
        tgt = load_idx(task["target_images"], task["target_labels"], name="idx-target")
        if src.K != tgt.K:
            raise ContractError("idx source and target disagree on K: the source "
                                "labels give K=%d, the target labels K=%d"
                                % (src.K, tgt.K))
    else:
        raise ContractError("unknown task type %r; prepare takes synthetic or idx, "
                            "train also prepared" % (kind,))
    n_sub = task.get("subsample")
    if n_sub is not None:
        if not (_is_int(n_sub) and 1 <= n_sub <= len(src)):
            raise ContractError("task.subsample must be an integer in 1..%d, got %r"
                                % (len(src), n_sub))
        keep = np.random.default_rng([seed, 11]).permutation(len(src))[:n_sub]
        src = LabeledDataset(src.features[keep], src.labels[keep], K=src.K, name=src.name)
    return src.to_complementary(np.random.default_rng([seed, 7])), tgt


def _load_task(task, seed):
    """Returns (source ComplementaryDataset, target UnlabeledDataset, eval LabeledDataset)."""
    if task.get("type") == "prepared":
        manifest = _read_json(task["manifest"])
        K = manifest.get("K") if isinstance(manifest, dict) else None
        if not (_is_int(K) and K >= 2):
            raise ContractError("task.manifest K must be an integer >= 2, got %r" % (K,))
        feats, comp = read_csv(task["source_csv"])
        if comp is None:
            raise FormatError("%s has no label column; a prepared source holds "
                              "its complementary labels there" % task["source_csv"])
        source = ComplementaryDataset(features=feats, comp_labels=comp,
                                      K=K, name="prepared")
        tfeats, tlabels = read_csv(task["target_csv"])
        if tfeats.shape[1] != feats.shape[1]:
            raise FormatError("%s has %d feature columns, the source %s has %d"
                              % (task["target_csv"], tfeats.shape[1],
                                 task["source_csv"], feats.shape[1]))
        target = UnlabeledDataset(features=tfeats, name="prepared-target")
        eval_data = None
        if tlabels is not None:
            eval_data = LabeledDataset(features=tfeats, labels=tlabels,
                                       K=K, name="prepared-eval")
        return source, target, eval_data
    source, tgt = _labelled_pair(task, seed)
    return source, tgt.unlabeled(), tgt


# ---------------------------------------------------------------------------
# verbs


def cmd_prepare(args):
    resolved = _resolve(args, out="prepared")
    task = resolved["task"]
    (seed,) = _seeds(args, resolved["seeds"], one=True)
    out = Path(resolved["out"])

    source, tgt = _labelled_pair(task, seed)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "source_comp.csv", source.features, source.comp_labels)
    write_csv(out / "target.csv", tgt.features, tgt.labels)
    # evaluation-only file, kept separate from anything training reads
    write_csv(out / "source_hidden_labels.csv",
              np.zeros((len(source), 0)), source.hidden_true_labels())
    manifest = {
        "K": source.K, "seed": seed, "task": task,
        "source_csv": "source_comp.csv", "target_csv": "target.csv",
        "hidden_labels": {"file": "source_hidden_labels.csv",
                          "evaluation_only": True},
    }
    _write_json(out / "manifest.json", manifest)
    print("prepared %d source and %d target samples in %s" % (len(source), len(tgt), out))
    return 0


def cmd_train(args):
    resolved = _resolve(args)
    resolved["seeds"] = _seeds(args, resolved["seeds"])
    task = resolved["task"]
    out = Path(resolved["out"])

    accuracies = []
    per_seed = []
    for seed in resolved["seeds"]:
        source, target, eval_data = _load_task(task, seed)
        resolved["K"] = source.K
        tc = _train_config(resolved, seed)
        out.mkdir(parents=True, exist_ok=True)
        if VARIANTS[tc.variant].adversary == "none":
            print("variant=%s: target data are ignored (non-transfer baseline)" % tc.variant)
        try:
            result = train_clarinet(source, target, tc, eval_data)
        except Exception:
            print("run failed for seed %d" % seed, file=sys.stderr)
            raise
        csv_path = out / ("%s_seed%d.csv" % (tc.variant, seed))
        write_metrics_csv(csv_path, result.records)
        save_checkpoint(out / ("%s_seed%d.ckpt" % (tc.variant, seed)), result.model)
        final_acc = result.records[-1].target_acc
        accuracies.append(final_acc)
        summary = {"seed": seed, "final_target_acc": _finite(final_acc),
                   "metrics_csv": csv_path.name,
                   "pseudo_label_noise": _finite(result.extras.get("pseudo_label_noise")),
                   "resolved_config": {k: v for k, v in resolved.items()},
                   }
        _write_json(out / ("%s_seed%d.json" % (tc.variant, seed)), summary)
        per_seed.append(summary)
        print("seed %d: final target accuracy %.4f" % (seed, final_acc))

    mean, std = float(np.mean(accuracies)), float(np.std(accuracies))
    agg = {"variant": resolved["variant"], "seeds": list(resolved["seeds"]),
           "final_target_acc_mean": _finite(mean),
           "final_target_acc_std": _finite(std),
           "per_seed": [s["final_target_acc"] for s in per_seed],
           "resolved_config": {k: v for k, v in resolved.items()}}
    _write_json(out / ("%s_aggregate.json" % resolved["variant"]), agg)
    print("mean %.4f +- %.4f over %d seeds" % (mean, std, len(accuracies)))
    return 0


def cmd_verify(args):
    # verify reads no config, so its one seed is --seed, else 0
    (seed,) = _seeds(args, [0], one=True)
    # an unusable --out fails before the suite runs
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_suite(args.suite, seed=seed)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(Path(args.out) / ("verify_%s.json" % args.suite), "w") as fh:
            fh.write(text)
    return 0 if report["passed"] else 1


def cmd_eval(args):
    triplet = load_checkpoint(args.checkpoint)
    feats, labels = read_csv(args.data)
    if labels is None:
        raise ContractError("evaluation data must carry a label column")
    width = triplet.G.spec.widths[0]
    if feats.shape[1] != width:
        raise FormatError("%s has %d feature columns, the checkpoint's model takes %d"
                          % (args.data, feats.shape[1], width))
    ds = LabeledDataset(features=feats, labels=labels, K=triplet.K, name=str(args.data))
    acc = evaluate(triplet, ds)
    print("accuracy %.6f on %d samples" % (acc, len(ds)))
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="clarinet",
                                description="complementary-label adversarial "
                                            "domain adaptation")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, seed_help):
        sp.add_argument("--seed", type=int, action="append", default=[], help=seed_help)
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("prepare", help="generate a complementary-label dataset")
    sp.add_argument("--config", help="JSON config file")
    common(sp, "seed of the complementary labels and the subsample; given once, "
               "default the config's one seed, else 0")
    sp.set_defaults(fn=cmd_prepare)

    sp = sub.add_parser("train", help="run an experiment per seed")
    sp.add_argument("--config", help="JSON config file")
    common(sp, "repeatable, one run per seed; default the config's seeds, else 0")
    sp.add_argument("--variant", choices=tuple(VARIANTS))
    sp.add_argument("--l", type=float, help="scatter temperature")
    sp.add_argument("--ts", type=int, help="adversarial start epoch")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch", type=int)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, "seed of the oracles' draws; given once, default 0")
    sp.add_argument("suite", choices=("unbiasedness", "gradcheck", "tmap", "all"))
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    sp.add_argument("checkpoint")
    sp.add_argument("data", help="CSV with feature columns and a label column")
    sp.set_defaults(fn=cmd_eval)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ContractError, FormatError, OSError, KeyError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NonFiniteValue as exc:
        print("run diverged: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
