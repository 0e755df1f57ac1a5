"""Config-driven command line: ``prepare`` complementary datasets, ``train``
experiments across variants and seeds, ``verify`` the math oracles, and
``eval`` a saved model.

Precedence is flags > config file > defaults; every output embeds the fully
resolved configuration so a run is reproducible from its artifacts alone.
Exit codes: 0 success, 1 verification/assertion failure, 2 usage or config error
or a diverged (non-finite) run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .complabel import ComplementaryDataset
from .data import (LabeledDataset, SyntheticPairConfig, UnlabeledDataset,
                   load_idx, make_synthetic_pair, read_csv, write_csv)
from .errors import ContractError, FormatError, NonFiniteValue
from .models import load_checkpoint, save_checkpoint
from .train import (TrainConfig, evaluate, train_variant, write_metrics_csv)
from .verify import report_json, run_suite

TRAIN_DEFAULTS = {
    "variant": "clarinet", "gamma1": 5e-5, "gamma2": 0.005, "epochs": 100,
    "ts": 5, "batch": 128, "l": 0.5, "momentum": 0.9, "weight_decay": 5e-5,
    "lambda_gain": 10.0, "hidden": 128, "d_g": 64, "correction_enabled": True,
    "seeds": [0], "out": "runs",
}


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _env_seed():
    """The CLARINET_SEED environment variable as an int, 0 when unset."""
    raw = os.environ.get("CLARINET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ContractError("CLARINET_SEED must be an integer, got %r" % raw) from None


def _require_task(task):
    if not isinstance(task, dict):
        raise ContractError("config needs a 'task' object, got %r" % (task,))
    return task


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite number; an int may stand for a float."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _check_value(key, value):
    """A resolved value must have its default's type; an int may stand for a
    float.  Seeds are a non-empty list of ints."""
    default = TRAIN_DEFAULTS[key]
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
        raise ContractError("config key %s must be %s, got %r" % (key, kind, value))


def _resolve(config_file, args, keys):
    """flags > config file > defaults; a config key outside TRAIN_DEFAULTS and
    ``task`` is an error rather than silently ignored, and so is a value of
    the wrong type."""
    known = set(TRAIN_DEFAULTS) | {"task"}
    if not isinstance(config_file, dict):
        raise ContractError("config file must hold a JSON object")
    unknown = sorted(set(config_file) - known)
    if unknown:
        raise ContractError("unknown config keys %s; known keys are %s"
                            % (", ".join(unknown), ", ".join(sorted(known))))
    resolved = dict(TRAIN_DEFAULTS)
    resolved.update(config_file)
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None and val != []:
            resolved[key] = val
    for key in TRAIN_DEFAULTS:
        _check_value(key, resolved[key])
    return resolved


def _train_config(resolved, seed) -> TrainConfig:
    return TrainConfig(
        gamma1=resolved["gamma1"], gamma2=resolved["gamma2"],
        t_max=resolved["epochs"], t_s=resolved["ts"],
        batch_size=resolved["batch"], K=resolved["K"], l=resolved["l"],
        momentum=resolved["momentum"], weight_decay=resolved["weight_decay"],
        lambda_gain=resolved["lambda_gain"], seed=seed,
        variant=resolved["variant"], hidden=resolved["hidden"],
        d_g=resolved["d_g"], correction_enabled=resolved["correction_enabled"])


# ---------------------------------------------------------------------------
# task loading


def _is_pair(value):
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))


# synthetic task field: (check, what the check wants)
_SYNTHETIC_FIELDS = {
    "K": (_is_int, "an integer"),
    "n_per_domain": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "spread": (_is_number, "a finite number"),
    "rotation_deg": (_is_number, "a finite number"),
    "radius": (_is_number, "a finite number"),
    "translation": (_is_pair, "a list of two finite numbers"),
}


def _synthetic_config(task) -> SyntheticPairConfig:
    """The synthetic task's generator config, for both ``prepare`` and
    ``train``; a field that is given must pass its check, and an absent one
    takes the ``SyntheticPairConfig`` default."""
    fields = {}
    for name, (check, kind) in _SYNTHETIC_FIELDS.items():
        if name in task:
            if not check(task[name]):
                raise ContractError("task.%s must be %s, got %r" % (name, kind, task[name]))
            fields[name] = tuple(task[name]) if name == "translation" else task[name]
    return SyntheticPairConfig(**fields)


def _load_task(task, seed):
    """Returns (source ComplementaryDataset, target UnlabeledDataset, eval LabeledDataset)."""
    kind = task.get("type")
    if kind == "synthetic":
        src, tgt = make_synthetic_pair(_synthetic_config(task))
        source = src.to_complementary(np.random.default_rng([seed, 7]))
        return source, tgt.unlabeled(), tgt
    if kind == "idx":
        src = load_idx(task["source_images"], task["source_labels"], name="idx-source")
        tgt = load_idx(task["target_images"], task["target_labels"], name="idx-target")
        n_sub = task.get("subsample")
        if n_sub:
            keep = np.random.default_rng([seed, 11]).permutation(len(src))[:n_sub]
            src = LabeledDataset(src.features[keep], src.labels[keep],
                                 K=src.K, name=src.name)
        source = src.to_complementary(np.random.default_rng([seed, 7]))
        return source, tgt.unlabeled(), tgt
    if kind == "prepared":
        with open(task["manifest"]) as fh:
            manifest = json.load(fh)
        feats, comp = read_csv(task["source_csv"])
        source = ComplementaryDataset(features=feats, comp_labels=comp,
                                      K=manifest["K"], name="prepared")
        tfeats, tlabels = read_csv(task["target_csv"])
        target = UnlabeledDataset(features=tfeats, name="prepared-target")
        eval_data = None
        if tlabels is not None:
            eval_data = LabeledDataset(features=tfeats, labels=tlabels,
                                       K=manifest["K"], name="prepared-eval")
        return source, target, eval_data
    raise ContractError("unknown task type %r" % kind)


# ---------------------------------------------------------------------------
# verbs


def cmd_prepare(args):
    config = _load_config(args.config)
    if not isinstance(config, dict):
        raise ContractError("config file must hold a JSON object")
    task = _require_task(config.get("task"))
    seed = args.seed[0] if args.seed else _env_seed()
    out = Path(args.out or config.get("out", "prepared"))

    if task.get("type") == "synthetic":
        src, tgt = make_synthetic_pair(_synthetic_config(task))
    elif task.get("type") == "idx":
        src = load_idx(task["source_images"], task["source_labels"])
        tgt = load_idx(task["target_images"], task["target_labels"])
    else:
        raise ContractError("prepare supports synthetic and idx tasks")

    source = src.to_complementary(np.random.default_rng(seed))
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "source_comp.csv", source.features, source.comp_labels)
    write_csv(out / "target.csv", tgt.features, tgt.labels)
    # evaluation-only file, kept separate from anything training reads
    write_csv(out / "source_hidden_labels.csv",
              np.zeros((len(source), 0)), source.hidden_true_labels())
    manifest = {
        "K": src.K, "seed": seed, "task": task,
        "source_csv": "source_comp.csv", "target_csv": "target.csv",
        "hidden_labels": {"file": "source_hidden_labels.csv",
                          "evaluation_only": True},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print("prepared %d source and %d target samples in %s" % (len(source), len(tgt), out))
    return 0


def cmd_train(args):
    config = _load_config(args.config)
    resolved = _resolve(config, args,
                        ["variant", "out", "l", "ts", "epochs", "batch"])
    if args.seed:
        resolved["seeds"] = args.seed
    task = _require_task(resolved.get("task"))
    out = Path(resolved["out"])

    accuracies = []
    per_seed = []
    for seed in resolved["seeds"]:
        source, target, eval_data = _load_task(task, seed)
        resolved["K"] = source.K
        tc = _train_config(resolved, seed)
        out.mkdir(parents=True, exist_ok=True)
        if tc.variant == "gac":
            print("variant=gac: target data are ignored (non-transfer baseline)")
        try:
            result = train_variant(tc.variant, source, target, tc, eval_data)
        except Exception:
            print("run failed for seed %d" % seed, file=sys.stderr)
            raise
        csv_path = out / ("%s_seed%d.csv" % (tc.variant, seed))
        write_metrics_csv(csv_path, result.records)
        save_checkpoint(out / ("%s_seed%d.ckpt" % (tc.variant, seed)), result.model)
        final_acc = result.records[-1].target_acc
        accuracies.append(final_acc)
        summary = {"seed": seed, "final_target_acc": final_acc,
                   "metrics_csv": csv_path.name,
                   "pseudo_label_noise": result.extras.get("pseudo_label_noise"),
                   "resolved_config": {k: v for k, v in resolved.items()},
                   }
        with open(out / ("%s_seed%d.json" % (tc.variant, seed)), "w") as fh:
            json.dump(summary, fh, indent=2)
        per_seed.append(summary)
        print("seed %d: final target accuracy %.4f" % (seed, final_acc))

    agg = {"variant": resolved["variant"], "seeds": list(resolved["seeds"]),
           "final_target_acc_mean": float(np.mean(accuracies)),
           "final_target_acc_std": float(np.std(accuracies)),
           "per_seed": [s["final_target_acc"] for s in per_seed],
           "resolved_config": {k: v for k, v in resolved.items()}}
    with open(out / ("%s_aggregate.json" % resolved["variant"]), "w") as fh:
        json.dump(agg, fh, indent=2)
    print("mean %.4f +- %.4f over %d seeds"
          % (agg["final_target_acc_mean"], agg["final_target_acc_std"], len(accuracies)))
    return 0


def cmd_verify(args):
    seed = args.seed[0] if args.seed else _env_seed()
    report = run_suite(args.suite, seed=seed)
    text = report_json(report)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / ("verify_%s.json" % args.suite), "w") as fh:
            fh.write(text)
    return 0 if report["passed"] else 1


def cmd_eval(args):
    triplet = load_checkpoint(args.checkpoint)
    feats, labels = read_csv(args.data)
    if labels is None:
        raise ContractError("evaluation data must carry a label column")
    ds = LabeledDataset(features=feats, labels=labels, K=triplet.K)
    acc = evaluate(triplet, ds)
    print("accuracy %.6f on %d samples" % (acc, len(ds)))
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="clarinet",
                                description="complementary-label adversarial "
                                            "domain adaptation")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, action="append", default=[],
                        help="repeatable; overrides config seeds")
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("prepare", help="generate a complementary-label dataset")
    common(sp)
    sp.set_defaults(fn=cmd_prepare)

    sp = sub.add_parser("train", help="run an experiment per seed")
    common(sp)
    sp.add_argument("--variant", choices=("clarinet", "gac", "two-step",
                                          "ablation-ce", "ablation-no-t"))
    sp.add_argument("--l", type=float, help="scatter temperature")
    sp.add_argument("--ts", type=int, help="adversarial start epoch")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch", type=int)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
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
    except (ContractError, FormatError, FileNotFoundError, KeyError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NonFiniteValue as exc:
        print("run diverged: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
