"""Compare two checkouts with the benchmark, in alternating pairs of runs.

    python3 tools/bench_pairs.py --base ../parent --change . --pairs 10 \
        --seconds 40 --out BENCH_6.json

Each checkout (a git clone, or any directory holding ``perfbench/`` and
``src/``) runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in its own directory, for every workload in ``WORKLOADS``.  Pair i runs seed
i on both sides, the base first on even pairs and the change first on odd
ones, so a drift in the machine's speed falls on both sides alike.  Each side
is named by ``git describe --always --dirty`` (its commit, marked ``-dirty``
when the tree has local edits), or by its directory name outside git.  The
output JSON gives, per workload and end-to-end metric, each side's median
and quartiles over the pairs, the change of the medians, and the number of
pairs the change won, plus each run's raw numbers, digests and failures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("synth-k4", "idx-k10", "oracles")


def label(checkout: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.resolve().name


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its detail and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds * 10 + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s in %s exited %d: %s"
                           % (" ".join(cmd), checkout, proc.returncode, proc.stderr[-2000:]))
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(pairs: list, better: dict) -> dict:
    """Per-metric statistics over the pairs of one workload."""
    metrics = {}
    for name, direction in better.items():
        base = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        b, c = quartiles(base), quartiles(change)
        metrics[name] = {
            "unit": pairs[0]["base"]["result"]["metrics"][name]["unit"],
            "better": direction,
            "base": b,
            "change": c,
            "median_change_pct": 100.0 * (c["median"] - b["median"]) / b["median"],
            "pair_wins": int(sum(sign * (y - x) > 0 for x, y in zip(base, change))),
            "base_iqr_over_median": (b["q3"] - b["q1"]) / b["median"],
        }
    return metrics


def side_record(run: dict) -> dict:
    res, detail = run["result"], run["detail"]
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "digests": detail.get("digests"),
            "problems": detail.get("problems"),
            "metrics": {k: v["value"] for k, v in res["metrics"].items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, type=Path, help="checkout measured as before")
    p.add_argument("--change", required=True, type=Path, help="checkout measured as after")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    for checkout in (args.base, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            p.error("%s has no perfbench/run.py" % checkout)
    with open(args.change / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    report = {"base": label(args.base), "change": label(args.change), "pairs": args.pairs,
              "seconds": args.seconds,
              "order": "base first on even pairs, change first on odd pairs",
              "workloads": {}}
    for workload in WORKLOADS:
        pairs = []
        for seed in range(args.pairs):
            sides = ("base", "change") if seed % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s %.4g" % (side, pair[side]["result"]["metrics"]["samples_per_s"]["value"])
                for side in ("base", "change"))), file=sys.stderr, flush=True)
        report["env"] = pairs[0]["change"]["detail"].get("env")
        report["workloads"][workload] = {
            "metrics": summarize(pairs, better),
            "digests_equal": all(p["base"]["detail"]["digests"] == p["change"]["detail"]["digests"]
                                 for p in pairs),
            "runs": [{"seed": p["seed"], "first": p["first"],
                      "base": side_record(p["base"]), "change": side_record(p["change"])}
                     for p in pairs],
        }
        # written after every workload, so a long comparison leaves partial results
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
