"""Final accuracy of every trainer variant on the criterion-7 config over a
range of training seeds.

    python3 tools/seed_sweep.py --first 0 --last 49

Trains each variant in ``train.VARIANTS`` through ``train.train_clarinet``,
on ``replace(config, variant=...)`` of a config with the synth-k4 workload's
rates and architecture (``perfbench/run.py``), on that workload's data, once
per training seed, with the checkout's own ``src/``.  Training seed s draws its complementary labels from
``default_rng([s, 7])``, as the benchmark and the acceptance criteria do.
Per variant and seed it prints the final ``target_acc``, the final
``adv_loss`` and the record digest (the benchmark's, over every record field
but wall time; for two-step, over its second stage).  After each variant it
prints the mean, median and min of the final accuracy, how many seeds end
below the benchmark's accuracy floor, and the median of each benchmark seed
window (benchmark seed w trains seeds 5w .. 5w+4) that lies wholly in the
range.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    """``perfbench/run.py`` of this checkout, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first", type=int, default=0, help="first training seed")
    p.add_argument("--last", type=int, default=49, help="last training seed, included")
    args = p.parse_args(argv)
    if not 0 <= args.first <= args.last:
        p.error("need 0 <= --first <= --last")
    sys.path.insert(0, str(ROOT / "src"))
    from clarinet import data, train

    bench = load_benchmark()
    src, tgt = data.make_synthetic_pair(data.SyntheticPairConfig(**bench.SYNTH_DATA))
    seeds = range(args.first, args.last + 1)
    window = bench.SYNTH_SEED_WINDOW
    for variant in train.VARIANTS:
        accs = {}
        print("%s\nseed  target_acc  adv_loss               digest" % variant)
        for s in seeds:
            config = replace(train.TrainConfig(seed=s, **bench.SYNTH_TRAIN),
                             variant=variant)
            source = src.to_complementary(np.random.default_rng([s, 7]))
            records = train.train_clarinet(source, tgt.unlabeled(), config,
                                           eval_data=tgt).records
            accs[s] = records[-1].target_acc
            print("%4d  %.4f      %-21.17g  %s" % (s, accs[s], records[-1].adv_loss,
                                                 bench.records_digest(records)), flush=True)

        values = np.array(list(accs.values()))
        print("%s: mean %.4f  median %.4f  min %.4f  below %.2f: %d of %d"
              % (variant, values.mean(), np.median(values), values.min(),
                 bench.SYNTH_ACC_FLOOR, int((values < bench.SYNTH_ACC_FLOOR).sum()),
                 len(values)))
        for w in range(args.first // window, args.last // window + 1):
            members = range(window * w, window * (w + 1))
            if all(s in accs for s in members):
                print("%s: window %d (seeds %d-%d): median %.4f"
                      % (variant, w, members[0], members[-1],
                         np.median([accs[s] for s in members])))
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
