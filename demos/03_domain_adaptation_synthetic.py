"""The full pipeline on a synthetic domain shift.

Setup: four Gaussian clusters on a circle (the source domain); the target
domain is the same layout rotated by 30 degrees.  The source carries only
complementary labels ("not class k"); the target is fully unlabeled.

Three ways to use that data:
  * ascent-only ("gac"):    learn from complementary labels, ignore the target;
  * two-step:               pseudo-label the source with the first model, then
                            run a standard adversarial adaptation on top;
  * one-step ("clarinet"):  train the complementary objective and a conditional,
                            entropy-weighted adversary jointly, coupled through
                            a gradient reversal layer.

The one-step trainer should come out on top, the non-transfer baseline last.
"""

import numpy as np

from clarinet.data import SyntheticPairConfig, make_synthetic_pair
from clarinet.train import TrainConfig, train_clarinet

cfg = SyntheticPairConfig(K=4, n_per_domain=2000, spread=0.45,
                          rotation_deg=30.0, seed=0)
src, tgt = make_synthetic_pair(cfg)
print(__doc__)

SEEDS = (0, 1, 2)
for variant in ("gac", "two-step", "clarinet"):
    accs = []
    for seed in SEEDS:
        source = src.to_complementary(np.random.default_rng([seed, 7]))
        config = TrainConfig(K=4, t_max=60, t_s=10, gamma1=0.02, gamma2=0.001,
                             batch_size=128, hidden=32, d_g=16, seed=seed,
                             variant=variant)
        result = train_clarinet(source, tgt.unlabeled(), config, eval_data=tgt)
        accs.append(result.records[-1].target_acc)
    print("%-10s target accuracy %.4f +- %.4f over %d seeds"
          % (variant, np.mean(accs), np.std(accs), len(SEEDS)))
