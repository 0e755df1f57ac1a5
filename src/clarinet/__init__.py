"""Complementary-label adversarial domain adaptation, desk scale.

Learns a target-domain classifier from complementary-label source data and
unlabeled target data, with a gradient-ascent complementary baseline, a
two-step pseudo-label baseline, two ablations, and standalone mathematical
verification oracles.
"""

from .autodiff import Parameter, Tape, Tensor, grad_reverse, outer_flatten
from .complabel import (ComplementaryDataset, TransitionMatrix,
                        generate_complementary, partition_batch,
                        recover_posterior, transition_matrix)
from .data import (LabeledDataset, SyntheticPairConfig, UnlabeledDataset,
                   batches, load_idx, make_synthetic_pair)
from .losses import (adversarial_loss, entropy_weight, scatter_map,
                     total_comp_loss)
from .models import (NetworkSpec, NetworkTriplet, build_triplet,
                     conditional_feature, default_specs, load_checkpoint,
                     predict, pseudo_label, save_checkpoint)
from .train import (MetricsRecord, TrainConfig, TrainResult, evaluate,
                    lambda_schedule, sgd_step, train_clarinet)
from .verify import (DiscreteDomain, exact_unbiasedness, gradcheck_suite,
                     monte_carlo_unbiasedness, run_suite)

__version__ = "0.1.0"
