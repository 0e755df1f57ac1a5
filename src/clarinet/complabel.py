"""Complementary-label machinery: the dataset rule, the class-transition
matrix and its closed-form inverse, uniform complementary-label generation,
posterior recovery, and the per-batch label check.

Labels are 1-based throughout ({1..K}), matching the dataset convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


def check_dataset(name: str, features=None, labels=None, K=None, what: str = "labels"):
    """The dataset rule: n >= 1 rows of n x d float64 ``features`` and one int64 label
    per row in {1..K}, K >= 2, each part checked if given.  Returns both, converted."""
    if K is not None and K < 2:
        raise ContractError("dataset %r: K must be >= 2, got %r" % (name, K))
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ContractError("dataset %r: features not n x d: %s" % (name, features.shape))
    n = len(features) if features is not None else np.size(labels)
    if n < 1:
        raise ContractError("dataset %r is empty" % name)
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ContractError("dataset %r has %d rows, %s %s" % (name, n, what, labels.shape))
        if labels.min() < 1 or labels.max() > K:
            raise ContractError("dataset %r: %s out of range {1..%d}" % (name, what, K))
    return features, labels


@dataclass(frozen=True)
class TransitionMatrix:
    """Linear map Q from true-class posteriors to complementary-class posteriors.

    Q has zero diagonal and 1/(K-1) off-diagonal; its inverse has diagonal
    -(K-2) and off-diagonal 1.
    """

    K: int
    Q: np.ndarray
    Qinv: np.ndarray


@functools.cache
def transition_matrix(K: int) -> TransitionMatrix:
    """The transition matrix for K classes, built once per K; its arrays are
    read-only, since every caller shares them."""
    if K < 2:
        raise ContractError("transition_matrix requires K >= 2, got %r" % K)
    Q = np.full((K, K), 1.0 / (K - 1))
    np.fill_diagonal(Q, 0.0)
    Qinv = np.ones((K, K))
    np.fill_diagonal(Qinv, -(K - 2.0))
    Q.flags.writeable = False
    Qinv.flags.writeable = False
    return TransitionMatrix(K=K, Q=Q, Qinv=Qinv)


@dataclass
class ComplementaryDataset:
    """Features with complementary labels.

    Hidden true labels, when present, are for verification and evaluation only;
    training code must go through ``comp_labels``.  Access them via
    ``hidden_true_labels()`` so the intent is explicit at the call site.
    """

    features: np.ndarray          # n x d
    comp_labels: np.ndarray       # n ints in {1..K}
    K: int
    name: str = ""
    _true_labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # true labels first: generate_complementary draws the others from them
        if self._true_labels is not None:
            self._true_labels = check_dataset(self.name, self.features, self._true_labels,
                                              self.K, "true labels")[1]
        self.features, self.comp_labels = check_dataset(
            self.name, self.features, self.comp_labels, self.K, "complementary labels")
        if self._true_labels is not None and np.any(self._true_labels == self.comp_labels):
            raise ContractError("a complementary label equals its true label")

    def __len__(self):
        return len(self.comp_labels)

    def hidden_true_labels(self) -> np.ndarray:
        """Evaluation-only accessor; raises if the labels were not retained."""
        if self._true_labels is None:
            raise ContractError("this dataset carries no hidden true labels")
        return self._true_labels


def generate_complementary(features, true_labels, K: int, rng: np.random.Generator,
                           name: str = "") -> ComplementaryDataset:
    """Draw one complementary label per sample, uniform over the K-1 wrong classes."""
    features, _ = check_dataset(name, features, K=K)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    # offset in {1..K-1} past the true label, wrapped, skips the true class exactly
    offsets = rng.integers(1, K, size=true_labels.shape)
    comp = (true_labels - 1 + offsets) % K + 1
    return ComplementaryDataset(features=features, comp_labels=comp, K=K, name=name,
                                _true_labels=true_labels)


def recover_posterior(eta_bar: np.ndarray) -> np.ndarray:
    """Invert the complementary posterior: eta_k = 1 - (K-1) * eta_bar_k."""
    eta_bar = np.asarray(eta_bar, dtype=np.float64)
    K = eta_bar.shape[-1]
    if K < 2:
        raise ContractError("recover_posterior requires K >= 2")
    if np.any(eta_bar < -1e-8) or np.any(np.abs(eta_bar.sum(axis=-1) - 1.0) > 1e-8):
        raise ContractError("eta_bar is not on the probability simplex")
    return 1.0 - (K - 1.0) * eta_bar


def partition_batch(comp_labels, K: int) -> np.ndarray:
    """A minibatch's labels as int64, checked by the dataset rule."""
    return check_dataset("minibatch", labels=comp_labels, K=K)[1]
