"""Complementary-label machinery: the class-transition matrix and its closed-form
inverse, uniform complementary-label generation, posterior recovery, and the
per-batch label check.

Labels are 1-based throughout ({1..K}), matching the dataset convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


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
        self.features = np.asarray(self.features, dtype=np.float64)
        self.comp_labels = np.asarray(self.comp_labels, dtype=np.int64)
        if self.K < 2:
            raise ContractError("ComplementaryDataset requires K >= 2")
        if len(self.comp_labels) < 1:
            raise ContractError("dataset %r is empty" % self.name)
        if self.comp_labels.min() < 1 or self.comp_labels.max() > self.K:
            raise ContractError("complementary labels out of range {1..%d}" % self.K)
        if self._true_labels is not None:
            self._true_labels = np.asarray(self._true_labels, dtype=np.int64)
            if np.any(self._true_labels == self.comp_labels):
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
    if K < 2:
        raise ContractError("generate_complementary requires K >= 2")
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if true_labels.min() < 1 or true_labels.max() > K:
        raise ContractError("true labels out of range {1..%d}" % K)
    # offset in {1..K-1} past the true label, wrapped, skips the true class exactly
    offsets = rng.integers(1, K, size=len(true_labels))
    comp = (true_labels - 1 + offsets) % K + 1
    return ComplementaryDataset(features=np.asarray(features, dtype=np.float64),
                                comp_labels=comp, K=K, name=name,
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
    """A minibatch's complementary labels as int64, checked: at least one,
    each in {1..K}."""
    comp_labels = np.asarray(comp_labels, dtype=np.int64)
    if len(comp_labels) == 0:
        raise ContractError("partition_batch got an empty minibatch")
    if comp_labels.min() < 1 or comp_labels.max() > K:
        raise ContractError("labels out of range {1..%d}" % K)
    return comp_labels
