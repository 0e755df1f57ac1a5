"""Spent tapes and inference passes are freed by reference counting alone.

A recorded tensor refers to its tape and the tape lists its tensors.  If that
cycle outlived a step, every step's graph would wait for the cyclic garbage
collector, which runs less often the fewer objects a step allocates.  The
tests run with the collector disabled, so anything a cycle keeps alive shows.
"""

import gc
import weakref

import numpy as np
import pytest

import clarinet.autodiff as ad
from clarinet.autodiff import Tape, Tensor
from clarinet.complabel import partition_batch
from clarinet.errors import ContractError
from clarinet.losses import total_comp_loss
from clarinet.models import build_triplet, default_specs, predict
from clarinet.train import TrainConfig, _adversarial_step, _classifier_step


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def live(cls):
    return sum(1 for o in gc.get_objects() if isinstance(o, cls))


def small_triplet():
    return build_triplet(*default_specs(2, 4, d_g=8, hidden=16), seed=0)


def small_batch():
    rng = np.random.default_rng(0)
    return rng.normal(size=(32, 2)), rng.integers(1, 5, size=32)


def record_step(net, feats, labels):
    tape = Tape()
    f = net.F.forward(tape, net.G.forward(tape, Tensor(feats)))
    return tape, ad.tsum(total_comp_loss(f, partition_batch(labels, 4)))


def test_spent_training_tape_is_freed(no_gc):
    net = small_triplet()
    feats, labels = small_batch()
    tape, total = record_step(net, feats, labels)
    tape.backward(total)
    assert tape._nodes == []
    ref = weakref.ref(tape)
    del tape, total
    assert ref() is None


def test_spent_tape_rejects_a_second_backward():
    tape, total = record_step(small_triplet(), *small_batch())
    tape.backward(total)
    with pytest.raises(ContractError, match="fresh tape"):
        tape.backward(total)


def test_predict_leaves_nothing_alive(no_gc):
    net = small_triplet()
    feats, _ = small_batch()
    before = live(Tape), live(Tensor)
    probs = predict(net, feats)
    assert (live(Tape), live(Tensor)) == before
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_training_steps_leave_no_tape_alive(no_gc):
    net = small_triplet()
    feats, labels = small_batch()
    config = TrainConfig(K=4, hidden=16, d_g=8, batch_size=32)
    before = live(Tape), live(Tensor)
    _classifier_step(net, feats, labels, config)
    _adversarial_step(net, feats, feats[::-1], 0.5, config)
    assert (live(Tape), live(Tensor)) == before
