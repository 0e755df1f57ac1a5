"""The benchmark in ``perfbench/`` is kept unchanged across versions of
clarinet, and it looks clarinet's names up only when it runs: the tracer
binds every name in its ``FUNCTIONS`` list, and the workloads build their
configs from fixed keyword sets and call ``train_clarinet`` with keywords.
These checks fail when a change to ``src/`` removes or renames one of them,
without running any training."""

import importlib.util
import inspect
import sys
from pathlib import Path

from clarinet.data import SyntheticPairConfig
from clarinet.train import TrainConfig, train_clarinet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name_and_puts_each_back():
    spans = _load("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert spans.Tracer.leftover_wrappers() == []


def test_workload_configs_construct():
    run = _load("run")
    SyntheticPairConfig(**run.SYNTH_DATA)
    TrainConfig(**run.SYNTH_TRAIN)
    TrainConfig(**run.IDX_TRAIN)


def test_train_clarinet_takes_the_benchmark_keywords():
    inspect.signature(train_clarinet).bind(None, None, None, eval_data=None,
                                           epoch_callback=None)
