"""Span tracing for the benchmark's traced run.

``Tracer.install`` replaces each traced callable with a timing wrapper at
every place the program looks it up: a module global in any ``clarinet``
module that binds the function (so ``train``'s by-name imports and the
autodiff operator sugar are caught), or a method on its class.  Each call
appends one span ``(name, start, end, parent, unit, out_bytes)`` to an
in-memory list; ``uninstall`` puts every original back.  Nothing in the
program changes: the wrappers return what the wrapped callable returns.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# every differentiable op in clarinet.autodiff
AUTODIFF_OPS = ("add", "sub", "mul", "div", "matmul", "pow_const", "relu",
                "sigmoid", "softmax", "log", "clamp", "tsum", "tmean",
                "take_rows", "column", "grad_reverse", "outer_flatten")

# (defining module, function, span name); bound wherever clarinet looks it up
FUNCTIONS = (
    *(("autodiff", op, "autodiff." + op) for op in AUTODIFF_OPS),
    ("complabel", "partition_batch", "complabel.partition_batch"),
    ("losses", "total_comp_loss", "losses.total_comp_loss"),
    ("losses", "cross_entropy_to_class", "losses.cross_entropy_to_class"),
    ("losses", "scatter_map", "losses.scatter_map"),
    ("losses", "entropy_weight", "losses.entropy_weight"),
    ("losses", "adversarial_loss", "losses.adversarial_loss"),
    ("models", "conditional_feature", "models.conditional_feature"),
    ("models", "predict", "models.predict"),
    ("train", "train_clarinet", "train.train_clarinet"),
    ("train", "sgd_step", "train.sgd_step"),
    ("train", "evaluate", "train.evaluate"),
    ("data", "make_synthetic_pair", "data.make_synthetic_pair"),
    ("data", "write_idx", "data.write_idx"),
    ("data", "load_idx", "data.load_idx"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "exact_unbiasedness", "verify.exact_unbiasedness"),
    ("verify", "monte_carlo_unbiasedness", "verify.monte_carlo_unbiasedness"),
    ("verify", "gradcheck_suite", "verify.gradcheck_suite"),
    ("verify", "finite_difference", "verify.finite_difference"),
    ("cli", "main", "cli.main"),
)

# Network.forward is keyed by the head, which tells G, F and D apart
FORWARD_BY_HEAD = {"none": "models.forward.G", "softmax": "models.forward.F",
                   "sigmoid": "models.forward.D"}

_MARK = "_perfbench_span"


def _modules():
    """The loaded clarinet package and submodules, keyed by short name."""
    import clarinet.cli  # noqa: F401  (the package imports every other submodule)
    return {name.partition(".")[2] or "__init__": mod
            for name, mod in sys.modules.items()
            if (name == "clarinet" or name.startswith("clarinet.")) and mod is not None}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, unit, out bytes)
        self.unit = 0          # epoch of a training run, or index of a CLI call
        self._stack = []
        self._saved = []       # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                nbytes = getattr(getattr(out, "data", None), "nbytes", 0)
                spans[idx] = (name_of(args), t0, t1, parent, self.unit, nbytes)

        setattr(wrapper, _MARK, name)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        for mod_name, attr, span in FUNCTIONS:
            fn = getattr(mods[mod_name], attr)
            wrapper = self._wrap(fn, span)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        Tape = mods["autodiff"].Tape
        Network = mods["models"].Network
        self._patch(Tape, "backward", self._wrap(Tape.backward, "autodiff.backward"))
        self._patch(Network, "forward",
                    self._wrap(Network.forward,
                               lambda args: FORWARD_BY_HEAD[args[0].spec.head]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @staticmethod
    def leftover_wrappers():
        """Names of clarinet bindings that still hold a tracing wrapper."""
        mods = _modules()
        owners = list(mods.values()) + [mods["autodiff"].Tape, mods["models"].Network]
        return sorted("%s.%s" % (getattr(o, "__name__", o), k)
                      for o in owners for k, v in vars(o).items()
                      if hasattr(v, _MARK))

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, output bytes."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        child = [0.0] * len(self.spans)
        out_bytes = defaultdict(int)
        for name, t0, t1, parent, _unit, nbytes in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            out_bytes[name] += nbytes
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for (name, t0, t1, *_), c in zip(self.spans, child):
            self_s[name] += (t1 - t0) - c
        return calls, incl, self_s, out_bytes

    def write(self, path):
        """Save the spans as parallel arrays (names as indices into ``names``)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez_compressed(
            path, names=np.array(names),
            name=np.array([index[n] for n in cols[0]], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64),
            end=np.array(cols[2], dtype=np.float64),
            parent=np.array(cols[3], dtype=np.int64),
            unit=np.array(cols[4], dtype=np.int64),
            out_bytes=np.array(cols[5], dtype=np.int64))
