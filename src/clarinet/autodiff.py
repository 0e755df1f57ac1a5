"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

A ``Tape`` records operations eagerly as tensors are combined; calling
``Tape.backward`` on a scalar output walks the recorded list once in reverse.
Parameters are not tape nodes: ``mlp``, the one op that reads them, adds
their gradients into ``Parameter.grad`` in its backward.  One backward pass
per tape; build a fresh tape for each training step.

Recorded tensors and their tape refer to each other.  ``Tape.backward`` drops
the recorded list once it has run, so a spent tape and its graph are freed by
reference counting alone; forward-only code should record no tape at all.

Gradient contract:

- a constant operand (``tape is None``) gets no gradient computed: every
  backward tests ``operand.tape`` before forming that operand's term,
  except where that operand alone gave the op its tape, and so is on the
  tape whenever the backward runs; ``Tensor._accumulate`` ignores
  constants as a backstop;
- a tensor's first gradient is ``g + 0.0``, a fresh array that maps -0.0 to
  +0.0 as a zero-filled buffer plus ``g`` would;
- an op that has just created ``g`` for one operand, and holds no other
  reference to it, passes ``owned=True``: the first gradient is then
  ``np.add(g, 0.0, out=g)``, the same bits without the copy.  Anything that
  may alias (the upstream gradient itself, or a view of it from
  ``_unbroadcast``) is not owned;
- every later contribution is added out of place, ``grad = grad + g``, so an
  array handed to two parents (``_unbroadcast`` may return a view of the
  upstream gradient) is never mutated.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractError, NonFiniteValue, ShapeMismatch


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Parameter:
    """A trainable array with gradient and momentum buffers of the same shape."""

    def __init__(self, value):
        self.value = _as_f64(value)
        self.grad = np.zeros_like(self.value)
        self.momentum = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0


class Tensor:
    """A node in the recorded computation graph.

    Tensors with ``tape is None`` are constants: they participate in forward
    arithmetic but receive no gradient.
    """

    __slots__ = ("data", "tape", "grad", "_backward")

    # make numpy defer to the reflected operators instead of broadcasting into
    # an object array
    __array_ufunc__ = None

    def __init__(self, data, tape=None):
        self.data = _as_f64(data)
        self.tape = tape
        self.grad = None
        self._backward = None
        if tape is not None:
            tape._record(self)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def _accumulate(self, g, owned=False):
        if self.tape is None:
            return
        if self.grad is None:
            # a 0-d result of NumPy arithmetic is a scalar, which has no buffer
            if owned and isinstance(g, np.ndarray):
                self.grad = np.add(g, 0.0, out=g)
            else:
                self.grad = g + 0.0
        else:
            self.grad = self.grad + g

    # operator sugar; mixed operands are promoted to constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def item(self) -> float:
        if self.size != 1:
            raise ContractError("item() requires a scalar tensor, got shape %s" % (self.shape,))
        return float(self.data.reshape(()))


class Tape:
    """Ordered record of operations; creation order is a valid topological order."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._done = False

    def _record(self, t: Tensor):
        self._nodes.append(t)

    def backward(self, out: Tensor):
        """Backpropagate from a scalar output; parameter gradients accumulate additively."""
        if out.tape is not self:
            raise ContractError("output tensor does not belong to this tape")
        if out.size != 1:
            raise ContractError("backward requires a scalar output, got shape %s" % (out.shape,))
        if self._done:
            raise ContractError("tape already backpropagated; record a fresh tape per step")
        self._done = True
        # dropping the list breaks the tape <-> tensor cycle
        nodes, self._nodes = self._nodes, []
        out.grad = np.ones_like(out.data)
        for t in reversed(nodes):
            if t.grad is not None and t._backward is not None:
                t._backward(t.grad)


# ---------------------------------------------------------------------------
# memory


@functools.cache
def hold_heap():
    """Keep freed memory in the process from one training step, or one
    ``verify`` suite, to the next.

    While glibc's trim threshold is at its 128 KB default, the top of the
    heap can go back to the kernel whenever the arrays on it are freed, and
    be faulted in again by the next step: about 160 minor page faults per
    synth-k4 step (it allocates and frees about 1 MB), 0.2-0.4 s of system
    time a run.  glibc raises its mmap threshold to the size of a freed
    mmapped block, and its trim threshold to twice that, so freeing one
    8 MB block keeps up to 16 MB of free heap from then on.  The largest
    working set is the Monte-Carlo oracle's 100k x 4 batch: while
    ``weighted_ce`` scores it, the batch, its (1 + ``BLOCK_ROWS``) x 4 block
    buffer, one block of gathered coefficients, the 100k one-byte points
    and the 100k int64 labels are live, and one oracle call peaks at 4.7
    MiB as tracemalloc counts it (8.1 MiB while a full-size cross-entropy
    buffer was live too).  Minor faults, NumPy 2.4.6 on 2 vCPUs:

    - per warm ``verify all`` call (median of 20, range 0-7): about 1.5
      with no hold or a 4 MB block, 1 with an 8 or a 16 MB block; with the
      full-size buffer, no hold left about 1530 and a 4 MB block about 1600;
    - per training step, over a process's second run: synth-k4 about 160
      with no hold, 0.04 with an 8 or a 16 MB block (43 in 960 steps
      either way); idx-k10 0.01-0.02 with no hold, an 8 or a 16 MB block
      (6-8 in 500 steps).

    The 8 MB block is kept because no count rises against 16 MB.  In three
    40 s idx-k10 benchmark runs each, the peak RSS read 106.9, 106.9 and
    107.6 MB against 107.8, 107.7 and 107.7 MB with 16 MB; over ten
    benchmark pairs its median stayed at 107.7 MB.  glibc's adaptive
    thresholds otherwise work as before (``mallopt`` would switch them
    off), and no value changes.
    """
    np.empty(8 << 20, dtype=np.uint8)


# ---------------------------------------------------------------------------
# op plumbing


def _coerce(*operands):
    """Promote plain arrays/scalars to constant tensors; find the common tape.

    Returns the operands as tensors followed by the tape (None when every
    operand is a constant).
    """
    out = []
    tape = None
    for x in operands:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        elif x.tape is not None:
            if tape is not None and x.tape is not tape:
                raise ContractError("operands recorded on different tapes")
            tape = x.tape
        out.append(x)
    out.append(tape)
    return out


def _check_finite(name, data):
    """``data``, unless an entry is NaN or infinite.  A 0-d result is tested
    as one Python float, and an array through the ufunc reduction that
    ``ndarray.all`` wraps, without its Python-level dispatch."""
    if not (math.isfinite(data) if data.ndim == 0 else
            np.logical_and.reduce(np.isfinite(data), axis=None)):
        raise NonFiniteValue("%s produced a non-finite value" % name)
    return data


def _make(name, data, tape, backward):
    out = Tensor(_check_finite(name, data), tape=tape)
    out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the axes that broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a, b, tape = _coerce(a, b)

    def backward(g):
        if a.tape is not None:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.tape is not None:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make("add", a.data + b.data, tape, backward)


def sub(a, b):
    a, b, tape = _coerce(a, b)

    def backward(g):
        if a.tape is not None:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.tape is not None:
            b._accumulate(-_unbroadcast(g, b.shape))

    return _make("sub", a.data - b.data, tape, backward)


def mul(a, b):
    a, b, tape = _coerce(a, b)

    def backward(g):
        if a.tape is not None:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.tape is not None:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make("mul", a.data * b.data, tape, backward)


def div(a, b):
    a, b, tape = _coerce(a, b)

    def backward(g):
        if a.tape is not None:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.tape is not None:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make("div", a.data / b.data, tape, backward)


def matmul(a, b, bias=None):
    """``a @ b``, plus ``bias`` broadcast over the rows when given.

    The bias is added in place to the product, the same IEEE operation as a
    separate ``add`` node, so an affine layer is one node.
    """
    if bias is None:
        a, b, tape = _coerce(a, b)
    else:
        a, b, bias, tape = _coerce(a, b, bias)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul expects conforming 2-D operands, got %s and %s"
                            % (a.shape, b.shape))
    out = a.data @ b.data
    if bias is not None:
        try:
            out += bias.data
        except ValueError:
            raise ShapeMismatch("matmul bias %s does not broadcast to %s"
                                % (bias.shape, out.shape)) from None

    def backward(g):
        if a.tape is not None:
            # with one inner term each entry is a single product; after the
            # first gradient's + 0.0 its bits equal the BLAS call's
            a._accumulate(g * b.data.T if b.shape[1] == 1 else g @ b.data.T, owned=True)
        if b.tape is not None:
            b._accumulate(a.data.T @ g, owned=True)
        if bias is not None and bias.tape is not None:
            bias._accumulate(_unbroadcast(g, bias.shape))

    return _make("matmul", out, tape, backward)


def pow_const(x, c: float):
    x, tape = _coerce(x)
    c = float(c)

    def backward(g):
        x._accumulate(g * c * np.power(x.data, c - 1.0))

    return _make("pow", np.power(x.data, c), tape, backward)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x):
    x, tape = _coerce(x)
    mask = x.data > 0.0

    def backward(g):
        x._accumulate(g * mask, owned=True)

    return _make("relu", x.data * mask, tape, backward)


def _sigmoid(x):
    # stable in both tails
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _sigmoid_grad(out, g):
    return g * out * (1.0 - out)


def _softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(p, g):
    dot = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - dot)


def sigmoid(x):
    x, tape = _coerce(x)
    out = _sigmoid(x.data)

    def backward(g):
        x._accumulate(_sigmoid_grad(out, g), owned=True)

    return _make("sigmoid", out, tape, backward)


def softmax(x):
    """Row-wise softmax via the log-sum-exp shift; rows land on the simplex."""
    x, tape = _coerce(x)
    p = _softmax(x.data)

    def backward(g):
        x._accumulate(_softmax_grad(p, g), owned=True)

    return _make("softmax", p, tape, backward)


_HEADS = {"none": None, "softmax": (_softmax, _softmax_grad),
          "sigmoid": (_sigmoid, _sigmoid_grad)}


def mlp(tape, x, weights, biases, head="none"):
    """Affine layers (``Parameter`` weights and biases) with relu between them
    and an optional 'softmax' or 'sigmoid' head, as one node on ``tape``.

    Order contract: values and gradients equal, bit for bit, those of the
    per-op chain ``matmul(h, w, b)``, ``relu``, ..., head.  The forward runs
    the same IEEE operations in the same order (relu in place on the fresh
    affine output) and checks each affine output under the name ``matmul``.
    Only that check can fire: relu and either head map finite values to
    finite values (the softmax's row sums are at least exp(0) = 1, and both
    heads lie in [0, 1]), so a non-finite value is named ``matmul`` at the
    first layer where it appears, as the per-op chain names it.  The
    backward replays the per-op rules and adds each parameter's gradient into
    ``Parameter.grad``.  It skips the ``+ 0.0`` of each intermediate first
    gradient: that only turns -0.0 into +0.0, which no later product or sum
    turns into a nonzero, and every gradient leaves through ``+=`` onto a
    zero-filled ``Parameter.grad`` or through the input's ``_accumulate``,
    both of which map -0.0 to +0.0.  With ``tape=None`` nothing is recorded.
    """
    x, x_tape = _coerce(x)
    if x_tape is not None and x_tape is not tape:
        raise ContractError("mlp input is recorded on another tape")
    if x.data.ndim != 2 or x.shape[1] != weights[0].shape[0]:
        raise ShapeMismatch("mlp expects a 2-D input of width %d, got %s"
                            % (weights[0].shape[0], x.shape))
    inputs, masks = [], []
    h = x.data
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w.value
        h += b.value
        _check_finite("matmul", h)
        if i < last:
            masks.append(h > 0.0)
            np.multiply(h, masks[-1], out=h)
    fns = _HEADS[head]
    if fns is not None:
        h = fns[0](h)
    out = Tensor(h, tape=tape)
    if tape is None:
        return out

    def backward(g):
        if fns is not None:
            g = fns[1](h, g)
        for i in range(last, -1, -1):
            if i < last:
                g = g * masks[i]
            w, b = weights[i], biases[i]
            w.grad += inputs[i].T @ g
            b.grad += g.sum(axis=0)
            if i == 0 and x.tape is None:
                break
            # with one inner term each entry is a single product, whose bits
            # equal the BLAS call's up to the sign of a zero
            g = g * w.value.T if w.shape[1] == 1 else g @ w.value.T
            if i == 0:
                x._accumulate(g, owned=True)

    out._backward = backward
    return out


def log(x):
    x, tape = _coerce(x)

    def backward(g):
        x._accumulate(g / x.data)

    return _make("log", np.log(x.data), tape, backward)


def clamp(x, lo, hi):
    """Clip values to [lo, hi]; gradient flows only where the input was inside."""
    x, tape = _coerce(x)
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g):
        x._accumulate(g * inside)

    return _make("clamp", np.clip(x.data, lo, hi), tape, backward)


# ---------------------------------------------------------------------------
# reductions and reshaping


def tsum(x, axis=None, keepdims=False):
    x, tape = _coerce(x)

    def backward(g):
        if axis is None:
            # the output is 0-d, and so is its gradient
            x._accumulate(np.full(x.shape, g))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(gg, x.shape).copy())

    # the ufunc that ndarray.sum wraps, the same reduction
    return _make("sum", np.add.reduce(x.data, axis=axis, keepdims=keepdims), tape, backward)


def tmean(x):
    """The mean of every entry, a 0-d tensor."""
    x, tape = _coerce(x)
    n = x.data.size

    def backward(g):
        x._accumulate(np.full(x.shape, g / n))

    return _make("mean", x.data.mean(), tape, backward)


def take_rows(x, idx):
    """Select rows by index; backward scatter-adds into the source rows."""
    x, tape = _coerce(x)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        x._accumulate(full)

    return _make("take_rows", x.data[idx], tape, backward)


def column(x, k: int):
    """Select one column of a 2-D tensor as a 1-D tensor."""
    x, tape = _coerce(x)
    if x.data.ndim != 2:
        raise ShapeMismatch("column expects a 2-D tensor, got %s" % (x.shape,))

    def backward(g):
        full = np.zeros_like(x.data)
        full[:, k] = g
        x._accumulate(full)

    return _make("column", x.data[:, k].copy(), tape, backward)


# ---------------------------------------------------------------------------
# the two special nodes


def grad_reverse(x, lam: float):
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise ContractError("grad_reverse expects lam >= 0, got %r" % lam)
    x, tape = _coerce(x)

    def backward(g):
        x._accumulate(-lam * g, owned=True)

    # no op mutates its input, so the output may share the input's array
    return _make("grad_reverse", x.data, tape, backward)


def outer_flatten(u, v):
    """Row-wise flattened outer product: out[i, a*K + b] = u[i,a] * v[i,b].

    ``einsum`` adds each product into a zeroed output, so a product of -0.0
    comes out as +0.0; otherwise the bits are the broadcast product's.
    """
    u, v, tape = _coerce(u, v)
    ud, vd = u.data, v.data
    if ud.ndim != 2 or vd.ndim != 2 or ud.shape[0] != vd.shape[0]:
        raise ShapeMismatch("outer_flatten expects matching row counts, got %s and %s"
                            % (u.shape, v.shape))
    if ud.shape[1] == 0 or vd.shape[1] == 0:
        raise ContractError("outer_flatten got an empty operand")
    n, d = ud.shape
    k = vd.shape[1]
    out = np.einsum("nd,nk->ndk", ud, vd).reshape(n, d * k)

    def backward(g):
        g3 = g.reshape(n, d, k)
        if u.tape is not None:
            u._accumulate(np.einsum("ndk,nk->nd", g3, vd), owned=True)
        if v.tape is not None:
            v._accumulate(np.einsum("ndk,nd->nk", g3, ud), owned=True)

    return _make("outer_flatten", out, tape, backward)
