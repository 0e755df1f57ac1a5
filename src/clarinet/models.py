"""Feed-forward networks for the three roles (feature extractor, label predictor,
domain discriminator), the conditional feature assembly, and flat binary
checkpoints.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor
from .errors import ContractError, FormatError
from .losses import scatter_map


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths plus the output head: 'none', 'softmax', or 'sigmoid'."""

    widths: tuple
    head: str = "none"

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ContractError("NetworkSpec needs at least two positive widths")
        if self.head not in ("none", "softmax", "sigmoid"):
            raise ContractError("unknown head %r" % self.head)


class Network:
    """Affine layers with relu between them and an optional output head."""

    def __init__(self, spec: NetworkSpec, rng: np.random.Generator):
        self.spec = spec
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(Parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
            self.biases.append(Parameter(np.zeros(fan_out)))

    @property
    def parameters(self) -> list[Parameter]:
        return self.weights + self.biases

    def forward(self, tape: Tape | None, x: Tensor) -> Tensor:
        """Record the pass on ``tape``; with ``tape=None`` the parameters enter
        as constants and nothing is recorded (inference)."""
        leaf = tape.leaf if tape is not None else (lambda p: Tensor(p.value))
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.matmul(h, leaf(w), leaf(b))
            if i < last:
                h = ad.relu(h)
        if self.spec.head == "softmax":
            h = ad.softmax(h)
        elif self.spec.head == "sigmoid":
            h = ad.sigmoid(h)
        return h


@dataclass
class NetworkTriplet:
    """Feature extractor G, label predictor F, domain discriminator D.

    The parameter registry is split into the classifier side (G and F) and the
    discriminator side (D); the two sides never share a parameter.
    """

    G: Network
    F: Network
    D: Network
    K: int
    specs: dict = field(default_factory=dict)

    @property
    def classifier_params(self) -> list[Parameter]:
        return self.G.parameters + self.F.parameters

    @property
    def discriminator_params(self) -> list[Parameter]:
        return self.D.parameters


def build_triplet(spec_G: NetworkSpec, spec_F: NetworkSpec, spec_D: NetworkSpec,
                  seed: int) -> NetworkTriplet:
    """Construct the three networks with fan-in-scaled uniform init, zero biases."""
    d_g = spec_G.widths[-1]
    K = spec_F.widths[-1]
    if spec_F.widths[0] != d_g:
        raise ContractError("F input width %d != G output width %d"
                            % (spec_F.widths[0], d_g))
    if spec_D.widths[0] not in (d_g * K, d_g):
        raise ContractError("D input width %d matches neither d_g*K=%d nor d_g=%d"
                            % (spec_D.widths[0], d_g * K, d_g))
    if spec_F.head != "softmax":
        raise ContractError("F must end in a softmax head")
    if spec_D.head != "sigmoid" or spec_D.widths[-1] != 1:
        raise ContractError("D must end in a scalar sigmoid head")
    rng = np.random.default_rng(seed)
    return NetworkTriplet(G=Network(spec_G, rng), F=Network(spec_F, rng),
                          D=Network(spec_D, rng), K=K,
                          specs={"G": spec_G, "F": spec_F, "D": spec_D})


def default_specs(d: int, K: int, d_g: int = 64, hidden: int = 128,
                  conditional: bool = True):
    """Desk-scale architectures; D consumes d_g*K when conditioned, d_g otherwise."""
    d_in = d_g * K if conditional else d_g
    return (NetworkSpec((d, hidden, d_g)),
            NetworkSpec((d_g, K), head="softmax"),
            NetworkSpec((d_in, 64, 1), head="sigmoid"))


def conditional_feature(g: Tensor, f: Tensor, l: float) -> Tensor:
    """Flattened outer product of features with scattered predictions."""
    return ad.outer_flatten(g, scatter_map(f, l))


def predict(triplet: NetworkTriplet, features: np.ndarray) -> np.ndarray:
    """Class probabilities from F(G(x)); rows on the simplex."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return triplet.F.forward(None, triplet.G.forward(None, Tensor(x))).data


def pseudo_label(triplet: NetworkTriplet, features: np.ndarray) -> np.ndarray:
    """1-based argmax class; ties break toward the smallest index."""
    return predict(triplet, features).argmax(axis=1) + 1


# ---------------------------------------------------------------------------
# checkpoints: little-endian doubles in a flat named-tensor container

_MAGIC = b"CLNT"


def save_checkpoint(path, triplet: NetworkTriplet):
    entries = []
    for net_name in ("G", "F", "D"):
        net = getattr(triplet, net_name)
        for i, p in enumerate(net.weights):
            entries.append(("%s.w%d" % (net_name, i), p.value))
        for i, p in enumerate(net.biases):
            entries.append(("%s.b%d" % (net_name, i), p.value))
    meta = json.dumps({n: {"widths": list(getattr(triplet, n).spec.widths),
                           "head": getattr(triplet, n).spec.head}
                       for n in ("G", "F", "D")}).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> NetworkTriplet:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise FormatError("not a checkpoint file: bad magic")
        (meta_len,) = struct.unpack("<I", fh.read(4))
        meta = json.loads(fh.read(meta_len))
        specs = {n: NetworkSpec(tuple(meta[n]["widths"]), head=meta[n]["head"])
                 for n in ("G", "F", "D")}
        triplet = build_triplet(specs["G"], specs["F"], specs["D"], seed=0)
        (count,) = struct.unpack("<I", fh.read(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(4))
            name = fh.read(name_len).decode()
            (ndim,) = struct.unpack("<I", fh.read(4))
            shape = struct.unpack("<%dI" % ndim, fh.read(4 * ndim))
            n_vals = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(8 * n_vals), dtype="<f8").reshape(shape)
            net_name, slot = name.split(".")
            net = getattr(triplet, net_name)
            store = net.weights if slot[0] == "w" else net.biases
            param = store[int(slot[1:])]
            if param.value.shape != data.shape:
                raise FormatError("checkpoint tensor %s has shape %s, expected %s"
                                  % (name, data.shape, param.value.shape))
            param.value[...] = data
    return triplet
