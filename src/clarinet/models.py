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
from .data import read_exact, require_bytes
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


def _named_parameters(triplet: NetworkTriplet) -> dict:
    """Checkpoint tensor name -> parameter, in the order they are written."""
    named = {}
    for net_name in ("G", "F", "D"):
        net = getattr(triplet, net_name)
        for i, p in enumerate(net.weights):
            named["%s.w%d" % (net_name, i)] = p
        for i, p in enumerate(net.biases):
            named["%s.b%d" % (net_name, i)] = p
    return named


def save_checkpoint(path, triplet: NetworkTriplet):
    entries = _named_parameters(triplet)
    meta = json.dumps({n: {"widths": list(getattr(triplet, n).spec.widths),
                           "head": getattr(triplet, n).spec.head}
                       for n in ("G", "F", "D")}).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<I", len(entries)))
        for name, param in entries.items():
            arr = param.value
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def _header_specs(meta, path) -> dict:
    """The three network specs of a checkpoint header, or a FormatError."""
    specs = {}
    for n in ("G", "F", "D"):
        entry = meta.get(n) if isinstance(meta, dict) else None
        widths = entry.get("widths") if isinstance(entry, dict) else None
        if not (isinstance(widths, list) and all(isinstance(w, int) and not isinstance(w, bool)
                                                 for w in widths)
                and isinstance(entry.get("head"), str)):
            raise FormatError("%s: checkpoint header has no valid spec for %s" % (path, n))
        try:
            specs[n] = NetworkSpec(tuple(widths), head=entry["head"])
        except ContractError as exc:
            raise FormatError("%s: checkpoint header: %s" % (path, exc)) from None
    return specs


def load_checkpoint(path) -> NetworkTriplet:
    """Read a checkpoint back; it fails closed with a FormatError on a file
    that is cut short, has bytes after the last tensor, or names a tensor
    that is unknown, repeated or missing."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise FormatError("not a checkpoint file: bad magic")

        def u32():
            return struct.unpack("<I", read_exact(fh, 4, path))[0]

        raw_meta = read_exact(fh, u32(), path)
        try:
            meta = json.loads(raw_meta)
        except (ValueError, RecursionError) as exc:
            raise FormatError("%s: checkpoint header is not JSON: %s" % (path, exc)) from None
        specs = _header_specs(meta, path)
        # checked before any parameter is allocated, so a corrupt width
        # cannot ask for more memory than the file holds
        n_values = sum(a * b + b for spec in specs.values()
                       for a, b in zip(spec.widths[:-1], spec.widths[1:]))
        require_bytes(fh, 8 * n_values, path)
        try:
            triplet = build_triplet(specs["G"], specs["F"], specs["D"], seed=0)
        except ContractError as exc:
            raise FormatError("%s: checkpoint header: %s" % (path, exc)) from None
        named = _named_parameters(triplet)
        count = u32()
        if count != len(named):
            raise FormatError("%s: checkpoint holds %d tensors, its networks have %d"
                              % (path, count, len(named)))
        seen = set()
        for _ in range(count):
            name = read_exact(fh, u32(), path).decode("utf-8", "replace")
            if name not in named or name in seen:
                raise FormatError("%s: %s checkpoint tensor name %r"
                                  % (path, "repeated" if name in seen else "unknown", name))
            seen.add(name)
            param = named[name]
            ndim = u32()
            shape = struct.unpack("<%dI" % ndim, read_exact(fh, 4 * ndim, path))
            if shape != param.value.shape:
                raise FormatError("checkpoint tensor %s has shape %s, expected %s"
                                  % (name, shape, param.value.shape))
            param.value[...] = np.frombuffer(read_exact(fh, 8 * param.value.size, path),
                                             dtype="<f8").reshape(shape)
        if fh.read(1):
            raise FormatError("%s: trailing bytes after the last tensor" % path)
    return triplet
