"""Seeded random network generator for differential testing.

A :class:`NetSpec` is a small, JSON-serializable description of a test
network: input geometry, batch size, unrolled time steps, a list of
layer records, and the classifier width. ``build_net`` instantiates it
through the public layer library exactly the way a user program would,
so the generator exercises the same frontend paths (mapping analysis,
padding synthesis, GEMM matching, fusion legality) as hand-written
models.

Specs are *data*, not closures, so a failing network can be shrunk
(:mod:`repro.testing.minimize`), serialized as a regression case, and
re-loaded bit-for-bit from its JSON form.

Layer records are plain dicts with a ``kind`` key:

==============  ======================================  ==============
kind            parameters                              input rank
==============  ======================================  ==============
``conv``        filters, kernel, stride, pad            3
``pool``        mode ('max'|'mean'), kernel, stride,    3
                pad
``relu`` /      —                                       1 or 3
``sigmoid`` /
``tanh``
``dropout``     ratio                                   1 or 3
``batchnorm``   —                                       1 or 3
``lrn``         local_size, alpha, beta                 3
``fc``          outputs                                 any (flattens)
``inception``   branches: list of branch layer lists    3
                (spatial-preserving conv/pool chains,
                concatenated along channels)
``lstm`` /      outputs                                 1 (needs
``gru``                                                 time_steps > 1)
==============  ======================================  ==============

Every generated net ends with a hidden classifier: a fully-connected
``head`` ensemble of ``classes`` outputs and a softmax ``loss`` layer
fed from a ``label`` data ensemble, giving the oracle a scalar loss and
a complete backward pass to compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import Net
from repro.layers import (
    BatchNormLayer,
    ConcatLayer,
    ConvolutionLayer,
    DropoutLayer,
    FullyConnectedLayer,
    GRULayer,
    LRNLayer,
    LSTMLayer,
    MaxPoolingLayer,
    MeanPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SigmoidLayer,
    SoftmaxLossLayer,
    TanhLayer,
)
from repro.utils import conv_output_dim, pool_output_dim

LayerDict = Dict[str, object]

#: layer kinds whose output shape equals their input shape
_SHAPE_PRESERVING = ("relu", "sigmoid", "tanh", "dropout", "batchnorm")
_RECURRENT_KINDS = ("lstm", "gru")


@dataclass(frozen=True)
class NetSpec:
    """A serializable description of one generated test network."""

    seed: int
    batch: int
    input_shape: Tuple[int, ...]
    classes: int
    layers: Tuple[LayerDict, ...] = ()
    time_steps: int = 1

    # -- queries -----------------------------------------------------------

    @property
    def recurrent(self) -> bool:
        return any(ld["kind"] in _RECURRENT_KINDS for ld in self.layers)

    def describe(self) -> str:
        """Compact one-line summary, e.g. for failure messages."""
        chain = "->".join(_describe_layer(ld) for ld in self.layers) or "-"
        t = f" T={self.time_steps}" if self.time_steps > 1 else ""
        return (f"seed={self.seed} B={self.batch}{t} "
                f"in={tuple(self.input_shape)} [{chain}] "
                f"head={self.classes}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "batch": self.batch,
            "input_shape": list(self.input_shape),
            "classes": self.classes,
            "time_steps": self.time_steps,
            "layers": [dict(ld) for ld in self.layers],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "NetSpec":
        return cls(
            seed=int(d["seed"]),
            batch=int(d["batch"]),
            input_shape=tuple(int(x) for x in d["input_shape"]),
            classes=int(d["classes"]),
            time_steps=int(d.get("time_steps", 1)),
            layers=tuple(dict(ld) for ld in d["layers"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "NetSpec":
        return cls.from_dict(json.loads(text))


def _describe_layer(ld: LayerDict) -> str:
    kind = ld["kind"]
    if kind == "conv":
        return (f"conv{ld['filters']}x{ld['kernel']}"
                f"s{ld['stride']}p{ld['pad']}")
    if kind == "pool":
        return (f"{ld['mode']}pool{ld['kernel']}"
                f"s{ld['stride']}p{ld['pad']}")
    if kind == "fc":
        return f"fc{ld['outputs']}"
    if kind == "inception":
        return f"incept({len(ld['branches'])}br)"
    if kind in _RECURRENT_KINDS:
        return f"{kind}{ld['outputs']}"
    if kind == "dropout":
        return f"drop{ld['ratio']}"
    return kind


# ---------------------------------------------------------------------------
# Shape inference / validation
# ---------------------------------------------------------------------------


def _layer_output_shape(shape: Tuple[int, ...], ld: LayerDict,
                        time_steps: int) -> Tuple[int, ...]:
    kind = ld["kind"]
    if kind in _SHAPE_PRESERVING:
        return shape
    if kind == "conv":
        if len(shape) != 3:
            raise ValueError(f"conv needs rank-3 input, got {shape}")
        c, h, w = shape
        return (int(ld["filters"]),
                conv_output_dim(h, ld["kernel"], ld["stride"], ld["pad"]),
                conv_output_dim(w, ld["kernel"], ld["stride"], ld["pad"]))
    if kind == "pool":
        if len(shape) != 3:
            raise ValueError(f"pool needs rank-3 input, got {shape}")
        if ld["pad"] >= ld["kernel"]:
            raise ValueError("pool pad must be < kernel")
        c, h, w = shape
        return (c,
                pool_output_dim(h, ld["kernel"], ld["stride"], ld["pad"]),
                pool_output_dim(w, ld["kernel"], ld["stride"], ld["pad"]))
    if kind == "lrn":
        if len(shape) != 3:
            raise ValueError(f"lrn needs rank-3 input, got {shape}")
        return shape
    if kind == "fc":
        return (int(ld["outputs"]),)
    if kind in _RECURRENT_KINDS:
        if len(shape) != 1:
            raise ValueError(f"{kind} needs rank-1 input, got {shape}")
        if time_steps < 2:
            raise ValueError(f"{kind} needs time_steps > 1")
        return (int(ld["outputs"]),)
    if kind == "inception":
        if len(shape) != 3:
            raise ValueError(f"inception needs rank-3 input, got {shape}")
        branches = ld["branches"]
        if len(branches) < 2:
            raise ValueError("inception needs at least two branches")
        out_c = 0
        for branch in branches:
            if not branch:
                raise ValueError("inception branch must be non-empty")
            bshape = shape
            for bld in branch:
                if bld["kind"] not in ("conv", "pool"):
                    raise ValueError(
                        f"inception branches hold conv/pool only, "
                        f"got {bld['kind']!r}"
                    )
                bshape = _layer_output_shape(bshape, bld, time_steps)
            if bshape[1:] != shape[1:]:
                raise ValueError(
                    f"inception branch changes spatial dims "
                    f"{shape[1:]} -> {bshape[1:]}"
                )
            out_c += bshape[0]
        return (out_c,) + shape[1:]
    raise ValueError(f"unknown layer kind {kind!r}")


def infer_shapes(spec: NetSpec) -> List[Tuple[int, ...]]:
    """Shape after each layer of ``spec``; raises ValueError if the spec
    composes invalid geometry (the validity predicate used by the
    generator's rejection loop and the shrinker's candidate filter)."""
    if spec.batch < 1:
        raise ValueError("batch must be >= 1")
    if spec.classes < 2:
        raise ValueError("classes must be >= 2")
    if spec.recurrent and spec.time_steps < 2:
        raise ValueError("recurrent specs need time_steps > 1")
    if any(d < 1 for d in spec.input_shape):
        raise ValueError("input dims must be >= 1")
    if len(spec.input_shape) not in (1, 3):
        raise ValueError("input must be rank 1 or rank 3")
    shapes = []
    shape = tuple(spec.input_shape)
    for ld in spec.layers:
        shape = _layer_output_shape(shape, ld, spec.time_steps)
        shapes.append(shape)
    return shapes


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def _build_layer(name: str, net: Net, cur, ld: LayerDict, rng):
    kind = ld["kind"]
    if kind == "conv":
        return ConvolutionLayer(name, net, cur, ld["filters"], ld["kernel"],
                                ld["stride"], ld["pad"], rng=rng)
    if kind == "pool":
        fn = MaxPoolingLayer if ld["mode"] == "max" else MeanPoolingLayer
        return fn(name, net, cur, ld["kernel"], ld["stride"], ld["pad"])
    if kind == "relu":
        return ReLULayer(name, net, cur)
    if kind == "sigmoid":
        return SigmoidLayer(name, net, cur)
    if kind == "tanh":
        return TanhLayer(name, net, cur)
    if kind == "dropout":
        return DropoutLayer(name, net, cur, ld["ratio"], rng=rng)
    if kind == "batchnorm":
        return BatchNormLayer(name, net, cur)
    if kind == "lrn":
        return LRNLayer(name, net, cur, ld["local_size"], ld["alpha"],
                        ld["beta"])
    if kind == "fc":
        return FullyConnectedLayer(name, net, cur, ld["outputs"], rng=rng)
    if kind == "lstm":
        return LSTMLayer(name, net, cur, ld["outputs"], rng=rng).h
    if kind == "gru":
        return GRULayer(name, net, cur, ld["outputs"], rng=rng).h
    if kind == "inception":
        ends = []
        for j, branch in enumerate(ld["branches"]):
            sub = cur
            for k, bld in enumerate(branch):
                sub = _build_layer(f"{name}_b{j}_{k}", net, sub, bld, rng)
            ends.append(sub)
        return ConcatLayer(name, net, ends)
    raise ValueError(f"unknown layer kind {kind!r}")


def build_net(spec: NetSpec, rng=None, params=None) -> Net:
    """Instantiate ``spec`` as a Latte :class:`Net` through the public
    layer library, binding parameter values from ``params`` when given.
    Ensembles are named ``L<i>_<kind>``; the classifier is ``head`` and
    the loss layer ``loss``; inputs are the ``data`` and ``label`` data
    ensembles."""
    infer_shapes(spec)  # fail fast with a geometry error, not a layer one
    net = Net(spec.batch, time_steps=spec.time_steps, params=params)
    data = MemoryDataLayer(net, "data", tuple(spec.input_shape))
    label = MemoryDataLayer(net, "label", (1,))
    cur = data
    for i, ld in enumerate(spec.layers):
        cur = _build_layer(f"L{i}_{ld['kind']}", net, cur, ld, rng)
    head = FullyConnectedLayer("head", net, cur, spec.classes, rng=rng)
    SoftmaxLossLayer("loss", net, head, label)
    return net


def make_inputs(spec: NetSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic input batch and labels for ``spec`` (a pure
    function of ``spec.seed`` and geometry)."""
    rng = np.random.default_rng(spec.seed + 0x5EED)
    lead = ((spec.time_steps, spec.batch) if spec.time_steps > 1
            else (spec.batch,))
    x = rng.standard_normal(lead + tuple(spec.input_shape)).astype(np.float32)
    y = rng.integers(0, spec.classes, lead + (1,)).astype(np.float32)
    return x, y


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

FAMILIES = ("cnn", "mlp", "recurrent", "inception")
_FAMILY_WEIGHTS = {"cnn": 0.45, "mlp": 0.2, "recurrent": 0.2,
                   "inception": 0.15}


def _i(rng, lo, hi) -> int:
    """Inclusive integer draw as a plain Python int (JSON-friendly)."""
    return int(rng.integers(lo, hi + 1))


def _maybe_activation(rng, layers: List[LayerDict], p=0.8) -> None:
    if rng.random() < p:
        layers.append({"kind": str(rng.choice(["relu", "tanh", "sigmoid"]))})


def _random_conv(rng, spatial: int) -> LayerDict:
    kernels = [k for k in (1, 3, 5) if k <= spatial + 2]
    kernel = int(rng.choice(kernels))
    pad = _i(rng, 0, min(2, kernel - 1))
    stride = _i(rng, 1, 2)
    return {"kind": "conv", "filters": _i(rng, 1, 5), "kernel": kernel,
            "stride": stride, "pad": pad}


def _random_pool(rng) -> LayerDict:
    kernel = _i(rng, 2, 3)
    return {"kind": "pool", "mode": str(rng.choice(["max", "mean"])),
            "kernel": kernel, "stride": _i(rng, 1, 2),
            "pad": _i(rng, 0, min(1, kernel - 1))}


def _random_norm(rng) -> LayerDict:
    if rng.random() < 0.5:
        return {"kind": "batchnorm"}
    return {"kind": "lrn", "local_size": int(rng.choice([3, 5])),
            "alpha": float(rng.choice([0.01, 0.1])), "beta": 0.75}


def _conv_tail(rng, layers: List[LayerDict]) -> None:
    """Optional dropout + FC stack closing out a convolutional body."""
    if rng.random() < 0.2:
        layers.append({"kind": "dropout",
                       "ratio": float(rng.choice([0.25, 0.5]))})
    for _ in range(_i(rng, 0, 1)):
        layers.append({"kind": "fc", "outputs": _i(rng, 2, 8)})
        _maybe_activation(rng, layers, p=0.6)


def _gen_cnn(rng) -> dict:
    size = _i(rng, 6, 12)
    layers: List[LayerDict] = []
    for _ in range(_i(rng, 1, 3)):
        layers.append(_random_conv(rng, size))
        _maybe_activation(rng, layers)
        if rng.random() < 0.25:
            layers.append(_random_norm(rng))
        if rng.random() < 0.6:
            layers.append(_random_pool(rng))
    _conv_tail(rng, layers)
    return dict(input_shape=(_i(rng, 1, 3), size, size), layers=layers)


def _gen_mlp(rng) -> dict:
    layers: List[LayerDict] = []
    for _ in range(_i(rng, 1, 3)):
        layers.append({"kind": "fc", "outputs": _i(rng, 2, 10)})
        _maybe_activation(rng, layers)
        if rng.random() < 0.15:
            layers.append({"kind": "batchnorm"})
    if rng.random() < 0.2:
        layers.append({"kind": "dropout",
                       "ratio": float(rng.choice([0.25, 0.5]))})
    return dict(input_shape=(_i(rng, 4, 16),), layers=layers)


def _gen_recurrent(rng) -> dict:
    layers: List[LayerDict] = []
    if rng.random() < 0.5:
        layers.append({"kind": "fc", "outputs": _i(rng, 3, 6)})
        _maybe_activation(rng, layers, p=0.5)
    layers.append({"kind": str(rng.choice(["lstm", "gru"])),
                   "outputs": _i(rng, 2, 5)})
    if rng.random() < 0.4:
        layers.append({"kind": "fc", "outputs": _i(rng, 2, 6)})
    return dict(input_shape=(_i(rng, 3, 6),), layers=layers,
                time_steps=_i(rng, 2, 3))


def _gen_inception(rng) -> dict:
    size = _i(rng, 6, 10)
    layers: List[LayerDict] = []
    if rng.random() < 0.5:
        layers.append(_random_conv(rng, size))
        _maybe_activation(rng, layers)
    branch_pool: List[List[LayerDict]] = [
        [{"kind": "conv", "filters": _i(rng, 1, 3), "kernel": 1,
          "stride": 1, "pad": 0}],
        [{"kind": "conv", "filters": _i(rng, 1, 3), "kernel": 3,
          "stride": 1, "pad": 1}],
        [{"kind": "pool", "mode": "max", "kernel": 3, "stride": 1,
          "pad": 1},
         {"kind": "conv", "filters": _i(rng, 1, 2), "kernel": 1,
          "stride": 1, "pad": 0}],
    ]
    n_branches = _i(rng, 2, 3)
    order = list(rng.permutation(len(branch_pool)))[:n_branches]
    layers.append({"kind": "inception",
                   "branches": [branch_pool[i] for i in sorted(order)]})
    if rng.random() < 0.5:
        layers.append(_random_pool(rng))
    _conv_tail(rng, layers)
    return dict(input_shape=(_i(rng, 1, 3), size, size), layers=layers)


_GENERATORS = {"cnn": _gen_cnn, "mlp": _gen_mlp, "recurrent": _gen_recurrent,
               "inception": _gen_inception}


def random_spec(seed: int, families: Sequence[str] = FAMILIES,
                max_attempts: int = 50) -> NetSpec:
    """Generate a valid random :class:`NetSpec` from ``seed``.

    Deterministic: the same seed always yields the same spec. Invalid
    geometry draws (e.g. a pooling window larger than a shrunken
    feature map) are rejected and redrawn from the same stream, so a
    valid spec is always returned.
    """
    rng = np.random.default_rng(seed)
    weights = np.array([_FAMILY_WEIGHTS[f] for f in families], float)
    weights /= weights.sum()
    for _ in range(max_attempts):
        family = str(rng.choice(list(families), p=weights))
        draw = _GENERATORS[family](rng)
        spec = NetSpec(
            seed=seed,
            batch=_i(rng, 1, 4),
            classes=_i(rng, 2, 5),
            input_shape=tuple(draw["input_shape"]),
            layers=tuple(draw["layers"]),
            time_steps=draw.get("time_steps", 1),
        )
        try:
            infer_shapes(spec)
        except ValueError:
            continue
        return spec
    raise RuntimeError(
        f"could not draw a valid spec from seed {seed} in "
        f"{max_attempts} attempts"
    )
