"""The program set: which networks each workload compiles, trains, serves.

The Fig 14 geometry is copied from ``benchmarks/harness.py`` (this
package must not import it, so the figure scripts stay free to change):
kernels, strides and pads are the paper's; channels and resolution
shrink until a training step is tens of milliseconds on one core.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.models import (
    alexnet_config,
    build_latte,
    lenet_config,
    mlp_config,
    overfeat_config,
    vgg_config,
)
from repro.testing.generator import NetSpec, build_net
from repro.utils.rng import seed_all

SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")

#: (config factory, channel scale, input size, batch) — Fig 14 trio as in
#: harness.BENCH_GEOMETRY, LeNet as in perf_smoke.py
_GEOMETRY = {
    "alexnet": (alexnet_config, 0.25, 67, 8),
    "overfeat": (overfeat_config, 0.125, 75, 8),
    "vgg": (vgg_config, 0.25, 64, 8),
    "lenet": (lenet_config, 0.5, 28, 8),
}

#: parameter-initialisation seed, fixed so every compile of one program
#: (any backend, any process) starts from identical weights
INIT_SEED = 1


@dataclass
class Program:
    """One network the ledger compiles: a ``ModelConfig`` or a frozen
    ``NetSpec``, at a batch size, optionally also on the C backend."""

    name: str
    model: object
    batch: int
    native: bool = False

    @property
    def is_spec(self) -> bool:
        return isinstance(self.model, NetSpec)

    def build(self):
        """A fresh uncompiled net with freshly seeded parameters;
        returns ``(net, output_ensemble_name)``."""
        seed_all(INIT_SEED)
        if self.is_spec:
            return build_net(self.model), "head"
        built = build_latte(self.model, self.batch)
        return built.net, built.output.name

    def inputs(self, cnet, rng) -> Dict[str, np.ndarray]:
        """One seeded input batch shaped for ``cnet``'s data ensembles."""
        x = rng.standard_normal(cnet.value("data").shape)
        y = rng.integers(0, self.model.classes, cnet.value("label").shape)
        return {"data": x.astype(np.float32), "label": y.astype(np.float32)}


def _config_program(name: str, native: bool) -> Program:
    factory, scale, size, batch = _GEOMETRY[name]
    classes = 100 if name != "lenet" else None
    cfg = factory().scaled(channel_scale=scale, input_size=size,
                           classes=classes)
    return Program(name, cfg, batch, native)


def _mlp_program(native: bool) -> Program:
    # the dispatch-bound 6x16 ReLU MLP of test_dispatch_overhead.py
    cfg = mlp_config(hidden=(16,) * 6 + (4,), classes=4, input_dim=16)
    return Program("mlp6x16", cfg, 4, native)


def _spec_program(name: str, native: bool = False) -> Program:
    with open(os.path.join(SPEC_DIR, f"{name}.json")) as f:
        spec = NetSpec.from_dict(json.load(f))
    return Program(name, spec, spec.batch, native)


def program(name: str, native: bool = False) -> Program:
    if name in _GEOMETRY:
        return _config_program(name, native)
    if name == "mlp6x16":
        return _mlp_program(native)
    return _spec_program(name, native)


FIG14 = ("alexnet", "overfeat", "vgg")
#: the model every workload checkpoints, serves and boots: the arrival
#: rates are sized to its capacity, so the serving metrics mean the
#: same thing (batcher-bound at r60, executor-bound at saturation)
#: wherever they are reported
SERVED = "vgg"
#: every round pays for one CLI boot, one cold compile and one thaw of
#: every program and a drain after each serving window, whatever
#: ``--seconds`` is: 4 rounds keep the 92 runs of the driver within two
#: thirds of its time cap on a slow day of the host (6 took four fifths)
ROUNDS = 4


@dataclass(frozen=True)
class Workload:
    """Which programs a workload runs and how it splits ``--seconds``.

    Every workload runs the same life cycle (compile -> check -> train
    -> cache -> serve -> boot) so every metric exists on every
    workload; the shares decide which part of the system dominates.
    The measuring phase runs in ``ROUNDS`` rounds, each a slice of every
    cell, so that each metric's samples are spread over the whole run
    and a burst of host interference cannot cover all of them."""

    why: str
    #: (program name, also compiled with backend="c")
    programs: Tuple[Tuple[str, bool], ...]
    #: share of --seconds spent on training steps / serving traffic /
    #: extra passes of cold NumPy compiles; every round also does one
    #: compile pass, one thaw per program and one warm CLI boot
    train_share: float
    serve_share: float
    compile_share: float


WORKLOADS: Dict[str, Workload] = {
    "train_fig14": Workload(
        why="kernel-bound training: Fig 14 trio on both backends, GEMM "
            "and loop nests dominate, per-step dispatch is under 10 %",
        programs=tuple((n, True) for n in FIG14),
        train_share=0.60, serve_share=0.28,
        compile_share=0.0),
    "train_small": Workload(
        why="dispatch-bound training: LeNet, a 6x16 MLP and an unrolled "
            "LSTM through the same executor; FFI crossings and aux "
            "entries dominate microsecond steps",
        programs=(("lenet", True), ("mlp6x16", True), ("lstm", True)),
        train_share=0.60, serve_share=0.28,
        compile_share=0.0),
    "serve_vgg": Workload(
        why="serving: open-loop Poisson traffic at three rates plus a "
            "closed loop at saturation on one vgg replica; batcher-bound "
            "at low rate, executor-bound when saturated",
        programs=(("vgg", True),),
        train_share=0.15, serve_share=0.78,
        compile_share=0.0),
    "compile_boot": Workload(
        why="compiler and cache as the product: ten programs compiled "
            "cold repeatedly, thawed warm, and booted through the CLI; "
            "runtime kernels do almost nothing",
        programs=tuple((n, True) for n in FIG14) + (("lenet", False),)
        + tuple((n, False) for n in ("cnn_a", "cnn_b", "mlp", "recurrent",
                                     "inception_a", "inception_b")),
        train_share=0.10, serve_share=0.22,
        compile_share=0.40),
}


def workload_programs(name: str) -> List[Program]:
    """The workload's programs, in the order set-up compiles them. The
    order is fixed: it decides how the process's heap is laid out, and
    a seeded one moved ``peak_rss_mb`` by 5 % between seeds; the seed
    orders the cells inside every measuring round instead."""
    return [program(n, native) for n, native in WORKLOADS[name].programs]
