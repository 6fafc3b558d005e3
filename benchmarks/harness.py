"""Shared helpers for the figure-reproduction benchmarks.

Geometry is scaled down from the paper's (224px ImageNet, batch 128+,
36-core Xeon) to sizes a single-threaded NumPy substrate measures in
seconds; see EXPERIMENTS.md for the mapping and the measured vs reported
comparison. Each benchmark prints the paper-style rows and persists them
to ``benchmarks/results/<figure>.txt``.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from typing import Callable, Dict

import numpy as np

from repro.baselines import CaffeNet, MochaNet
from repro.models import ModelConfig, build_latte
from repro.optim import CompilerOptions
from repro.utils.rng import seed_all
from repro.utils.timing import measure_median

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: benchmark geometry per evaluation model: (channel_scale, input_size,
#: batch). Kernels/strides/pads stay faithful; channels and resolution
#: shrink so a series completes in seconds.
BENCH_GEOMETRY = {
    "alexnet": (0.25, 67, 8),
    "overfeat": (0.125, 75, 8),
    "vgg": (0.25, 64, 8),
    # the microbenchmark needs enough work per layer for the fusion
    # margin to exceed machine noise (see EXPERIMENTS.md)
    "vgg_micro": (1.0, 128, 16),
}


def report(figure: str, lines) -> None:
    """Print paper-style rows and persist them for EXPERIMENTS.md."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print(f"\n=== {figure} ===\n{text}")
    with open(os.path.join(RESULTS_DIR, f"{figure}.txt"), "w") as f:
        f.write(text + "\n")


def median_time(fn: Callable, repeats: int = 3, warmup: int = 1,
                full: bool = False):
    """Benchmark-default spelling of
    :func:`repro.utils.timing.measure_median` (fewer repeats; pass
    ``full=True`` for all samples / noise stats)."""
    return measure_median(fn, repeats=repeats, warmup=warmup, full=full)


def make_inputs(config: ModelConfig, batch: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch,) + config.input_shape).astype(np.float32)
    y = rng.integers(0, config.classes, (batch, 1)).astype(np.float32)
    return x, y


def latte_net(config: ModelConfig, batch: int, level: int = 4,
              options: CompilerOptions | None = None,
              num_threads: int = 1):
    seed_all(1)
    built = build_latte(config, batch)
    cnet = built.init(options or CompilerOptions.level(level),
                      num_threads=num_threads)
    cnet.training = False  # benchmark without dropout randomness
    return cnet


def baseline_net(config: ModelConfig, batch: int, cls=CaffeNet, cnet=None):
    seed_all(1)
    net = cls(config, batch)
    if cnet is not None:
        net.load_params_from(cnet)
    net.training = False
    return net


class Runners:
    """Uniform forward / backward / forward+backward runners for one
    (config, batch) across Latte and a baseline."""

    def __init__(self, config: ModelConfig, batch: int, level: int = 4,
                 baseline_cls=CaffeNet,
                 options: CompilerOptions | None = None,
                 num_threads: int = 1):
        self.config = config
        self.batch = batch
        self.x, self.y = make_inputs(config, batch)
        self.cnet = latte_net(config, batch, level, options, num_threads)
        self.base = baseline_net(config, batch, baseline_cls, self.cnet)
        self.has_loss = any(
            type(s).__name__ == "SoftmaxLossSpec" for s in config.layers
        )
        if not self.has_loss:
            out_name = self._latte_output_name()
            shape = self.cnet.value(out_name).shape
            self._g = np.random.default_rng(2).standard_normal(
                shape
            ).astype(np.float32)
            self._out_name = out_name

    def _latte_output_name(self):
        # last non-data ensemble in topological order
        order = self.cnet.net.topological_order()
        return order[-1].name

    # Latte ------------------------------------------------------------

    def latte_forward(self):
        if self.has_loss:
            self.cnet.forward(data=self.x, label=self.y)
        else:
            self.cnet.forward(data=self.x)

    def latte_backward(self):
        if self.has_loss:
            self.cnet.clear_param_grads()
            self.cnet.backward()
        else:
            self.cnet.clear_param_grads()
            self.cnet.backward(seed_grads={self._out_name: self._g})

    def latte_fwd_bwd(self):
        self.latte_forward()
        self.latte_backward()

    # Baseline ----------------------------------------------------------

    def base_forward(self):
        if self.has_loss:
            self.base.forward(self.x, self.y)
        else:
            self.base.forward(self.x)

    def base_backward(self):
        self.base.clear_grads()
        if self.has_loss:
            self.base.backward()
        else:
            self.base.backward_from(self._g)

    def base_fwd_bwd(self):
        self.base_forward()
        self.base_backward()


# -- memory measurement ------------------------------------------------------

MEMORY_JSON = os.path.join(RESULTS_DIR, "BENCH_memory.json")


def measure_memory(config: ModelConfig, batch: int, level: int = 4,
                   num_threads: int = 1, keep_alive=None,
                   mode: str = "train") -> Dict[str, int]:
    """Peak bytes for one build + forward/backward of ``config``:
    ``tracemalloc_peak`` (every Python/NumPy allocation during compile,
    init, and one iteration) plus the compile-time planner accounting
    (``naive_bytes``/``planned_bytes``/``arena_bytes`` from
    :meth:`CompiledNet.memory_stats` — byte-addressed, so reduced
    element sizes show up directly). ``mode="inference"`` compiles
    forward-only (gradient buffers pruned, no backward run) — the
    ``--inference`` benchmark axis."""
    x, y = make_inputs(config, batch)
    inference = mode == "inference"
    tracemalloc.start()
    try:
        seed_all(1)
        built = build_latte(config, batch)
        options = (CompilerOptions.inference(level)
                   if inference else CompilerOptions.level(level))
        cnet = built.init(options, num_threads=num_threads,
                          keep_alive=keep_alive)
        cnet.training = False
        has_loss = any(
            type(s).__name__ == "SoftmaxLossSpec" for s in config.layers
        )
        if has_loss:
            cnet.forward(data=x, label=y)
        else:
            cnet.forward(data=x)
        if not inference:
            cnet.clear_param_grads()
            cnet.backward()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stats = cnet.memory_stats()
    cnet.close()
    return {
        "tracemalloc_peak": int(peak),
        "naive_bytes": int(stats["naive_bytes"]),
        "planned_bytes": int(stats["planned_bytes"]),
        "arena_bytes": int(stats["arena_bytes"]),
    }


def record_memory(figure: str, per_model: Dict[str, Dict[str, int]]) -> None:
    """Merge one figure's per-model memory measurements into
    ``benchmarks/results/BENCH_memory.json`` (keyed by figure name, so
    repeated runs overwrite their own section only)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data: Dict[str, dict] = {}
    if os.path.exists(MEMORY_JSON):
        with open(MEMORY_JSON) as f:
            data = json.load(f)
    data[figure] = per_model
    with open(MEMORY_JSON, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
