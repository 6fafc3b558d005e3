#!/usr/bin/env python
"""Native C/OpenMP backend vs the NumPy backend on the fig14 models.

This is the ``c-backend`` CI job body, runnable locally::

    PYTHONPATH=src python benchmarks/c_backend_smoke.py

For each fig14 evaluation model (AlexNet, OverFeat, VGG at
:data:`harness.BENCH_GEOMETRY`) it compiles the same level-4 schedule
twice — once per backend — and then:

* **parity** — identical seeds give identical parameters and inputs, so
  one training step on each backend must agree on the loss, every
  ensemble parameter gradient, and the data gradient within the oracle's
  float-reassociation tier (``TOLERANCES["float32"]`` level tiers);
* **coverage** — every fused step must lower to native code except
  extern closures (dropout masks, softmax loss);
* **build** — the first compile runs against an empty build directory
  and records its cold ``cc`` seconds (the pool's and its slowest
  translation unit's), unique/total kernels, the in-kernel thread count
  and the parallel regions printed for it, and the translation-unit
  count (the ``codegen-c`` compile-report row); a
  second compile of the same model must then find the shared object in
  the build directory and spawn no compiler process at all;
* **speed** — median forward and forward+backward wall times; the
  geometric-mean forward+backward speedup across the three models must
  reach :data:`MIN_SPEEDUP` (the acceptance bar is "a measured
  speedup", so the gate sits just above parity — the measured margin is
  far larger, but CI boxes are noisy and share cores).

Measurements land in ``benchmarks/results/BENCH_c_backend.json``.
Without a usable C toolchain the script exits 0 with a skip note (CI
boxes without ``cc`` should not fail the job).
"""

import json
import math
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))
from harness import (  # noqa: E402
    BENCH_GEOMETRY,
    Runners,
    median_time,
    record_c_backend,
)

from repro.codegen import c_backend  # noqa: E402
from repro.models import (  # noqa: E402
    alexnet_config,
    overfeat_config,
    vgg_config,
)
from repro.optim import CompilerOptions  # noqa: E402
from repro.testing.oracle import TOLERANCES  # noqa: E402

FACTORIES = {
    "alexnet": alexnet_config,
    "overfeat": overfeat_config,
    "vgg": vgg_config,
}

#: geometric-mean fwd+bwd speedup the native backend must reach
MIN_SPEEDUP = 1.05

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
WARMUP = 2
TOL = TOLERANCES["float32"]


def _config(name):
    scale, size, batch = BENCH_GEOMETRY[name]
    cfg = FACTORIES[name]().scaled(channel_scale=scale, input_size=size,
                                   classes=100)
    return cfg, batch


def _runners(name, backend, num_threads):
    cfg, batch = _config(name)
    opts = CompilerOptions.level(4)
    opts.backend = backend
    return Runners(cfg, batch, level=4, options=opts,
                   num_threads=num_threads)


def _grad_state(runners):
    """One training step -> (loss, data gradient, parameter grads)."""
    cnet = runners.cnet
    loss = float(cnet.forward(data=runners.x, label=runners.y))
    cnet.clear_param_grads()
    cnet.backward()
    return (loss, cnet.grad("data").copy(),
            {p.key: p.grad.copy() for p in cnet.parameters()})


def _check_parity(name, numpy_r, c_r, failures):
    n_loss, n_dx, n_grads = _grad_state(numpy_r)
    c_loss, c_dx, c_grads = _grad_state(c_r)
    if abs(c_loss - n_loss) > TOL["loss_rtol"] * max(1e-12, abs(n_loss)):
        failures.append(f"{name}: loss {c_loss!r} vs numpy {n_loss!r}")
    try:
        np.testing.assert_allclose(c_dx, n_dx, rtol=TOL["level_rtol"],
                                   atol=TOL["level_atol"])
        for key in sorted(n_grads):
            np.testing.assert_allclose(
                c_grads[key], n_grads[key],
                rtol=TOL["level_param_rtol"],
                atol=TOL["level_param_atol"], err_msg=f"d({key})")
    except AssertionError as exc:
        failures.append(f"{name}: gradient parity: {exc}")
    return n_loss


def _coverage(c_r, name, failures):
    compiled = c_r.cnet.compiled
    if not compiled.c_steps:
        failures.append(f"{name}: no steps lowered to C")
    for step, why in compiled.c_skipped.items():
        if "extern closure" not in why:
            failures.append(f"{name}: {step} fell back to Python: {why}")
    return {"native_steps": len(compiled.c_steps),
            "python_steps": len(compiled.c_skipped)}


def _build_record(c_r, name, num_threads, failures):
    """The cold build's counters, then the same compile again: the
    build directory is warm now, so no compiler may run."""
    cold = c_r.cnet.compile_report["codegen-c"].rewrites
    if cold["build_dir_hit"]:
        failures.append(f"{name}: first compile found a warm build dir")
    again = _runners(name, "c", num_threads)
    warm = again.cnet.compile_report["codegen-c"].rewrites
    again.cnet.close()
    if not warm["build_dir_hit"] or warm["cc_jobs"]:
        failures.append(f"{name}: a warm build dir spawned cc ({warm})")
    return {"cc_seconds": round(cold["cc_seconds"], 3),
            "cc_unit_max_seconds": round(cold["cc_unit_max_seconds"], 3),
            "link_seconds": round(cold["link_seconds"], 3),
            "cc_jobs": cold["cc_jobs"],
            "kernels_unique": cold["kernels_unique"],
            "omp_threads": cold["omp_threads"],
            "parallel_regions": cold["parallel_regions"],
            "translation_units": cold["translation_units"],
            "so_bytes": cold["so_bytes"]}


def main(num_threads: int = 1) -> int:
    if not c_backend.have_c_toolchain():
        print(f"SKIP c-backend smoke: {c_backend.toolchain_error()}")
        return 0

    failures = []
    models = {}
    # an empty build directory: cc_seconds below is a cold build
    scratch = tempfile.TemporaryDirectory(prefix="repro-cbuild-smoke-")
    os.environ["REPRO_CBUILD_DIR"] = scratch.name
    for name in sorted(FACTORIES):
        numpy_r = _runners(name, "numpy", num_threads)
        c_r = _runners(name, "c", num_threads)
        loss = _check_parity(name, numpy_r, c_r, failures)
        coverage = _coverage(c_r, name, failures)
        build = _build_record(c_r, name, num_threads, failures)

        n_fwd = median_time(numpy_r.latte_forward, REPEATS, WARMUP)
        c_fwd = median_time(c_r.latte_forward, REPEATS, WARMUP)
        n_fb = median_time(numpy_r.latte_fwd_bwd, REPEATS, WARMUP)
        c_fb = median_time(c_r.latte_fwd_bwd, REPEATS, WARMUP)
        models[name] = {
            "loss": loss,
            "numpy_forward_ms": round(n_fwd * 1e3, 3),
            "c_forward_ms": round(c_fwd * 1e3, 3),
            "forward_speedup": round(n_fwd / c_fwd, 3),
            "numpy_fwd_bwd_ms": round(n_fb * 1e3, 3),
            "c_fwd_bwd_ms": round(c_fb * 1e3, 3),
            "fwd_bwd_speedup": round(n_fb / c_fb, 3),
            **coverage,
            **build,
        }
        print(f"{name:9s} fwd {n_fwd * 1e3:7.2f} -> {c_fwd * 1e3:7.2f}ms "
              f"({n_fwd / c_fwd:.2f}x)  fwd+bwd {n_fb * 1e3:7.2f} -> "
              f"{c_fb * 1e3:7.2f}ms ({n_fb / c_fb:.2f}x)  cold cc "
              f"{build['cc_seconds']:.2f}s (slowest unit "
              f"{build['cc_unit_max_seconds']:.2f}s): "
              f"{coverage['native_steps']} steps"
              f" on {build['kernels_unique']} kernels in "
              f"{build['translation_units']} units, {build['cc_jobs']} jobs",
              flush=True)
    scratch.cleanup()

    geomean = math.exp(sum(math.log(m["fwd_bwd_speedup"])
                           for m in models.values()) / len(models))
    if geomean < MIN_SPEEDUP:
        failures.append(
            f"geomean fwd+bwd speedup {geomean:.2f}x below the "
            f"{MIN_SPEEDUP}x gate")

    payload = {
        "figure": "fig14",
        "backend": "c",
        "num_threads": num_threads,
        "repeats": REPEATS,
        "blas": not os.environ.get("REPRO_C_NO_BLAS"),
        "models": models,
        "geomean_fwd_bwd_speedup": round(geomean, 3),
        "min_speedup": MIN_SPEEDUP,
        "ok": not failures,
    }
    record_c_backend(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"c-backend smoke OK: geomean fwd+bwd speedup {geomean:.2f}x "
          f"over the NumPy backend")
    return 0


if __name__ == "__main__":
    sys.exit(main(num_threads=int(os.environ.get("REPRO_NUM_THREADS", "1"))))
