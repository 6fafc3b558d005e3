"""Host fingerprint: what machine and toolchain a ledger row came from."""

from __future__ import annotations

import os
import platform
import subprocess
import time

import numpy as np

from repro.codegen import c_backend
from stats import median

#: calibration GEMM (the loop from perf_smoke.py): big enough to hit
#: BLAS, small enough to finish in tens of milliseconds
_CAL_N = 192
_CAL_REPS = 24


def gemm_calibration_ms() -> float:
    """Median wall of the reference GEMM loop on this host. Recorded
    beside the metrics, never applied to them: rows from two hosts, or
    from two moods of one shared host, compare only where it agrees."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((_CAL_N, _CAL_N)).astype(np.float32)
    b = rng.standard_normal((_CAL_N, _CAL_N)).astype(np.float32)
    samples = []
    for _ in range(10):
        t0 = time.perf_counter()
        c = a
        for _ in range(_CAL_REPS):
            c = a @ b
        samples.append(time.perf_counter() - t0)
    del c
    return 1e3 * median(samples[1:])  # first loop warms BLAS


def _blas_name() -> str:
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def git_sha(root: str) -> str:
    """HEAD of the checkout, or ``"none"`` outside a git repository
    (the driver's checkout is not one)."""
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "none"


def fingerprint(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "cc": c_backend.toolchain_fingerprint(),
        "git_sha": git_sha(root),
        "gemm_calib_ms": gemm_calibration_ms(),
    }
