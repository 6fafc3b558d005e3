"""Replay minimized fuzzer reproducers under the differential oracle.

Every ``tests/regressions/repro_*.json`` (written by
``repro.testing.minimize.save_reproducer``, usually via the fuzz CLI) is
re-checked here with the full oracle: once a bug is shrunk and committed
it can never silently regress. See ``tests/regressions/README.md``.
The pinned corpus is also replayed through the compiled C
backend: schedules that once broke an optimizer pass are exactly the
ones most likely to stress the native lowering.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.codegen import c_backend
from repro.testing import check_spec, load_reproducer
from repro.testing.oracle import TOLERANCES, run_spec

REGRESSION_DIR = Path(__file__).parent / "regressions"
CASES = sorted(REGRESSION_DIR.glob("repro_*.json"))


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_regression_case(path):
    spec, payload = load_reproducer(path)
    report = check_spec(spec)
    assert report.ok, (
        f"regression {path.name} reproduced "
        f"({payload.get('note', '')}):\n" + report.summary()
    )


@pytest.mark.skipif(
    not c_backend.have_c_toolchain(),
    reason=f"no usable C toolchain: {c_backend.toolchain_error()}",
)
@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_regression_case_c_backend(path):
    # replay under backend="c": the native program must agree with the
    # O0 interpreter within the float-reassociation tier
    spec, _payload = load_reproducer(path)
    tol = TOLERANCES["float32"]
    native = run_spec(spec, level=4, backend="c")
    reference = run_spec(spec, level=0)
    assert np.isfinite(native.loss)
    assert abs(native.loss - reference.loss) <= (
        tol["loss_rtol"] * max(1e-12, abs(reference.loss)))
    np.testing.assert_allclose(native.output, reference.output,
                               rtol=tol["level_rtol"],
                               atol=tol["level_atol"])
    np.testing.assert_allclose(native.dx, reference.dx,
                               rtol=tol["level_rtol"],
                               atol=tol["level_atol"])
    for key in sorted(reference.param_grads):
        np.testing.assert_allclose(native.param_grads[key],
                                   reference.param_grads[key],
                                   rtol=tol["level_param_rtol"],
                                   atol=tol["level_param_atol"],
                                   err_msg=f"d({key})")


def test_corpus_not_empty():
    # the fuzzer has found at least one real bug (max-pool + in-place
    # dropout); its reproducer must stay in the corpus
    assert CASES, f"no reproducers found under {REGRESSION_DIR}"
