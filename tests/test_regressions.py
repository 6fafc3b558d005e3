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

import pytest

from repro.codegen import c_backend
from repro.testing import check_spec, load_reproducer
from repro.testing.oracle import _compare_runs, run_spec

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
    mismatches = []
    _compare_runs("c-vs-O0", run_spec(spec, level=4, backend="c"),
                  run_spec(spec, level=0), mismatches, "level")
    assert not mismatches, "\n".join(str(m) for m in mismatches)


def test_corpus_not_empty():
    # the fuzzer has found at least one real bug (max-pool + in-place
    # dropout); its reproducer must stay in the corpus
    assert CASES, f"no reproducers found under {REGRESSION_DIR}"
