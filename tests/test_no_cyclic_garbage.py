"""A dropped net is freed at once: build -> compile -> run -> close ->
``del`` leaves nothing for the cycle collector.

Every test here runs with the collector off and asserts that a weakref
to a parameter array is dead right after ``del``, then that a full
collection finds nothing. Reference counting alone must free the net,
its compiled program and the generated code (docs/TESTING.md says how
to find a cycle when one of these fails).
"""

import gc
import re
import weakref
from pathlib import Path

import pytest

from repro.cache import compile_cached
from repro.codegen.c_backend import have_c_toolchain
from repro.optim import CompilerOptions
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.testing.digest import CONFIGS, PROGRAMS, ledger_model, ledger_net

#: the scalar O0 interpreter takes seconds to minutes per pass on these
#: (vgg's forward alone: two minutes), so they are compiled at O0 but
#: only run at O4
SLOW_AT_O0 = frozenset(CONFIGS)


@pytest.fixture(autouse=True)
def collector_off():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _drop(cnet, run: bool = True):
    """Run ``cnet`` once (backward too when it trains), close it, drop
    the caller's last reference; returns a weakref to a parameter."""
    if run:
        cnet.forward()
        if cnet.mode == "train":
            cnet.backward()
    param = weakref.ref(cnet.parameters()[0].value)
    cnet.close()
    return param


@pytest.mark.parametrize("name", PROGRAMS)
def test_a_ledger_program_is_freed_by_reference_counting(name):
    for options in (CompilerOptions(), CompilerOptions.inference(),
                    CompilerOptions.level(0)):
        run = options.opt_level > 0 or name not in SLOW_AT_O0
        param = _drop(ledger_net(name).init(options, num_threads=1), run)
        assert param() is None, (name, options)
    assert gc.collect() == 0


def test_a_sharded_run_is_freed():
    cnet = ledger_net("cnn_a").init(CompilerOptions(), num_threads=2)
    assert cnet.num_shards == 2
    param = _drop(cnet)
    del cnet
    assert param() is None
    assert gc.collect() == 0


def test_a_warm_thaw_is_freed(tmp_path):
    cold = compile_cached(*ledger_model("lenet"), cache=str(tmp_path))
    assert not cold.compile_report.cache_hit
    del cold
    gc.collect()
    warm = compile_cached(*ledger_model("lenet"), cache=str(tmp_path))
    assert warm.compile_report.cache_hit
    param = _drop(warm)
    del warm
    assert param() is None
    assert gc.collect() == 0


def test_a_checkpoint_compile_is_freed(tmp_path):
    cnet = ledger_net("lenet").init(CompilerOptions(), num_threads=1)
    path = str(tmp_path / "m.npz")
    save_checkpoint(path, cnet, config=ledger_model("lenet")[0])
    del cnet
    gc.collect()
    served = load_checkpoint(path).compile(8)
    param = _drop(served)
    del served
    assert param() is None
    assert gc.collect() == 0


@pytest.mark.skipif(not have_c_toolchain(), reason="no C toolchain")
@pytest.mark.parametrize("name", ["lenet", "mlp6x16"])
def test_a_second_native_compile_is_freed(name):
    # the first compile may load the library and cache its typed
    # kernels with it; the second must leave nothing behind
    _drop(ledger_net(name).init(CompilerOptions(backend="c"),
                                num_threads=1))
    gc.collect()
    param = _drop(ledger_net(name).init(CompilerOptions(backend="c"),
                                        num_threads=1))
    assert param() is None
    assert gc.collect() == 0


def test_the_package_never_drives_the_collector():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    calls = [f"{path.relative_to(src)}: {line.strip()}"
             for path in sorted(src.rglob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(r"\bimport gc\b|\bgc\.\w+\(", line)]
    assert calls == []
