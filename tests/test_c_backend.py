"""Tests for the C/OpenMP backend: rendering and native execution.

``repro.codegen.c_backend`` serves two roles. ``render_items`` renders
the post-optimization schedule in the paper's presentation form
(Figures 9, 10, 12) — never executed, so ``TestCSource`` pins its
*shape*: a compilable-looking OpenMP loop nest with the expected
pragmas, GEMM calls, and padding/copy structure. ``attach_native``
(reached via ``CompilerOptions(backend="c")``) actually compiles the
fused steps with the system toolchain and executes them through ctypes;
the execution classes pin that path against the NumPy backend and the
O0 interpreter over a small model zoo (conv/pool/fc/norm/concat/LSTM),
finite-difference-check a C-compiled net, and verify OpenMP thread
equivalence plus bitwise run-to-run determinism. ``TestBuild`` pins the
build itself: twin steps share kernels, the ``.so`` does not depend on
the worker count, failed and hung compiler processes leave a structured
error and a clean build directory, racing builders converge, the sgemm
hook is defined once across translation units, no kernel ever
allocates (every GEMM runs on its operands where they lie), the build
recipe changes build time but not one bit of a training step, and the
CPU ``-march=native`` resolves to keys both the build directory and the
compile cache. Without a working C compiler the execution tests skip
with the probe's reason and the ``backend="c"`` knob raises
``CBackendUnavailable``.
"""

import os
import re
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.codegen import c_backend
from repro.codegen.c_backend import CBackendUnavailable, have_c_toolchain
from repro.core import Net
from repro.layers import (
    ConvolutionLayer,
    FullyConnectedLayer,
    MaxPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
from repro.optim import CompilerOptions, compile_net
from repro.testing.generator import NetSpec, build_net, make_inputs
from repro.testing.gradcheck import check_input_gradient
from repro.testing.oracle import (
    TOLERANCES,
    _compare_bitwise,
    _compare_runs,
    run_spec,
)
from repro.utils.rng import seed_all


def _conv_net(level=4):
    seed_all(0)
    net = Net(4)
    d = MemoryDataLayer(net, "data", (3, 8, 8))
    label = MemoryDataLayer(net, "label", (1,))
    c = ConvolutionLayer("conv", net, d, 4, 3, pad=1)
    r = ReLULayer("relu", net, c)
    p = MaxPoolingLayer("pool", net, r)
    fc = FullyConnectedLayer("fc", net, p, 3)
    SoftmaxLossLayer("loss", net, fc, label)
    opts = CompilerOptions.level(level)
    opts.min_tile_rows = 2
    return net.init(opts)


class TestCSource:
    def test_sections_and_pragmas(self):
        src = _conv_net().c_source
        assert "// === forward ===" in src
        assert "// === backward ===" in src
        # the parallel pass annotates batch loops with OpenMP pragmas
        assert "#pragma omp for" in src
        assert "collapse(" in src and "schedule(static" in src

    def test_conv_lowering_structure(self):
        src = _conv_net().c_source
        # padding stage, im2col copy, then the pattern-matched GEMM
        assert "// conv.pad" in src
        assert "// conv.copy" in src
        assert re.search(r"gemm\('T', 'N', \d+, \d+, \d+, conv_weights, "
                         r"conv_inputs0, conv_value\)", src)
        # FC layer also pattern-matches to a GEMM
        assert "fc_value" in src and src.count("gemm(") >= 2

    def test_loop_nest_is_well_formed(self):
        src = _conv_net().c_source
        assert src.count("{") == src.count("}")
        # every for loop declares its own int induction variable
        fors = re.findall(r"for \(int (\w+) = ", src)
        assert fors and all(v.isidentifier() for v in fors)
        # pragmas sit directly on a for loop
        for m in re.finditer(r"#pragma omp[^\n]*\n(\s*)(\S+)", src):
            assert m.group(2).startswith("for"), m.group(0)

    def test_deterministic_across_rebuilds(self):
        assert _conv_net().c_source == _conv_net().c_source

    def test_levels_change_rendering(self):
        # O1 has no GEMM pattern-match and no parallel pragmas; O4 does —
        # the rendering reflects the schedule actually executed
        o1 = _conv_net(level=1).c_source
        o4 = _conv_net(level=4).c_source
        assert "gemm(" not in o1
        assert "#pragma omp for" not in o1
        assert o1 != o4

    def test_rendering_does_not_perturb_execution(self):
        x = np.random.default_rng(3).standard_normal(
            (4, 3, 8, 8)).astype(np.float32)
        y = np.zeros((4, 1), np.float32)
        cn = _conv_net()
        loss = cn.forward(data=x, label=y)
        listing = cn.c_source
        assert listing and cn.forward(data=x, label=y) == loss
        assert cn.c_source == listing


# ---------------------------------------------------------------------------
# Native execution (backend="c")
# ---------------------------------------------------------------------------

needs_toolchain = pytest.mark.skipif(
    not have_c_toolchain(),
    reason=f"no usable C toolchain: {c_backend.toolchain_error()}",
)

TOL = TOLERANCES["float32"]


def _spec(seed, batch, input_shape, classes, layers, time_steps=1):
    return NetSpec(seed=seed, batch=batch, input_shape=input_shape,
                   classes=classes, layers=tuple(layers),
                   time_steps=time_steps)


#: hand-picked zoo covering every lowering family the emitter handles:
#: im2col conv + GEMM, max/mean pooling, FC GEMM, batchnorm + LRN
#: windows, concat (inception branches), and the recurrent LSTM cell
ZOO = {
    "conv_pool_fc": _spec(101, 4, (3, 8, 8), 3, [
        {"kind": "conv", "filters": 4, "kernel": 3, "stride": 1, "pad": 1},
        {"kind": "relu"},
        {"kind": "pool", "kernel": 2, "stride": 2, "pad": 0, "mode": "max"},
        {"kind": "fc", "outputs": 6},
    ]),
    "norms": _spec(102, 3, (2, 6, 6), 4, [
        {"kind": "conv", "filters": 3, "kernel": 3, "stride": 1, "pad": 1},
        {"kind": "batchnorm"},
        {"kind": "lrn", "local_size": 3, "alpha": 0.1, "beta": 0.75},
        {"kind": "tanh"},
        {"kind": "pool", "kernel": 2, "stride": 2, "pad": 0,
         "mode": "mean"},
    ]),
    "concat": _spec(103, 2, (2, 5, 5), 3, [
        {"kind": "inception", "branches": [
            [{"kind": "conv", "filters": 2, "kernel": 1, "stride": 1,
              "pad": 0}],
            [{"kind": "conv", "filters": 3, "kernel": 3, "stride": 1,
              "pad": 1}],
        ]},
        {"kind": "relu"},
    ]),
    "lstm": _spec(104, 3, (5,), 3, [
        {"kind": "lstm", "outputs": 4},
        {"kind": "fc", "outputs": 4},
    ], time_steps=3),
    # six identical 16->16 layers: most steps are twins of an earlier
    # one and run its kernel on their own buffers
    "mlp6x16": _spec(105, 4, (16,), 4, [
        {"kind": "fc", "outputs": 16}, {"kind": "relu"},
    ] * 6),
}


def _compile_c(spec, level=4, num_threads=1):
    seed_all(spec.seed)
    opts = CompilerOptions.level(level)
    opts.min_tile_rows = 2
    opts.backend = "c"
    return compile_net(build_net(spec), opts, num_threads=num_threads)


@needs_toolchain
class TestCExecution:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_fwd_bwd_equivalence(self, name):
        # the native program must agree with both the same-level NumPy
        # backend and the O0 scalar interpreter within the
        # float-reassociation tier (forward values, input gradient, and
        # every parameter gradient)
        spec = ZOO[name]
        native = run_spec(spec, level=4, backend="c")
        mismatches = []
        _compare_runs("c-vs-numpy", native, run_spec(spec, level=4),
                      mismatches, TOL["loss_rtol"], TOL["level_rtol"],
                      TOL["level_atol"], TOL["level_param_rtol"],
                      TOL["level_param_atol"])
        _compare_runs("c-vs-O0", native, run_spec(spec, level=0),
                      mismatches, TOL["loss_rtol"], TOL["level_rtol"],
                      TOL["level_atol"], TOL["level_param_rtol"],
                      TOL["level_param_atol"])
        assert not mismatches, "\n".join(str(m) for m in mismatches)

    def test_native_coverage(self):
        # on the conv net every fused step must lower to C — only
        # extern closures (dropout masks, the softmax loss) may stay in
        # Python; a new skip reason here means the emitter regressed
        cnet = _compile_c(ZOO["conv_pool_fc"])
        assert cnet.compiled.c_steps, "no steps lowered to C"
        for step, why in cnet.compiled.c_skipped.items():
            assert "extern closure" in why, f"{step} fell back: {why}"
        assert cnet.compiled.c_exec_source  # stored for cache freeze

    def test_thread_equivalence(self):
        # OpenMP sharding follows the executor's shard bounds, so the
        # same thread tiers as the Python backend apply
        spec = ZOO["conv_pool_fc"]
        serial = run_spec(spec, level=4, backend="c")
        for nt in (2, 4):
            mismatches = []
            _compare_runs(
                f"threads:{nt}",
                run_spec(spec, level=4, num_threads=nt, backend="c"),
                serial, mismatches, TOL["thread_loss_rtol"],
                TOL["thread_fwd_rtol"], TOL["thread_fwd_atol"],
                TOL["thread_param_rtol"], TOL["thread_param_atol"])
            assert not mismatches, "\n".join(str(m) for m in mismatches)

    def test_bitwise_determinism_serial(self):
        # one thread, two full rebuilds: identical bits or the codegen
        # is nondeterministic / reading uninitialized memory
        spec = ZOO["norms"]
        mismatches = []
        _compare_bitwise("repro",
                         run_spec(spec, level=4, backend="c"),
                         run_spec(spec, level=4, backend="c"), mismatches)
        assert not mismatches, "\n".join(str(m) for m in mismatches)

    @pytest.mark.parametrize("name", ["conv_pool_fc", "mlp6x16"])
    def test_gradcheck_on_c_net(self, name):
        # finite differences against the C-compiled net itself — the
        # native backward is checked in its own right, not just against
        # the Python backward (mlp6x16: through shared twin kernels)
        spec = ZOO[name]

        def build_fn():
            return _compile_c(spec)

        x, y = make_inputs(spec)
        failures = check_input_gradient(
            build_fn, x, y, n_indices=3, atol=TOL["fd_atol"],
            rtol=TOL["fd_rtol"], index_seed=spec.seed,
        )
        assert not failures, "\n".join(str(f) for f in failures)


def _fake_cc(tmp_path, monkeypatch, script):
    """Point the probed toolchain at a shell script standing in for
    ``cc``; ``$REAL_CC`` inside it is the real compiler."""
    real = c_backend._probe_toolchain()
    fake = tmp_path / "fake-cc"
    fake.write_text("#!/bin/sh\n" + textwrap.dedent(script).replace(
        "$REAL_CC", real["cc"]))
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setattr(c_backend, "_toolchain",
                        dict(real, cc=str(fake)))


def _build_debris(build):
    """What a failed build left behind, ``.c`` sources aside."""
    return sorted(p.name for p in build.iterdir() if p.suffix != ".c")


def _run_script(script, *argv, **env):
    """Run ``script`` in a fresh interpreter that can import this test
    module (``sys.argv[1]`` is its directory)."""
    here = os.path.dirname(os.path.abspath(__file__))
    prelude = "import sys\nsys.path.insert(0, sys.argv[1])\n"
    return subprocess.Popen(
        [sys.executable, "-c", prelude + textwrap.dedent(script), here,
         *argv],
        env=dict(os.environ, **env), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


@needs_toolchain
class TestBuild:
    @pytest.fixture
    def build(self, tmp_path, monkeypatch):
        d = tmp_path / "cbuild"
        monkeypatch.setenv("REPRO_CBUILD_DIR", str(d))
        return d

    def test_twin_steps_share_kernels(self, build):
        cnet = _compile_c(ZOO["mlp6x16"])
        compiled = cnet.compiled
        assert len(compiled.c_steps) >= 40
        symbols = {compiled.c_symbols.get(s, s) for s in compiled.c_steps}
        assert len(symbols) <= 15
        src = compiled.c_exec_source
        # one definition per distinct kernel, a comment per twin
        assert src.count("\nvoid _step_") == len(symbols)
        twin, owner = next(iter(compiled.c_symbols.items()))
        assert re.search(rf"/\* {twin} \S+: same kernel as {owner} ", src)
        assert f"int {twin}(" not in src
        # a twin passes its own buffers, in its owner's parameter order
        assert compiled.c_steps[twin] != compiled.c_steps[owner]
        assert len(compiled.c_steps[twin]) == len(compiled.c_steps[owner])
        rec = cnet.compile_report["codegen-c"]
        assert rec.rewrites["native_steps"] == len(compiled.c_steps)
        assert rec.rewrites["kernels_unique"] == len(symbols)
        assert rec.rewrites["build_dir_hit"] == 0
        assert rec.rewrites["cc_jobs"] >= 1
        # the slowest unit ran inside the pool's wall time
        assert 0 < rec.rewrites["cc_unit_max_seconds"] \
            <= rec.rewrites["cc_seconds"]
        assert rec.rewrites["so_bytes"] > 0
        assert f"{len(compiled.c_steps)} steps on {len(symbols)} kernels" \
            in cnet.summary()
        cnet.close()

    def test_a_solo_regather_runs_its_forward_twins_kernel(self, build):
        """A staging copy re-gathered in backward, and the pad re-run
        ahead of it, differ from their forward originals by one buffer
        name each, which alpha-renaming erases: same kernels, same
        shared object as a build of the program with no re-gathers in
        it."""
        builds = {}
        for memory_plan in (True, False):
            seed_all(ZOO["conv_pool_fc"].seed)
            cnet = compile_net(build_net(ZOO["conv_pool_fc"]),
                               CompilerOptions(backend="c",
                                               memory_plan=memory_plan))
            builds[memory_plan] = cnet
            cnet.close()
        compiled = builds[True].compiled
        by_label = {s.label: s.name for s in compiled.forward}
        clones = [s for s in compiled.backward
                  if s.label.endswith((".regather", ".pad_fill", ".pad"))]
        assert [s.label for s in clones] == [
            "L0_conv.pad_fill", "L0_conv.pad", "L0_conv.regather"]
        for step, twin in zip(clones, ("L0_conv.pad_fill", "L0_conv.pad",
                                       "L0_conv.copy")):
            assert compiled.c_symbols[step.name] == by_label[twin]
            assert f"void {step.name}(" not in compiled.c_exec_source
        with_re, without = (builds[mp].compile_report["codegen-c"].rewrites
                            for mp in (True, False))
        assert with_re["native_steps"] == without["native_steps"] + 3
        assert with_re["kernels_unique"] == without["kernels_unique"]
        assert with_re["so_bytes"] == without["so_bytes"]

    def test_a_tiled_regather_lives_in_the_weight_gradient_kernel(
            self, build, monkeypatch):
        """Over the staging budget the re-pad and the re-gather are
        units of the batch-tiled weight-gradient group: one kernel pads
        a tile, gathers it into its contracted buffer and multiplies
        it, image by image, where it lies."""
        from repro.optim import tiling

        whole = _compile_c(ZOO["conv_pool_fc"])
        batch, *image = whole.buffers["L0_conv_inputs0_re"].shape
        assert batch == 4 and not whole.plan.contracted
        whole.close()
        # room for two images of the staging buffer: two tiles of two
        monkeypatch.setattr(tiling, "STAGING_TILE_BYTES",
                            2 * 4 * int(np.prod(image)))
        monkeypatch.setattr(tiling, "TILE_GRANULE_BYTES", 1)
        cnet = _compile_c(ZOO["conv_pool_fc"])
        compiled = cnet.compiled
        (step,) = [s for s in compiled.backward if "regather" in s.label]
        assert step.label == ("L0_conv.pad_fill+L0_conv.pad"
                              "+L0_conv.regather+L0_conv.compute")
        assert step.name in compiled.c_steps
        assert {b for b, label in cnet.plan.contracted.items()
                if label == step.label} == {"L0_conv_padsrc0_re",
                                            "L0_conv_inputs0_re"}
        src = compiled.c_exec_source
        body = src[src.index(f"void {step.name}("):]
        body = body[:body.index("\n}\n")]
        assert cnet.plan.buffers["L0_conv_inputs0_re"].tile == 2
        assert cnet.buffers["L0_conv_inputs0_re"].shape == (2, *image)
        assert "for (long long _n_t = 0LL; _n_t < 2LL;" in body
        assert body.count("_latte_gemm_rm(") == 1
        # the weight gradient sums over the hoisted batch letter
        assert re.search(r"for \(long long _n = _lo__n;.*\n\s*_latte_gemm_rm\(",
                         body)
        assert ", 1, _omp);" in body  # accumulating into grad_weights
        cnet.close()

    def test_one_image_tiles_parallelise_the_loop_that_iterates(
            self, build, monkeypatch):
        """A one-image tile's batch loop has one trip: the pragma goes
        on the next loop in, or ``_omp > 1`` would run the nest on one
        thread."""
        from repro.optim import tiling

        monkeypatch.setattr(tiling, "STAGING_TILE_BYTES", 1)
        monkeypatch.setattr(tiling, "TILE_GRANULE_BYTES", 1)
        cnet = _compile_c(ZOO["conv_pool_fc"])
        (step,) = [s for s in cnet.compiled.forward
                   if "L0_conv.copy+L0_conv.compute" in s.label]
        assert cnet.plan.buffers["L0_conv_inputs0"].tile == 1
        src = cnet.compiled.c_exec_source
        lines = src[src.index(f"void {step.name}("):].splitlines()
        at = next(i for i, ln in enumerate(lines)
                  if "for (long long L0_conv_c0w0 = 0LL;" in ln)
        assert "#pragma omp" in lines[at - 1]
        assert "for (long long _n = 0LL; _n < 1LL;" in lines[at - 2]
        cnet.close()

    def test_window_loops_are_never_parallelised(self, build):
        """Batch 1 and one input channel leave a scatter's window loop
        outermost: ``y + w`` lets two of its iterations meet on one
        gradient element, so it gets no pragma (a race under
        ``_omp > 1``: cold and thawed runs differed in the last bit)."""
        spec = _spec(113, 1, (1, 11, 11), 2, [
            {"kind": "conv", "filters": 1, "kernel": 5, "stride": 1,
             "pad": 0}])
        seed_all(spec.seed)
        cnet = compile_net(build_net(spec), CompilerOptions(backend="c"),
                           num_threads=4)
        src = cnet.compiled.c_exec_source
        (step,) = [s for s in cnet.compiled.backward
                   if s.label == "L0_conv.scatter"]
        body = src[src.index(f"void {step.name}("):]
        body = body[:body.index("\n}\n")]
        assert "for (long long L0_conv_c0w1" in body
        assert "#pragma omp" not in body
        cnet.close()

    def test_kernels_never_allocate(self, build):
        """Every GEMM of the zoo and of a Fig-14 vgg is one sgemm call
        on its operands in place — conv operands per image under a loop
        over the batch letter — so no kernel has scratch to fail on."""
        from repro.models import build_latte, vgg_config

        nets = [build_net(spec) for spec in ZOO.values()]
        cfg = vgg_config().scaled(channel_scale=0.25, input_size=64,
                                  classes=100)
        nets.append(build_latte(cfg, 8).net)
        for net in nets:
            for opts in (CompilerOptions(backend="c"),
                         CompilerOptions(backend="c", mode="inference")):
                cnet = compile_net(net, opts)
                src = cnet.compiled.c_exec_source
                assert "malloc" not in src and "free(" not in src
                rec = cnet.compile_report["codegen-c"].rewrites
                assert rec["gemm_inplace"] > 0
                cnet.close()
        # vgg, forward only: eight conv GEMMs and three fc GEMMs
        assert rec["gemm_inplace"] == 11 and rec["gemm_nests"] == 0

    def test_warm_build_dir_spawns_no_compiler(self, build, monkeypatch):
        _compile_c(ZOO["conv_pool_fc"]).close()

        def forbidden(*a, **k):
            raise AssertionError("compiler spawned against a warm dir")

        monkeypatch.setattr(c_backend.subprocess, "Popen", forbidden)
        cnet = _compile_c(ZOO["conv_pool_fc"])
        rec = cnet.compile_report["codegen-c"].rewrites
        assert rec["build_dir_hit"] == 1 and rec["cc_jobs"] == 0
        assert rec["cc_unit_max_seconds"] == 0
        assert "build dir hit" in cnet.summary()
        cnet.close()

    def test_build_recipe_changes_time_not_bits(self, build, monkeypatch):
        """``-O3`` and the shipped recipe are different toolchains to
        the build directory and the cache, and compute the same bits:
        the recipe moves build time only."""
        runs, prints = [], []
        for flags in (["-O3", "-fPIC", "-shared"], c_backend._BASE_FLAGS):
            monkeypatch.setattr(c_backend, "_BASE_FLAGS", flags)
            monkeypatch.setattr(c_backend, "_toolchain", None)
            monkeypatch.setattr(c_backend, "_fingerprint", None)
            prints.append(c_backend.toolchain_fingerprint())
            runs.append(run_spec(ZOO["conv_pool_fc"], level=4, backend="c"))
        assert prints[0] != prints[1]
        assert len([p for p in build.iterdir() if p.suffix == ".so"]) == 2
        mismatches = []
        _compare_bitwise("recipe", runs[0], runs[1], mismatches)
        assert not mismatches, "\n".join(str(m) for m in mismatches)

    def test_resolved_target_keys_the_c_cache_and_the_build(self, build,
                                                           monkeypatch):
        """``-march=native`` names no CPU: a .so built where the
        compiler predefines ``__AVX512F__`` must be a build-dir and a
        cache miss where it does not, or it is installed and crashes."""
        from repro.cache.key import as_builder, cache_key

        spec = ZOO["conv_pool_fc"]

        def keys():
            monkeypatch.setattr(c_backend, "_toolchain", None)
            monkeypatch.setattr(c_backend, "_fingerprint", None)
            return [cache_key(as_builder(spec), spec.batch, opts, 1, None)
                    for opts in (CompilerOptions(backend="c"),
                                 CompilerOptions())
                    ] + [c_backend._artifact("void f(void) {}\n")]

        here = keys()
        monkeypatch.setattr(c_backend, "_target_macros",
                            lambda cc, flags: "#define __AVX512F__ 1")
        elsewhere = keys()
        c_key, numpy_key, so = zip(here, elsewhere)
        assert c_key[0] != c_key[1] and so[0] != so[1]
        assert numpy_key[0] == numpy_key[1]

    def test_so_bytes_independent_of_worker_count(self, tmp_path,
                                                  monkeypatch):
        # partition and link order are functions of the source alone
        src = _compile_c(ZOO["norms"]).compiled.c_exec_source
        assert len(c_backend._translation_units(src)) >= 3
        blobs = []
        for jobs in (1, 2):
            monkeypatch.setenv("REPRO_CBUILD_DIR", str(tmp_path / f"j{jobs}"))
            monkeypatch.setattr(c_backend, "_cc_jobs", lambda j=jobs: j)
            stats = {}
            so = c_backend.compile_shared_object(src, stats)
            assert stats["cc_jobs"] == jobs
            blobs.append(open(so, "rb").read())
        assert blobs[0] == blobs[1]

    def test_failing_unit_is_reported_and_cleaned_up(self, build, tmp_path,
                                                     monkeypatch):
        # k1 fails after its siblings started; they are cancelled
        _fake_cc(tmp_path, monkeypatch, """\
            case "$*" in *k1.c*) echo "k1.c:1: error: injected" >&2
                                 exit 1;; esac
            exec $REAL_CC "$@"
        """)
        with pytest.raises(CBackendUnavailable) as exc:
            _compile_c(ZOO["norms"])
        msg = str(exc.value)
        assert "unit k1" in msg and "error: injected" in msg
        (kept,) = [p for p in build.iterdir() if p.name.endswith(".k1.c")]
        assert str(kept) in msg and "void _step_" in kept.read_text()
        assert _build_debris(build) == []

    def test_hung_compiler_times_out_cleanly(self, build, tmp_path,
                                             monkeypatch):
        pids = tmp_path / "pids"
        _fake_cc(tmp_path, monkeypatch,
                 f"echo $$ >> {pids}\nexec sleep 60\n")
        monkeypatch.setattr(c_backend, "_CC_TIMEOUT", 0.3)
        with pytest.raises(CBackendUnavailable, match="still running"):
            _compile_c(ZOO["conv_pool_fc"])
        assert _build_debris(build) == []
        # no orphan: every spawned process was killed and reaped
        spawned = [int(x) for x in pids.read_text().split()]
        assert spawned
        for pid in spawned:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_vanished_compiler_is_unavailable(self, build, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(c_backend, "_toolchain", dict(
            c_backend._probe_toolchain(), cc=str(tmp_path / "gone-cc")))
        with pytest.raises(CBackendUnavailable, match="cannot run"):
            _compile_c(ZOO["conv_pool_fc"])
        assert _build_debris(build) == []

    def test_racing_builders_converge(self, build):
        # two fresh processes, one empty build dir, the same program
        script = """
            from test_c_backend import ZOO, _compile_c
            from repro.testing.generator import make_inputs
            cnet = _compile_c(ZOO["conv_pool_fc"])
            x, y = make_inputs(ZOO["conv_pool_fc"])
            print(repr(float(cnet.forward(data=x, label=y))))
        """
        procs = [_run_script(script) for _ in range(2)]
        outs = [p.communicate(timeout=300)[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        assert outs[0] == outs[1] and outs[0].strip()
        assert [p.suffix for p in sorted(build.iterdir())] == [".c", ".so"]

    @pytest.mark.parametrize("no_blas", ["", "1"])
    def test_one_sgemm_hook_across_units(self, build, no_blas):
        # GEMM kernels in several units all reach the one hook the
        # runtime unit defines: with BLAS injected they agree with the
        # NumPy backend, without it the portable kernel runs
        script = """
            from test_c_backend import ZOO, TOL, _compile_c
            from repro.codegen import c_backend
            from repro.testing.generator import make_inputs
            from repro.testing.oracle import _compare_runs, run_spec
            spec = ZOO["norms"]
            cnet = _compile_c(spec)
            src = cnet.compiled.c_exec_source
            units = c_backend._translation_units(src)
            calls = [n for n, t in units if "_latte_gemm_rm(_M" in t]
            defs = [n for n, t in units if "latte_set_sgemm(void" in t]
            assert len(calls) >= 2 and defs == ["rt"], (calls, defs)
            assert (c_backend._find_cblas() is None) == bool(sys.argv[2])
            bad = []
            _compare_runs("c-vs-numpy", run_spec(spec, level=4, backend="c"),
                          run_spec(spec, level=4), bad, TOL["loss_rtol"],
                          TOL["level_rtol"], TOL["level_atol"],
                          TOL["level_param_rtol"], TOL["level_param_atol"])
            assert not bad, bad
        """
        proc = _run_script(script, no_blas, REPRO_C_NO_BLAS=no_blas)
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err


class TestToolchainGating:
    def test_unavailable_raises_with_reason(self, monkeypatch):
        # simulate a box with no compiler: the knob must fail loudly at
        # compile time with the probe's reason, not fall back silently
        monkeypatch.setattr(
            c_backend, "_toolchain",
            {"cc": None, "flags": [],
             "why": "no C compiler found (simulated)"})
        assert not have_c_toolchain()
        with pytest.raises(CBackendUnavailable,
                           match="no C compiler found"):
            _compile_c(ZOO["conv_pool_fc"])

    def test_backend_knob_validated(self):
        with pytest.raises(ValueError, match="backend"):
            CompilerOptions(backend="fortran")
