"""Differential-testing entry points (tier-1 fixed-seed corpus).

The fuzz CLI explores fresh seeds; this file pins a fixed corpus so CI
exercises the generator/oracle/shrinker stack deterministically:

* a seeded corpus of random networks, each run through the full oracle
  (opt levels vs O0, thread counts vs serial, finite-difference
  gradients, baseline parity, compiled C backend parity when a
  toolchain is present);
* generator invariants: determinism, JSON round-trips, validity over a
  wide seed range, family coverage;
* oracle self-tests: an injected runtime bug must be caught *and*
  shrink to a tiny reproducer;
* shrinker unit tests against a pure predicate (no nets built).
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.testing import (
    NetSpec,
    assert_spec_ok,
    check_spec,
    infer_shapes,
    inject_bug,
    load_reproducer,
    random_spec,
    save_reproducer,
    shrink,
)

# fixed-seed corpus: one handful of each family, cheap enough for tier-1
CORPUS_SEEDS = list(range(12))


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_spec_passes_oracle(seed):
    assert_spec_ok(random_spec(seed))


class TestGenerator:
    def test_deterministic(self):
        a, b = random_spec(42), random_spec(42)
        assert a == b

    def test_distinct_seeds_distinct_specs(self):
        specs = {random_spec(s).to_json() for s in range(20)}
        assert len(specs) > 10  # collisions allowed, mass duplication not

    def test_json_round_trip(self):
        for seed in range(10):
            spec = random_spec(seed)
            again = NetSpec.from_json(spec.to_json())
            assert again == spec
            assert infer_shapes(again) == infer_shapes(spec)

    def test_wide_seed_range_is_valid(self):
        # every generated spec must satisfy the geometry validator the
        # shrinker relies on
        for seed in range(60):
            spec = random_spec(seed)
            shapes = infer_shapes(spec)
            assert shapes, spec.describe()

    def test_family_coverage(self):
        kinds = set()
        for seed in range(60):
            spec = random_spec(seed)
            if spec.recurrent:
                kinds.add("recurrent")
            elif any(ld["kind"] == "inception" for ld in spec.layers):
                kinds.add("inception")
            elif len(spec.input_shape) == 3:
                kinds.add("cnn")
            else:
                kinds.add("mlp")
        assert {"cnn", "mlp", "recurrent"} <= kinds

    def test_family_restriction(self):
        for seed in range(10):
            spec = random_spec(seed, families=("mlp",))
            assert len(spec.input_shape) == 1 and not spec.recurrent


class TestInjectedBugs:
    """The oracle must catch a deliberately broken runtime (self-test:
    if these fail, the fuzzer is a no-op)."""

    def _failing_spec(self):
        # conv nets with batch >= 2 exercise privatized weight-gradient
        # accumulators under batch sharding
        for seed in range(20):
            spec = random_spec(seed, families=("cnn",))
            if spec.batch >= 2:
                return spec
        raise AssertionError("no batch>=2 cnn spec in seed range")

    def test_drop_private_reduce_is_caught_and_shrinks_small(self):
        spec = self._failing_spec()
        with inject_bug("drop-private-reduce"):
            report = check_spec(spec, levels=(), threads=(2,),
                                gradcheck_indices=0, baselines=False)
            assert not report.ok
            small = shrink(
                spec,
                lambda s: not check_spec(s, levels=(), threads=(2,),
                                         gradcheck_indices=0,
                                         baselines=False).ok,
                max_evals=120,
            )
        # ISSUE acceptance bar: the minimized reproducer is tiny
        assert len(small.layers) <= 3, small.describe()
        # and passes once the bug is gone
        assert check_spec(small, levels=(), threads=(2,),
                          gradcheck_indices=0, baselines=False).ok

    def test_overlapping_shards_is_caught(self):
        spec = self._failing_spec()
        with inject_bug("overlapping-shards"):
            report = check_spec(spec, levels=(), threads=(2, 4),
                                gradcheck_indices=0, baselines=False)
        assert not report.ok

    def test_group_slab_overlap_is_caught(self):
        """Forward-only, this spec's two 3x3 conv layers run one batch
        tile, so the second layer's chain joins the first's group; a
        planner that takes every two buffers contracted to the group
        for disjoint overlays the layers' live tiles, and the
        ``batchtile-inference`` check sees the output move."""
        from repro.optim import CompilerOptions
        from repro.testing.generator import build_net
        from repro.testing.oracle import batch_tiles
        from repro.utils.rng import seed_all

        spec = random_spec(34)
        seed_all(spec.seed)
        with batch_tiles():
            cnet = build_net(spec).init(CompilerOptions.inference())
        assert cnet.compile_report["fusion"].rewrites["chains_joined"] == 1
        kwargs = dict(levels=(), threads=(), gradcheck_indices=0,
                      baselines=False, cbackend=False, quant=False)
        assert check_spec(spec, **kwargs).ok
        with inject_bug("group-slab-overlap"):
            report = check_spec(spec, **kwargs)
        assert "batchtile-inference" in {m.check for m in report.mismatches}

    def test_arena_overlap_is_caught_by_the_static_check(self):
        """Two buffers live at once, placed at one offset: the static
        ``arena`` check rejects the first compile that pools them and
        names both, before any numeric comparison runs."""
        from repro.optim import CompilerOptions
        from repro.testing.generator import build_net
        from repro.testing.oracle import arena_fault
        from repro.utils.rng import seed_all

        spec = self._failing_spec()
        kwargs = dict(levels=(), threads=(), gradcheck_indices=0,
                      baselines=False, cbackend=False, quant=False)
        assert check_spec(spec, **kwargs).ok
        with inject_bug("arena-overlap"):
            report = check_spec(spec, **kwargs)
            seed_all(spec.seed)
            cnet = build_net(spec).init(CompilerOptions())
        assert [m.check for m in report.mismatches] == ["arena"]
        fault = arena_fault(cnet.plan)
        assert fault.endswith("share bytes while both are live")
        a, b = fault.split()[0], fault.split(" and ")[1].split()[0]
        mem = cnet.plan.memory
        assert mem.offsets[a] == mem.offsets[b]
        assert mem.intervals[a].overlaps(mem.intervals[b])

    def test_calibration_compile_is_arena_checked(self):
        """The int8 tier's calibration compile goes through the same
        arena check as every other compile the oracle makes."""
        from repro.testing.oracle import ArenaFault, calibrate_spec

        spec = random_spec(5)  # an LSTM: pooled buffers live together
        assert calibrate_spec(spec, 4).batches == 1
        with inject_bug("arena-overlap"):
            with pytest.raises(ArenaFault):
                calibrate_spec(spec, 4)

    def test_recompute_skipped_is_caught_on_a_max_pool_spec(self):
        """The backward readers of a recomputed pooled value read a
        buffer nothing defines once its clones are dropped: the
        planned programs' gradients move against the O0 interpreter."""
        from repro.optim import CompilerOptions
        from repro.testing.generator import build_net
        from repro.utils.rng import seed_all

        spec = random_spec(2_200_001)  # conv -> maxpool -> conv -> ...
        assert "maxpool" in spec.describe()
        seed_all(spec.seed)
        cnet = build_net(spec).init(CompilerOptions())
        assert cnet.plan.memory.rematerialized["L1_pool_value"].recomputed
        kwargs = dict(levels=(3, 4), threads=(), gradcheck_indices=0,
                      baselines=False, cbackend=False, quant=False)
        assert check_spec(spec, **kwargs).ok
        with inject_bug("recompute-skipped"):
            report = check_spec(spec, **kwargs)
        assert {"level:3", "level:4", "memplan"} <= {
            m.check for m in report.mismatches}

    def test_stats_dropped_is_caught_on_a_batchnorm_spec(self):
        """A checkpoint that leaves the running statistics behind cannot
        rebuild the trained net: the ``checkpoint`` tier, and only it,
        fails."""
        spec = random_spec(2_200_000)  # the first spec of seed 22
        assert "batchnorm" in spec.describe()
        kwargs = dict(levels=(4,), threads=(), gradcheck_indices=0,
                      baselines=False, cbackend=False, quant=False)
        assert check_spec(spec, **kwargs).ok
        with inject_bug("stats-dropped"):
            report = check_spec(spec, **kwargs)
        assert {m.check for m in report.mismatches} == {"checkpoint"}

    def test_an_injected_failure_is_no_regression_case(self, capsys):
        """Without ``--out-dir``, the fuzz CLI writes the reproducer of a
        failure it caused on purpose to a fresh temporary directory and
        prints it; ``tests/regressions/`` is left as it was."""
        import shutil

        from repro.testing.fuzz import make_parser, run_fuzz
        from repro.testing.minimize import REGRESSION_DIR

        before = sorted(REGRESSION_DIR.iterdir())
        args = make_parser().parse_args([
            "--seed", "22", "--budget", "2", "--no-shrink", "-q",
            "--inject-bug", "recompute-skipped", "--levels", "4",
            "--threads", "", "--grad-indices", "0", "--no-baselines",
            "--no-cbackend"])
        assert run_fuzz(args) == 1
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("reproducer written to ")]
        path = Path(line.removeprefix("reproducer written to "))
        try:
            assert path.is_file()
            assert path.parent != REGRESSION_DIR.resolve()
            assert sorted(REGRESSION_DIR.iterdir()) == before
        finally:
            shutil.rmtree(path.parent)

    def test_unknown_bug_name_rejected(self):
        with pytest.raises(KeyError):
            with inject_bug("no-such-bug"):
                pass


class TestShrinker:
    """Unit tests with pure predicates — no networks are compiled."""

    def test_shrinks_to_single_guilty_layer(self):
        spec = random_spec(0, families=("cnn",))
        assert any(ld["kind"] == "conv" for ld in spec.layers)

        def fails(s):
            return any(ld["kind"] == "conv" for ld in s.layers)

        small = shrink(spec, fails)
        assert sum(ld["kind"] == "conv" for ld in small.layers) == 1
        assert small.batch == 1
        assert small.classes == 2

    def test_result_is_one_minimal(self):
        spec = random_spec(1, families=("cnn",))

        def fails(s):
            return len(s.layers) >= 2

        small = shrink(spec, fails)
        assert len(small.layers) == 2

    def test_respects_eval_budget(self):
        spec = random_spec(2, families=("cnn",))
        evals = []

        def fails(s):
            evals.append(1)
            return True

        shrink(spec, fails, max_evals=7)
        assert len(evals) <= 7

    def test_never_returns_invalid_spec(self):
        spec = random_spec(3, families=("inception",))
        small = shrink(spec, lambda s: True, max_evals=60)
        infer_shapes(small)  # must not raise, even at zero layers


class TestReproducerIO:
    def test_save_load_round_trip(self, tmp_path):
        spec = random_spec(5)
        path = save_reproducer(spec, note="unit test",
                               failures=["[level:3] synthetic"],
                               directory=tmp_path)
        loaded, payload = load_reproducer(path)
        assert loaded == spec
        assert payload["note"] == "unit test"
        assert payload["failures"] == ["[level:3] synthetic"]

    def test_same_spec_same_file(self, tmp_path):
        spec = random_spec(6)
        p1 = save_reproducer(spec, directory=tmp_path)
        p2 = save_reproducer(spec, note="different note",
                             directory=tmp_path)
        assert p1 == p2  # content-hashed filename: idempotent re-finds


class TestOracleReporting:
    def test_report_lists_every_check(self):
        """Every check, in the order of docs/TESTING.md's table: a row
        dropped or moved fails here. The ``cbackend*`` rows run only
        where a C toolchain does."""
        from repro.codegen.c_backend import have_c_toolchain

        report = check_spec(random_spec(11), levels=(1, 2, 3, 4),
                            threads=(2, 4))
        assert report.ok, report.summary()
        expected = [
            "arena", "level:0", "level:1", "level:2", "level:3", "level:4",
            "memplan", "memplan-kept", "batchtile", "batchtile-memplan",
            "batchtile-kept", "batchtile-threads:4", "batchtile-inference",
            "batchtile-inference-threads:4", "inference", "cache",
            "checkpoint", "quant:fp16", "quant:fp16-repro", "quant:int8",
            "quant:int8-repro", "cbackend", "cbackend-vs-numpy",
            "cbackend-batchtile", "cbackend-repro", "cbackend-cache",
            "cbackend-threads:4", "threads:2", "repro-threads:2",
            "memplan-threads:2", "threads:4", "gradcheck"]
        if not have_c_toolchain():
            expected = [c for c in expected if not c.startswith("cbackend")]
        assert report.checks == expected

    def test_run_to_run_rows_compare_two_compiles(self, monkeypatch):
        """``repro-threads:N``, ``cbackend-repro`` and the second half of
        ``cbackend-threads:N`` compile their configuration again: no row
        compares a run with itself."""
        from repro.codegen.c_backend import have_c_toolchain
        from repro.testing import oracle

        compared, compare = [], oracle._compare_runs

        def recording(check, got, want, out, tier):
            compared.append((check, got is want))
            compare(check, got, want, out, tier)

        monkeypatch.setattr(oracle, "_compare_runs", recording)
        report = check_spec(random_spec(0, families=("mlp",)), levels=(4,),
                            threads=(2,), gradcheck_indices=0,
                            baselines=False, quant=False)
        assert report.ok, report.summary()
        assert not [c for c, same in compared if same], compared
        rows = [c for c, _ in compared]
        assert "repro-threads:2" in rows
        if have_c_toolchain():
            assert "cbackend-repro" in rows
            assert rows.count("cbackend-threads:2") == 2

    def test_one_shard_is_compared_bitwise(self):
        """A threaded run the executor split into one shard is the
        serial program: a last-ulp difference the thread tiers accept
        is a mismatch there."""
        from repro.testing.oracle import RunResult, _compare_runs

        out = np.ones(3, np.float32)
        serial = RunResult(1.0, out, out, {})
        nudged = np.nextafter(out, np.float32(2))
        for shards, caught in ((1, True), (2, False)):
            found = []
            _compare_runs("threads:2",
                          RunResult(1.0, nudged, out, {}, shards=shards),
                          serial, found, "threaded")
            assert bool(found) == caught, (shards, found)

    def test_differing_parameter_sets_are_one_mismatch(self):
        """A bitwise compare of runs with different parameter gradients
        is a ``Mismatch`` the fuzz CLI can shrink, not a ``KeyError`` out
        of ``check_spec``, whichever run lacks the gradient."""
        from repro.testing.oracle import RunResult, _compare_runs

        out = np.ones(3, np.float32)
        grads = ({"fc.weights": out}, {"fc.weights": out, "fc.bias": out})
        for got, want in (grads, grads[::-1]):
            found = []
            _compare_runs("cbackend-repro", RunResult(1.0, out, out, got),
                          RunResult(1.0, out, out, want), found, "bitwise")
            assert [str(m) for m in found] == [
                "[cbackend-repro] parameter sets differ"]

    def test_cbackend_checks_run_when_toolchain_present(self):
        # the corpus run above must actually pin the C backend wherever
        # a toolchain exists — guard against the auto-detection silently
        # turning the whole check family off
        from repro.codegen.c_backend import have_c_toolchain

        # batch 1: ``cbackend-threads:2`` cannot shard, so it runs the
        # serial program and is compared bitwise (the corpus's other
        # batches run it on executor shards)
        spec = dataclasses.replace(random_spec(0, families=("mlp",)),
                                   batch=1)
        report = check_spec(spec, levels=(4,), threads=(2,),
                            gradcheck_indices=0, baselines=False,
                            quant=False)
        names = set(report.checks)
        expected = {"cbackend", "cbackend-vs-numpy", "cbackend-repro",
                    "cbackend-cache", "cbackend-threads:2"}
        if have_c_toolchain():
            assert report.ok, report.summary()
            assert expected <= names, report.checks
        else:
            assert not (expected & names), report.checks
        # and the explicit opt-out always wins
        off = check_spec(spec, levels=(4,), threads=(),
                         gradcheck_indices=0, baselines=False,
                         cbackend=False, quant=False)
        assert not (expected & set(off.checks))

    def test_batch_tile_checks_run_and_engage_the_tiler(self):
        """``batchtile*``: the corpus's conv chains tiled along the
        batch, fused and contracted under the oracle's patched budget —
        not a configuration that silently compiles the untiled
        program."""
        from repro.codegen.c_backend import have_c_toolchain
        from repro.optim import CompilerOptions
        from repro.testing.generator import build_net
        from repro.testing.oracle import batch_tiles
        from repro.utils.rng import seed_all

        spec = random_spec(11)  # conv net, batch 4
        report = check_spec(spec, levels=(4,), threads=(2,),
                            gradcheck_indices=0, baselines=False,
                            quant=False)
        assert report.ok, report.summary()
        expected = {"batchtile", "batchtile-memplan", "batchtile-kept",
                    "batchtile-threads:2", "batchtile-inference",
                    "batchtile-inference-threads:2"}
        if have_c_toolchain():
            expected.add("cbackend-batchtile")
        assert expected <= set(report.checks), report.checks
        # every ensemble kept inspectable (``batchtile-kept``)
        seed_all(spec.seed)
        with batch_tiles():
            net = build_net(spec)
            cnet = net.init(CompilerOptions.level(4),
                            keep_alive=list(net.ensembles))
        # per conv layer: both padded inputs, both im2col copies and the
        # gradient input
        assert len(cnet.plan.contracted) == 10
        # each conv layer's pad fill, pad, copy, GEMM, bias and tanh, its
        # re-pad + re-gather + weight-gradient chain of four units and
        # its data-gradient chain of two
        assert cnet.compile_report["tiling"].rewrites["units_tiled"] == 24
        assert all(cnet.buffers[b].shape[0] == cnet.plan.buffers[b].tile < 4
                   for b in cnet.plan.contracted)
        # at the default only the contract is kept: the second layer
        # re-pads from a value the arena holds (``batchtile``)
        seed_all(spec.seed)
        with batch_tiles():
            pooled = build_net(spec).init(CompilerOptions.level(4))
        remat = pooled.plan.memory.rematerialized["L3_conv_inputs0"]
        assert remat.padded == "L3_conv_padsrc0_re"
        assert remat.source in pooled.plan.memory.pooled
        # forward-only, a value and both padded inputs are contracted too
        seed_all(spec.seed)
        with batch_tiles():
            inf = build_net(spec).init(CompilerOptions.inference())
        assert {b: inf.plan.buffers[b].role for b in inf.plan.contracted
                if inf.plan.buffers[b].role != "input"} == {
            "L0_conv_value": "value", "L0_conv_padsrc0": "padded",
            "L3_conv_padsrc0": "padded"}
        seed_all(spec.seed)
        assert not build_net(spec).init(
            CompilerOptions.level(4)).plan.contracted

    def test_run_results_are_finite(self):
        from repro.testing import run_spec

        spec = random_spec(1, families=("mlp",))
        res = run_spec(spec, level=2)
        assert np.isfinite(res.loss)
        assert np.isfinite(res.output).all()
        assert np.isfinite(res.dx).all()
