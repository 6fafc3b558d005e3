"""Differential-testing entry points (tier-1 fixed-seed corpus).

The fuzz CLI explores fresh seeds; this file pins a fixed corpus so CI
exercises the generator/oracle/shrinker stack deterministically:

* a seeded corpus of random networks, each run through the full oracle
  (opt levels vs O0, thread counts vs serial, finite-difference
  gradients, baseline parity, compiled C/OpenMP backend parity when a
  toolchain is present);
* generator invariants: determinism, JSON round-trips, validity over a
  wide seed range, family coverage;
* oracle self-tests: an injected runtime bug must be caught *and*
  shrink to a tiny reproducer;
* shrinker unit tests against a pure predicate (no nets built).
"""

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
        spec = random_spec(0, families=("mlp",))
        report = check_spec(spec, levels=(1, 3), threads=(2,),
                            gradcheck_indices=2, baselines=False)
        assert report.ok, report.summary()
        names = set(report.checks)
        assert {"level:1", "level:3", "threads:2", "gradcheck",
                "inference"} <= names

    def test_cbackend_checks_run_when_toolchain_present(self):
        # the corpus run above must actually pin the C backend wherever
        # a toolchain exists — guard against the auto-detection silently
        # turning the whole check family off
        from repro.codegen.c_backend import have_c_toolchain

        spec = random_spec(0, families=("mlp",))
        report = check_spec(spec, levels=(4,), threads=(),
                            gradcheck_indices=0, baselines=False)
        names = set(report.checks)
        expected = {"cbackend", "cbackend-vs-numpy", "cbackend-repro",
                    "cbackend-cache"}
        if have_c_toolchain():
            assert expected <= names, report.checks
        else:
            assert not (expected & names), report.checks
        # and the explicit opt-out always wins
        off = check_spec(spec, levels=(4,), threads=(),
                         gradcheck_indices=0, baselines=False,
                         cbackend=False)
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
        expected = {"batchtile", "batchtile-memplan", "batchtile-pooled",
                    "batchtile-threads:2", "batchtile-inference",
                    "batchtile-inference-threads:2"}
        if have_c_toolchain():
            expected.add("cbackend-batchtile")
        assert expected <= set(report.checks), report.checks
        seed_all(spec.seed)
        with batch_tiles():
            cnet = build_net(spec).init(CompilerOptions.level(4))
        # per conv layer: both padded inputs, both im2col copies and the
        # gradient input
        assert len(cnet.plan.contracted) == 10
        # each conv layer's pad fill, pad, copy, GEMM, bias and tanh, its
        # re-pad + re-gather + weight-gradient chain of four units and
        # its data-gradient chain of two
        assert cnet.compile_report["tiling"].rewrites["units_tiled"] == 24
        assert all(cnet.buffers[b].shape[0] == cnet.plan.buffers[b].tile < 4
                   for b in cnet.plan.contracted)
        # every ensemble pooled: the second layer re-pads from a value
        # the arena holds (``batchtile-pooled``)
        seed_all(spec.seed)
        with batch_tiles():
            pooled = build_net(spec).init(CompilerOptions.level(4),
                                          keep_alive=())
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
