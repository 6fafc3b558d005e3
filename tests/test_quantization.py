"""Reduced-precision inference: the ``repro.quant`` study tool.

Covers the scale/zero-point arithmetic, the calibration recorder, the
``precision`` compiler pass (fp16 retyping, int8 fake-quant steps
scheduled like any other extern step), and the boundary around it: the
executor, the serving stack and the compile cache know nothing of
precision — a non-fp32 compile is never cached, and ``python -m
repro.serve`` has no flag for it. The accuracy gates themselves live
in the oracle (``quant:*`` checks, run over the pinned corpus by
test_differential); this file tests the machinery.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.models import (
    alexnet_config,
    build_latte,
    overfeat_config,
    vgg_config,
)
from repro.optim import CompilerOptions, compile_net
from repro.quant import (
    CalibrationError,
    CalibrationResult,
    RangeObserver,
    calibrate,
    choose_qparams,
    dequantize,
    fake_quant,
    quantize,
)
from repro.quant.qparams import weight_qparams
from repro.testing.generator import (
    NetSpec,
    build_net,
    make_inputs,
    random_spec,
)
from repro.testing.oracle import (
    TOLERANCES,
    _check_quant,
    calibrate_spec,
    run_quant_forward,
)
from repro.trace import RecordingTracer
from repro.utils.rng import seed_all

# one fc-family and one conv-family spec keep the file fast while still
# exercising padded buffers, pooling aliases, and extern loss closures
FC_SEED = 7
CONV_SEED = 11


def _options(precision="fp32", level=3):
    opts = CompilerOptions.inference(level, precision=precision)
    opts.min_tile_rows = 2
    return opts


def _compile_spec(seed, precision="fp32", calibration=None, level=3,
                  **kwargs):
    spec = random_spec(seed)
    seed_all(spec.seed)
    cnet = compile_net(build_net(spec), _options(precision, level),
                       calibration=calibration, **kwargs)
    return spec, cnet


def _on_grid(arr, qp):
    return np.array_equal(fake_quant(arr, qp), arr)


class TestQParams:
    def test_affine_grid_covers_range_and_zero(self):
        qp = choose_qparams(-0.7, 3.1)
        assert not qp.symmetric
        x = np.linspace(-0.7, 3.1, 257, dtype=np.float32)
        back = dequantize(quantize(x, qp), qp)
        assert np.abs(back - x).max() <= qp.scale / 2 + 1e-7
        # 0.0 must be exactly representable (ReLU zeros, padding)
        zero = dequantize(quantize(np.zeros(1, np.float32), qp), qp)
        assert zero[0] == 0.0

    def test_range_widened_to_include_zero(self):
        qp = choose_qparams(2.0, 3.0)  # strictly positive observations
        back = fake_quant(np.zeros(1, np.float32), qp)
        assert back[0] == 0.0

    def test_degenerate_range_falls_back(self):
        assert choose_qparams(0.0, 0.0).scale == 1.0
        assert choose_qparams(5.0, 5.0, symmetric=True).scale == 5.0 / 127

    def test_symmetric_scheme(self):
        qp = choose_qparams(-2.0, 1.0, symmetric=True)
        assert qp.symmetric and qp.zero_point == 0
        q = quantize(np.array([-2.0, 2.0], np.float32), qp)
        assert q.dtype == np.int8
        assert q.min() == -127 and q.max() == 127  # sign-balanced clip

    def test_fake_quant_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100).astype(np.float32)
        qp = choose_qparams(*(float(x.min()), float(x.max())))
        once = fake_quant(x, qp)
        assert np.array_equal(fake_quant(once, qp), once)

    def test_weight_qparams(self):
        w = np.array([[0.5, -1.5]], np.float32)
        qp = weight_qparams(w)
        assert qp.symmetric and qp.scale == pytest.approx(1.5 / 127)
        assert weight_qparams(np.zeros((1, 1))).scale == 1.0


class TestCalibration:
    def test_observe_merges_ranges(self):
        r = CalibrationResult()
        r.observe("b", -1.0, 2.0)
        r.observe("b", -0.5, 3.0)
        assert r.range("b") == (-1.0, 3.0)
        assert r.range("missing") is None

    def test_digest_canonical_and_content_sensitive(self):
        a = CalibrationResult({"x": (0.0, 1.0), "y": (-1.0, 1.0)}, 2)
        b = CalibrationResult({"y": (-1.0, 1.0), "x": (0.0, 1.0)}, 2)
        assert a.digest() == b.digest()  # insertion order is irrelevant
        c = CalibrationResult({"x": (0.0, 1.5), "y": (-1.0, 1.0)}, 2)
        assert a.digest() != c.digest()

    def test_save_load_round_trip(self, tmp_path):
        r = CalibrationResult({"x": (-0.25, 4.0)}, batches=3,
                              percentile=0.999)
        path = str(tmp_path / "calib.json")
        r.save(path)
        back = CalibrationResult.load(path)
        assert back == r
        assert back.digest() == r.digest()

    def test_calibrate_records_inputs_and_activations(self):
        spec = random_spec(FC_SEED)
        seed_all(spec.seed)
        net = build_net(spec)
        x, y = make_inputs(spec)
        opts = CompilerOptions.inference(3)
        opts.min_tile_rows = 2
        result = calibrate(net, [{"data": x, "label": y}], options=opts)
        assert result.batches == 1
        # set_input-fed buffers are only visible via observe_input
        lo, hi = result.range("data_value")
        assert lo == float(x.min()) and hi == float(x.max())
        # at least one step-written activation was recorded
        assert any(name.endswith("_value") and name != "data_value"
                   for name in result.ranges)

    def test_calibrate_overrides_precision_to_fp32(self):
        spec = random_spec(FC_SEED)
        seed_all(spec.seed)
        net = build_net(spec)
        x, y = make_inputs(spec)
        # int8 options without calibration would raise in the compiler;
        # calibrate() must force fp32 before compiling
        result = calibrate(net, [{"data": x, "label": y}],
                           options=CompilerOptions.inference(
                               3, precision="int8"))
        assert result.batches == 1

    def test_calibrate_needs_a_batch(self):
        spec = random_spec(FC_SEED)
        seed_all(spec.seed)
        net = build_net(spec)
        with pytest.raises(CalibrationError):
            calibrate(net, [])

    def test_percentile_validation_and_clipping(self):
        with pytest.raises(ValueError):
            RangeObserver(percentile=0.3)
        obs = RangeObserver(percentile=0.95)
        arr = np.zeros(1000, np.float32)
        arr[0], arr[1] = -100.0, 100.0  # two outliers
        obs.observe_input("b", arr)
        lo, hi = obs.result.range("b")
        assert -100.0 < lo <= 0.0 and 0.0 <= hi < 100.0


class TestPrecisionPass:
    def test_options_validation(self):
        with pytest.raises(ValueError):
            CompilerOptions(precision="fp8")
        with pytest.raises(ValueError):
            CompilerOptions(precision="fp16")  # mode defaults to train
        with pytest.raises(ValueError):
            CompilerOptions(mode="inference", precision="int8", backend="c")
        # the supported spellings construct fine
        CompilerOptions.inference(3, precision="fp16")
        CompilerOptions.inference(3, precision="int8")

    def test_fp16_retypes_and_records_fallbacks(self):
        _, cnet = _compile_spec(FC_SEED, "fp16")
        qp = cnet.plan.quant
        assert qp.precision == "fp16"
        assert qp.dtypes, "no buffer was retyped to float16"
        # extern closures (the softmax loss) keep their buffers fp32
        assert "extern-step" in set(qp.fallbacks.values())
        for name in qp.dtypes:
            assert cnet.plan.buffers[name].dtype == "float16"
            assert cnet.buffers[name].dtype == np.float16
        for name in qp.fallbacks:
            assert cnet.plan.buffers[name].dtype == "float32"
        # the pass is visible in the compile report with its counters
        row = next(p for p in cnet.compile_report.records
                   if p.name == "precision")
        assert row.rewrites.get("buffers_fp16") == len(qp.dtypes)

    def test_fp16_shrinks_planned_bytes(self):
        _, ref = _compile_spec(CONV_SEED, "fp32")
        _, half = _compile_spec(CONV_SEED, "fp16")
        assert half.plan.memory is not None
        assert half.plan.memory.arena_bytes < ref.plan.memory.arena_bytes

    @pytest.mark.parametrize("factory, scale, size", [
        (alexnet_config, 0.25, 67),
        (overfeat_config, 0.125, 75),
        (vgg_config, 0.25, 64),
    ])
    def test_fp16_sheds_40_percent_on_fig14(self, factory, scale, size):
        # activations dominate the fig14 models, so halving the element
        # size must shed close to half of the planned bytes
        config = factory().scaled(scale, size)
        planned = {}
        for precision in ("fp32", "fp16"):
            seed_all(1)
            cnet = build_latte(config, 8).init(
                CompilerOptions.inference(4, precision=precision))
            planned[precision] = cnet.memory_stats()["planned_bytes"]
            cnet.close()
        assert planned["fp16"] <= 0.60 * planned["fp32"]

    def test_fp16_close_to_fp32(self):
        spec = random_spec(CONV_SEED)
        loss32, out32 = run_quant_forward(spec, 3, "fp32")
        loss16, out16 = run_quant_forward(spec, 3, "fp16")
        assert out16.dtype == np.float32  # head feeds the extern loss
        np.testing.assert_allclose(out16, out32, rtol=1e-2, atol=2e-3)
        assert loss16 == pytest.approx(loss32, rel=1e-2)

    def test_int8_requires_calibration(self):
        with pytest.raises(CalibrationError, match="calibration"):
            _compile_spec(FC_SEED, "int8")

    def test_int8_schedules_fake_quant_steps(self):
        spec = random_spec(CONV_SEED)
        calibration = calibrate_spec(spec, 3)
        # disable the arena planner: slab reuse overwrites pooled
        # activations after their consumers run, which would invalidate
        # the on-grid check of the buffers below
        seed_all(spec.seed)
        opts = _options("int8")
        opts.memory_plan = False
        cnet = compile_net(build_net(spec), opts, calibration=calibration)
        qp = cnet.plan.quant
        assert qp.precision == "int8"
        assert qp.calibration_digest == calibration.digest()
        assert qp.qparams and qp.weight_bufs
        # the plan is in the schedule: weights first, then the network
        # input, then every calibrated activation after its producers
        labels = [s.label for s in cnet.compiled.forward]
        quant = [l for l in labels if l.startswith("fake_quant(")]
        assert labels[:2] == ["fake_quant(weights)",
                              "fake_quant(data_value)"]
        assert {l[len("fake_quant("):-1] for l in quant[1:]} == set(qp.qparams)
        for i, label in enumerate(labels[2:], 2):
            if label.startswith("fake_quant("):
                buf = label[len("fake_quant("):-1]
                producer = next(s for s in reversed(cnet.compiled.forward[:i])
                                if not s.label.startswith("fake_quant("))
                assert buf in {cnet.plan.resolve_alias(b)
                               for b in producer.writes
                               if b in cnet.plan.buffers}
        row = next(p for p in cnet.compile_report.records
                   if p.name == "precision")
        assert row.units_after - row.units_before == len(quant)
        x, y = make_inputs(spec)
        cnet.forward(data=x, label=y)
        # every weight and every quantized activation sits exactly on
        # its int8 grid
        for name in qp.weight_bufs:
            assert _on_grid(cnet.buffers[name],
                            weight_qparams(cnet.buffers[name]))
        for name, params in qp.qparams.items():
            assert _on_grid(cnet.buffers[name], params)

    def test_contracted_staging_is_neither_observed_nor_quantized(self):
        """A buffer contracted to its group's batch tile never holds
        the whole batch: calibration skips it, int8 records why it has
        no range, and fp16 retypes the tile it is."""
        from repro.testing.oracle import batch_tiles

        spec = random_spec(CONV_SEED)
        x, y = make_inputs(spec)
        with batch_tiles():
            seed_all(spec.seed)
            profile = calibrate(build_net(spec), [{"data": x, "label": y}],
                                options=_options(level=4))
            _, int8 = _compile_spec(CONV_SEED, "int8", profile, level=4)
            _, fp16 = _compile_spec(CONV_SEED, "fp16", level=4)
        contracted = set(int8.plan.contracted)
        assert contracted == {"L0_conv_inputs0", "L3_conv_inputs0"}
        assert not contracted & set(profile.ranges)
        assert "L0_conv_value" in profile.ranges
        qp = int8.plan.quant
        assert {b: qp.fallbacks.get(b) for b in contracted} == dict.fromkeys(
            contracted, "contracted")
        assert qp.stats()["fallback_contracted"] == 2
        assert not contracted & set(qp.qparams)
        assert not any(b in s.label for s in int8.compiled.forward
                       for b in contracted if s.label.startswith("fake_quant"))
        for b in contracted:
            assert fp16.buffers[b].dtype == np.float16
            assert fp16.buffers[b].shape[0] == fp16.plan.buffers[b].tile < 4
        loss, _ = int8.forward(data=x, label=y), fp16.forward(data=x, label=y)
        assert np.isfinite(loss)

    def test_int8_traced_forward_has_a_span_per_fake_quant_step(self):
        spec = random_spec(FC_SEED)
        tracer = RecordingTracer()
        _, cnet = _compile_spec(FC_SEED, "int8", calibrate_spec(spec, 3),
                                tracer=tracer)
        x, y = make_inputs(spec)
        cnet.forward(data=x, label=y)
        steps = [s.label for s in cnet.compiled.forward
                 if s.label.startswith("fake_quant(")]
        spans = [s.name for s in tracer.spans
                 if s.cat == "forward" and s.name.startswith("fake_quant(")]
        assert steps and spans == steps

    def test_int8_quantizes_the_parameters_it_finds_at_forward(self):
        spec = random_spec(FC_SEED)
        _, cnet = _compile_spec(FC_SEED, "int8", calibrate_spec(spec, 3))
        x, y = make_inputs(spec)
        cnet.forward(data=x, label=y)
        name = cnet.plan.quant.weight_bufs[-1]
        rng = np.random.default_rng(5)
        # restored after the compile (Checkpoint.restore_params writes
        # through the parameter views) ...
        restored = rng.standard_normal(
            cnet.buffers[name].shape).astype(np.float32)
        cnet.buffers[name][...] = restored
        cnet.forward(data=x, label=y)
        np.testing.assert_array_equal(
            cnet.buffers[name],
            fake_quant(restored, weight_qparams(restored)))
        # ... or rebound onto other storage: the closure looks its
        # arrays up at call time, so the new array is the one rewritten
        rebound = rng.standard_normal(restored.shape).astype(np.float32)
        want = fake_quant(rebound, weight_qparams(rebound))
        cnet.rebind_buffer(name, rebound)
        cnet.forward(data=x, label=y)
        np.testing.assert_array_equal(rebound, want)
        assert cnet.buffers[name] is rebound

    def test_int8_lstm_passes_the_oracle_tier(self):
        spec = NetSpec.from_dict({
            "seed": 21, "batch": 4, "classes": 2, "input_shape": [5],
            "time_steps": 3,
            "layers": [{"kind": "lstm", "outputs": 4},
                       {"kind": "fc", "outputs": 3}],
        })
        seed_all(spec.seed)
        cnet = compile_net(build_net(spec), _options("int8", 4),
                           calibration=calibrate_spec(spec, 4))
        assert cnet.time_steps == 3
        assert sum(s.label.startswith("fake_quant(")
                   for s in cnet.compiled.forward) > 1
        checks, mismatches = [], []
        _check_quant(spec, 4, TOLERANCES["float32"], checks, mismatches)
        assert "quant:int8" in checks and "quant:int8-repro" in checks
        assert not mismatches, [str(m) for m in mismatches]

    def test_int8_deterministic_across_forwards(self):
        spec = random_spec(FC_SEED)
        calibration = calibrate_spec(spec, 3)
        _, cnet = _compile_spec(FC_SEED, "int8", calibration)
        x, y = make_inputs(spec)
        first = float(cnet.forward(data=x, label=y))
        out_first = cnet.value("head").copy()
        second = float(cnet.forward(data=x, label=y))
        assert second == first
        np.testing.assert_array_equal(cnet.value("head"), out_first)


class TestBoundary:
    """What lies outside ``repro.quant`` does not know precision."""

    @pytest.mark.parametrize("precision", ["fp16", "int8"])
    def test_cache_key_refuses_reduced_precision(self, precision):
        from repro.cache.key import CacheUnsupported, cache_key

        spec = random_spec(FC_SEED)
        builder = {"kind": "net_spec", "spec": spec.to_dict()}
        with pytest.raises(CacheUnsupported, match="float32"):
            cache_key(builder, spec.batch, _options(precision), 1, None)

    def test_compile_cached_fp16_compiles_cold_and_stores_nothing(
            self, tmp_path):
        from repro.cache import CompileCache, compile_cached

        spec = random_spec(FC_SEED)
        store = CompileCache(str(tmp_path))
        x, y = make_inputs(spec)
        want_loss, want = run_quant_forward(spec, 3, "fp16")
        for _ in range(2):
            seed_all(spec.seed)
            cnet = compile_cached(spec, net=build_net(spec),
                                  options=_options("fp16"), cache=store)
            assert not cnet.compile_report.cache_hit
            assert cnet.compile_report.cache_key is None
            assert float(cnet.forward(data=x, label=y)) == want_loss
            np.testing.assert_array_equal(cnet.value("head"), want)
        assert store.entries() == []
        assert list(tmp_path.iterdir()) == []

    def test_compile_cached_int8_has_no_route_for_a_profile(self, tmp_path):
        # compile_cached takes no calibration profile, so an int8
        # compile through it fails exactly as compile_net does without
        # one; compile_net(calibration=...) is the int8 entry point
        from repro.cache import CompileCache, compile_cached

        spec = random_spec(FC_SEED)
        seed_all(spec.seed)
        with pytest.raises(CalibrationError, match="compile_net"):
            compile_cached(spec, net=build_net(spec),
                           options=_options("int8"),
                           cache=CompileCache(str(tmp_path)))
        assert list(tmp_path.iterdir()) == []

    def test_serve_cli_has_no_precision_flag(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        ckpt = str(tmp_path / "model.npz")  # never reached by ap.error
        with pytest.raises(SystemExit) as exc:
            main(["--checkpoint", ckpt, "--precision", "fp16"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --precision" in capsys.readouterr().err
        for argv in (["--workers", "-1"], ["--replicas", "0"],
                     ["--batch-size", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(["--checkpoint", ckpt] + argv)
            assert exc.value.code == 2, argv

    def test_retyped_replicas_serve_without_a_flag(self):
        # the recipe docs/QUANTIZATION.md ends with: compile the
        # replicas yourself, hand them to ModelServer
        from repro.serve.server import ModelServer

        spec, replica = _compile_spec(FC_SEED, "fp16")
        x, y = make_inputs(spec)
        _, want = run_quant_forward(spec, 3, "fp16")
        with ModelServer([replica], "head", max_latency=0.002) as server:
            out = server.predict(x[0])
            assert "precision" not in server.stats()
            assert "precision" not in server.metrics_text()
        np.testing.assert_array_equal(out, want[0])

    def test_nothing_outside_imports_repro_quant(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        files = [src / "runtime" / "executor.py"]
        for package in ("serve", "cache", "telemetry"):
            files += sorted((src / package).glob("*.py"))
        assert len(files) > 10
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                assert not any(n.startswith("repro.quant") for n in names), \
                    f"{path.name} imports {names}"
        from repro.runtime.executor import CompiledNet

        assert not hasattr(CompiledNet, "qstorage")
        _, cnet = _compile_spec(FC_SEED)
        assert not hasattr(cnet, "qstorage")
        assert not hasattr(cnet, "quant_weight_scales")
