"""Tests for the repro.trace subsystem: runtime step spans, the
NullTracer fast path, compiler-pass instrumentation, profile
aggregation, Chrome trace export, and CompiledNet.summary()."""

import json

import numpy as np
import pytest

from repro.cache import CompileCache, compile_cached
from repro.codegen.c_backend import have_c_toolchain
from repro.core import Ensemble, Net, one_to_one
from repro.layers import (
    ConvolutionLayer,
    FullyConnectedLayer,
    MaxPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
from repro.layers.neurons import AddNeuron
from repro.models import CONFIGS, build_latte, mlp_config
from repro.optim import CompilerOptions, compile_net
from repro.optim.pipeline import PASSES
from repro.runtime import ClusterSimulator, ComputeProfile, CommPoint
from repro.runtime.netsim import cori_aries
from repro.testing.digest import configurations, ledger_net
from repro.testing.oracle import batch_tiles
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    ProfileReport,
    RecordingTracer,
    Span,
)


def _cnn(tracer=None):
    net = Net(2)
    d = MemoryDataLayer(net, "data", (3, 8, 8))
    conv = ConvolutionLayer("conv1", net, d, 4, 3, pad=1)
    relu = ReLULayer("relu1", net, conv)
    MaxPoolingLayer("pool1", net, relu, 2, 2)
    with batch_tiles():  # tiny geometry: tile conv1's chain anyway
        return net.init(CompilerOptions(), tracer=tracer)


def _mlp(tracer=None):
    net = Net(4)
    d = MemoryDataLayer(net, "data", (12,))
    lbl = MemoryDataLayer(net, "label", (1,))
    fc = FullyConnectedLayer("fc1", net, d, 6)
    SoftmaxLossLayer("loss", net, fc, lbl)
    return net.init(tracer=tracer)


def _expected_labels(cn, phase):
    """One span per task step — or one per batch shard when the net runs
    thread-parallel (e.g. under REPRO_NUM_THREADS in the threaded CI
    job) and the step is shardable."""
    labels = []
    for s in getattr(cn.compiled, phase):
        labels.extend([s.label] * (cn.num_shards if s.shardable else 1))
    return labels


class TestStepSpans:
    def test_forward_spans_cover_every_task_step_once(self):
        tr = RecordingTracer()
        cn = _cnn(tracer=tr)
        cn.forward(data=np.zeros((2, 3, 8, 8), np.float32))
        got = [s.name for s in tr.spans_by_cat("forward")]
        assert got == _expected_labels(cn, "forward")

    def test_backward_spans_cover_every_task_step_once(self):
        tr = RecordingTracer()
        cn = _cnn(tracer=tr)
        cn.forward(data=np.zeros((2, 3, 8, 8), np.float32))
        cn.backward()
        got = [s.name for s in tr.spans_by_cat("backward")]
        assert got == _expected_labels(cn, "backward")

    def test_recurrent_spans_once_per_time_step(self):
        T = 4
        tr = RecordingTracer()
        net = Net(2, time_steps=T)
        x = MemoryDataLayer(net, "data", (3,))
        h = Ensemble(net, "h", AddNeuron, (3,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        cn = net.init(CompilerOptions.level(4), tracer=tr)
        cn.forward(data=np.zeros((T, 2, 3), np.float32))
        expected = _expected_labels(cn, "forward")
        spans = tr.spans_by_cat("forward")
        assert len(spans) == T * len(expected)
        for t in range(T):
            at_t = [s for s in spans if s.t == t]
            assert [s.name for s in at_t] == expected

    def test_span_args_carry_bytes_and_flops(self):
        tr = RecordingTracer()
        cn = _cnn(tracer=tr)
        cn.forward(data=np.zeros((2, 3, 8, 8), np.float32))
        gemm_spans = [s for s in tr.spans_by_cat("forward")
                      if s.args.get("flops", 0) > 0]
        assert gemm_spans, "no FLOPs attributed to the conv GEMM"
        assert all(s.args["bytes"] > 0 for s in tr.spans_by_cat("forward"))


def _task_fns(cn, phase):
    """The step functions a phase program calls bare, in order."""
    fns = {s.fn for s in getattr(cn.compiled, phase)}
    return [fn for fn, _env in cn._program[phase] if fn in fns]


class TestAttachByAssignment:
    def _run(self, cn):
        cn.forward(data=np.zeros((2, 3, 8, 8), np.float32))
        cn.backward()

    def test_tracer_attaches_and_detaches(self):
        cn = _cnn()
        tr = RecordingTracer()
        cn.tracer = tr
        self._run(cn)
        for phase in ("forward", "backward"):
            got = [s.name for s in tr.spans_by_cat(phase)]
            assert got == _expected_labels(cn, phase)
        cn.tracer = NULL_TRACER
        del tr.spans[:]
        self._run(cn)
        assert tr.spans == []

    def test_watchdog_attaches_and_detaches(self):
        from repro.telemetry import NumericsError, NumericsWatchdog

        cn = _cnn()
        x = np.zeros((2, 3, 8, 8), np.float32)
        x[0, 0, 0, 0] = np.nan
        cn.watchdog = NumericsWatchdog()
        with pytest.raises(NumericsError):
            cn.forward(data=x)
        cn.watchdog = None
        cn.forward(data=x)  # unwatched: the NaN flows through silently

    def test_unattached_program_is_the_bare_step_functions(self):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 8, 8))
        conv = ConvolutionLayer("conv1", net, d, 4, 3, pad=1)
        MaxPoolingLayer("pool1", net, conv, 2, 2)
        cn = net.init(CompilerOptions(), num_threads=1)
        bare = {phase: [s.fn for s in getattr(cn.compiled, phase)]
                for phase in ("forward", "backward")}
        for phase, fns in bare.items():
            assert fns and _task_fns(cn, phase) == fns
        cn.tracer = RecordingTracer()
        assert all(_task_fns(cn, phase) == [] for phase in bare)
        cn.tracer = NullTracer()
        cn.watchdog = None
        for phase, fns in bare.items():
            assert _task_fns(cn, phase) == fns


class TestNullTracerPath:
    def test_traced_and_untraced_programs_are_identical(self):
        """Tracing must not change what is compiled or executed."""
        from repro.utils.rng import seed_all

        seed_all(7)
        plain = _cnn()
        seed_all(7)
        traced = _cnn(tracer=RecordingTracer())
        for phase in ("forward", "backward"):
            p = [s.label for s in getattr(plain.compiled, phase)]
            q = [s.label for s in getattr(traced.compiled, phase)]
            assert p == q
        x = np.random.default_rng(0).standard_normal(
            (2, 3, 8, 8)
        ).astype(np.float32)
        plain.forward(data=x)
        traced.forward(data=x)
        np.testing.assert_array_equal(plain.value("pool1"),
                                      traced.value("pool1"))

    def test_default_tracer_is_shared_null(self):
        cn = _cnn()
        assert cn.tracer is NULL_TRACER
        assert not cn.tracer.enabled

    def test_null_tracer_records_nothing(self):
        tr = NullTracer()
        with tr.span("x", "forward"):
            pass
        tr.metric("loss", 1.0)
        tr.add_span("y", "forward", 0.0, 1.0)
        assert not hasattr(tr, "spans")

    def test_profile_requires_recording_tracer(self):
        cn = _cnn()
        with pytest.raises(RuntimeError):
            cn.profile()


class TestCompileReport:
    def test_vgg_micro_o4_shows_gemms_and_fusion(self):
        config = CONFIGS["vgg_micro"]().scaled(0.25, 32)
        # scaled-down batch: engage the batch tiles as test_passes does
        with batch_tiles():
            cn = build_latte(config, 2).init(CompilerOptions.level(4))
        rep = cn.compile_report
        assert rep["tiling"].rewrites["units_tiled"] > 0
        assert rep["pattern_match"].rewrites["gemms_matched"] > 0
        assert rep["fusion"].rewrites["fused_groups"] > 0
        assert rep["copy_inline"].rewrites["copies_inlined"] > 0
        assert "gemms matched" in str(rep)

    def test_vgg_micro_o1_shows_zero_rewrites(self):
        config = CONFIGS["vgg_micro"]().scaled(0.25, 32)
        cn = build_latte(config, 2).init(CompilerOptions.level(1))
        rep = cn.compile_report
        assert rep.rewrite_count("pattern_match", "gemms_matched") == 0
        assert rep.rewrite_count("fusion", "fused_groups") == 0
        assert not rep["pattern_match"].enabled
        assert not rep["fusion"].enabled

    def test_first_writer_counts_match_pass_effects(self):
        """The report must reflect what test_passes.py asserts directly:
        the conv fill is dropped and its GEMM stores in place."""
        cn = _cnn()
        rep = cn.compile_report
        assert rep["first_writer"].rewrites["fills_dropped"] >= 1
        assert rep["first_writer"].rewrites["gemm_stores_forwarded"] >= 1
        assert "conv1.fill" not in " ".join(
            s.label for s in cn.compiled.forward
        )

    def test_compile_total_is_the_whole_compile(self):
        """The table's last line is ``compile_seconds`` — synthesis and
        codegen included — not the sum of the passes' wall times."""
        rep = _cnn().compile_report
        assert rep.table().splitlines()[-1] == (
            f"compile total {rep.compile_seconds * 1e3:.2f}ms")
        assert rep.compile_seconds > sum(r.wall_time for r in rep.records)

    def test_every_pass_recorded_in_pipeline_order(self):
        cn = _cnn()
        names = [r.name for r in cn.compile_report.records]
        assert names == ["copy_inline", "pattern_match", "first_writer",
                         "regather", "tiling", "fusion", "parallel",
                         "prune_buffers", "memory_plan"]
        # the driver's invariants over every digest configuration of a
        # small ledger program (C ones where a toolchain is present),
        # plus a reduced-precision compile
        table = [name for name, gate, _ in PASSES if gate is not None]
        configs = list(configurations(
            "all" if have_c_toolchain() else "numpy"))
        configs.append(("fp16", CompilerOptions.inference(precision="fp16"),
                        1))
        for label, opts, threads in configs:
            tr = RecordingTracer()
            cn = ledger_net("lenet").init(opts, num_threads=threads,
                                          tracer=tr)
            recs = cn.compile_report.records
            cn.close()
            assert [r.name for r in recs] == [
                n for n in table
                if (n != "precision" or opts.precision != "fp32")
                and (n != "codegen-c" or opts.backend == "c")], label
            for prev, rec in zip(recs, recs[1:]):
                assert rec.units_before == prev.units_after, (label, rec)
            assert all(not r.rewrites for r in recs if not r.enabled), label
            # a span per pass that ran (fusion off still builds the
            # schedule), between synthesis and codegen
            ran = [r.name for r in recs if r.enabled or r.name == "fusion"]
            native = ["codegen-c"] if opts.backend == "c" else []
            assert [s.name for s in tr.spans_by_cat("compile")] == [
                "plan+synthesize", *(n for n in ran if n not in native),
                "codegen", *native], label

    def test_compile_spans_on_tracer(self):
        tr = RecordingTracer()
        _cnn(tracer=tr)
        cats = {s.name for s in tr.spans_by_cat("compile")}
        assert {"plan+synthesize", "codegen", "pattern_match"} <= cats


class TestProfileReport:
    def test_attributes_wall_time_to_named_steps(self):
        tr = RecordingTracer()
        cn = _cnn(tracer=tr)
        x = np.zeros((2, 3, 8, 8), np.float32)
        import time

        t0 = time.perf_counter()
        for _ in range(5):
            cn.forward(data=x)
            cn.backward()
        wall = time.perf_counter() - t0
        prof = cn.profile()
        if cn.num_shards == 1:
            # sharded runs aggregate per-shard CPU time, which may
            # legitimately exceed wall time when shards overlap
            assert prof.total <= wall
            assert prof.total >= 0.5 * wall  # generous: tiny net, real
            # target is the >=95% criterion measured in EXPERIMENTS.md
        shards = {
            s.label: (cn.num_shards if s.shardable else 1)
            for phase in ("forward", "backward")
            for s in getattr(cn.compiled, phase)
        }
        assert all(r.count == 5 * shards[r.name] for r in prof.rows)

    def test_by_ensemble_splits_fused_groups(self):
        rep = ProfileReport.from_spans([
            Span("a.compute+b.compute", "forward", 0.0, 2.0),
            Span("c.compute", "forward", 2.0, 1.0),
        ])
        per_ens = rep.by_ensemble()
        assert per_ens == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_table_renders(self):
        tr = RecordingTracer()
        cn = _cnn(tracer=tr)
        cn.forward(data=np.zeros((2, 3, 8, 8), np.float32))
        text = cn.profile().table()
        assert "%phase" in text and "forward" in text


class TestChromeTrace:
    def test_round_trips_with_monotone_phase_timelines(self, tmp_path):
        tr = RecordingTracer()
        cn = _cnn(tracer=tr)
        x = np.zeros((2, 3, 8, 8), np.float32)
        for _ in range(3):
            cn.forward(data=x)
            cn.backward()
        path = tr.export_chrome_trace(str(tmp_path / "trace.json"))
        payload = json.loads(open(path).read())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert events
        by_tid = {}
        for e in events:
            by_tid.setdefault(e["tid"], []).append(e)
        for tid_events in by_tid.values():
            end = -1.0
            for e in tid_events:  # recorded in execution order
                assert e["ts"] >= end - 1e-6, "overlapping spans in phase"
                assert e["dur"] >= 0
                end = e["ts"] + e["dur"]

    def test_thread_names_label_categories(self, tmp_path):
        tr = RecordingTracer()
        tr.add_span("x", "forward", 0.0, 1.0)
        path = tr.export_chrome_trace(str(tmp_path / "t.json"))
        payload = json.loads(open(path).read())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert any(e["args"]["name"] == "forward" for e in meta)


class TestMetricSeries:
    def test_tags_filter_the_series(self):
        tr = RecordingTracer()
        tr.metric("lat", 1.0, replica=0)
        tr.metric("lat", 2.0, replica=1)
        tr.metric("lat", 3.0, replica=0)
        tr.metric("other", 9.0, replica=0)
        assert tr.metric_series("lat") == [1.0, 2.0, 3.0]
        assert tr.metric_series("lat", replica=0) == [1.0, 3.0]
        assert tr.metric_series("lat", replica=1) == [2.0]
        assert tr.metric_series("lat", replica=2) == []

    def test_multiple_tags_must_all_match(self):
        tr = RecordingTracer()
        tr.metric("m", 1.0, a=1, b=2)
        tr.metric("m", 2.0, a=1, b=3)
        assert tr.metric_series("m", a=1, b=2) == [1.0]
        assert tr.metric_series("m", a=1) == [1.0, 2.0]


class TestTrainAndSimSpans:
    def test_solve_records_epoch_metrics(self):
        from repro import LRPolicy, MomPolicy, SGD, SolverParameters, solve
        from repro.solvers import Dataset

        tr = RecordingTracer()
        cn = _mlp(tracer=tr)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((16, 12)).astype(np.float32)
        labels = rng.integers(0, 6, (16, 1)).astype(np.float32)
        params = SolverParameters(lr_policy=LRPolicy.Fixed(0.01),
                                  mom_policy=MomPolicy.Fixed(0.0),
                                  max_epoch=2)
        hist = solve(SGD(params), cn, Dataset(data, labels),
                     output_ens="fc1")
        assert tr.metric_series("epoch_loss") == pytest.approx(hist.losses)
        assert tr.metric_series("train_accuracy") == pytest.approx(
            hist.train_accuracy
        )
        assert len(tr.metric_series("iteration_time")) == 2
        assert len(tr.spans_by_cat("train")) == 2

    def test_cluster_simulator_emits_overlap_spans(self):
        profile = ComputeProfile(
            0.0, 1e-3, 0.0, 2e-3,
            (CommPoint(0.5, 1 << 20, "fc1"), CommPoint(1.0, 1 << 20, "fc2")),
        )
        tr = RecordingTracer()
        sim = ClusterSimulator(profile, cori_aries(), 4, tracer=tr)
        total = sim.iteration_time(8)
        compute = tr.spans_by_cat("sim.compute")
        comm = tr.spans_by_cat("sim.comm")
        assert [s.name for s in compute] == ["forward", "backward"]
        assert [s.name for s in comm] == ["allreduce(fc1)", "allreduce(fc2)"]
        # comms are issued mid-backward (overlap) and the iteration ends
        # with whichever of compute/comm finishes last
        assert comm[0].start > compute[1].start
        assert total == pytest.approx(
            max(compute[-1].end, comm[-1].end)
        )

    def test_accelerator_emits_device_spans(self):
        from repro.runtime import HeterogeneousScheduler, xeon_phi

        tr = RecordingTracer()
        sched = HeterogeneousScheduler(100.0, [xeon_phi("mic0")], 64,
                                       tracer=tr)
        sched.iteration_time(first=True)
        names = {s.name for s in tr.spans}
        assert {"host compute", "mic0 upload", "mic0 compute",
                "mic0 grad return"} <= names


class TestSummary:
    def test_summary_reports_params_buffers_steps(self):
        cn = _mlp()
        text = cn.summary()
        n_params = sum(p.value.size for p in cn.parameters())
        assert f"{n_params:,}" in text
        assert "task steps" in text and "MB" in text

    @pytest.mark.skipif(not have_c_toolchain(), reason="no C toolchain")
    def test_native_line_names_the_python_steps(self, tmp_path,
                                                monkeypatch):
        """On the C backend the summary lists each step that stayed in
        Python with its reason, read from the steps — so a warm thaw
        shows them as the cold compile does."""
        monkeypatch.setenv("REPRO_CBUILD_DIR", str(tmp_path / "cbuild"))
        store = CompileCache(tmp_path / "cache")
        texts = []
        for _ in range(2):
            cn = compile_cached(mlp_config(hidden=(6,), classes=3,
                                           input_dim=5), 4,
                                options=CompilerOptions(backend="c"),
                                cache=store)
            texts.append(cn.summary())
            cn.close()
        assert cn.compile_report.cache_hit
        cold, warm = ([r for r in text.splitlines()
                       if r.startswith("    python ")] for text in texts)
        assert cold == warm and len(cold) == 2, texts[0]
        assert cold[0].endswith(": extern closure 'loss.loss_forward'")
        assert cold[1].endswith(": extern closure 'loss.loss_backward'")

    def test_repr_uses_summary_counts(self):
        cn = _mlp()
        r = repr(cn)
        assert "CompiledNet" in r and "batch=4" in r
