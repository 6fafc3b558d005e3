"""Health watchdogs (:mod:`repro.telemetry.watchdog`): NaN/Inf
detection names the first poisoned step and buffer, the disabled path
stays bitwise-identical with no extra spans, and the training monitor
trips on divergence."""

import math

import numpy as np
import pytest

from repro.cache import compile_cached
from repro.core import Net
from repro.layers import (
    FullyConnectedLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
from repro.models import mlp_config
from repro.solvers import (
    Dataset,
    LRPolicy,
    MomPolicy,
    SGD,
    SolverParameters,
    solve,
)
from repro.telemetry import (
    DivergenceError,
    MetricsRegistry,
    NumericsError,
    NumericsWatchdog,
    TrainingMonitor,
)
from repro.trace import NULL_TRACER, RecordingTracer
from repro.utils.rng import seed_all

BATCH = 4


def _mlp(watchdog=None, tracer=None, seed=11, num_threads=None):
    seed_all(seed)
    net = Net(BATCH)
    d = MemoryDataLayer(net, "data", (12,))
    lbl = MemoryDataLayer(net, "label", (1,))
    fc1 = FullyConnectedLayer("fc1", net, d, 8)
    relu = ReLULayer("relu1", net, fc1)
    FullyConnectedLayer("fc2", net, relu, 3)
    SoftmaxLossLayer("loss", net, net["fc2"], lbl)
    return net.init(tracer=tracer, watchdog=watchdog,
                    num_threads=num_threads)


def _inputs(fill=1.0):
    x = np.full((BATCH, 12), fill, np.float32)
    y = np.zeros((BATCH, 1), np.float32)
    return x, y


class TestNumericsDetection:
    def test_nan_input_names_first_writing_step(self):
        cn = _mlp(watchdog=NumericsWatchdog())
        x, y = _inputs()
        x[0, 0] = np.nan
        with pytest.raises(NumericsError) as exc:
            cn.forward(data=x, label=y)
        err = exc.value
        # the *first* poisoned write, not downstream wreckage
        assert err.step == "fc1.compute"
        assert err.buffer == "fc1_value"
        assert err.phase == "forward"
        assert err.kind == "nan"
        assert err.count > 0
        assert err.to_dict()["step"] == "fc1.compute"
        cn.close()

    def test_poisoned_weight_detected(self):
        cn = _mlp(watchdog=NumericsWatchdog())
        for p in cn.parameters():
            if p.value.ndim == 2:  # first weight matrix
                p.value[0, 0] = np.inf
                break
        x, y = _inputs()
        with pytest.raises(NumericsError) as exc:
            cn.forward(data=x, label=y)
        assert exc.value.buffer == "fc1_value"
        assert exc.value.kind in ("inf", "nan")
        cn.close()

    def test_record_mode_keeps_running_and_counts(self):
        reg = MetricsRegistry()
        wd = NumericsWatchdog(raise_on_error=False, registry=reg)
        cn = _mlp(watchdog=wd)
        x, y = _inputs()
        x[0, 0] = np.nan
        cn.forward(data=x, label=y)  # must not raise
        assert wd.events, "detections should be recorded"
        assert wd.events[0].buffer == "fc1_value"
        counter = reg.get("numerics_nonfinite_total")
        assert counter.value(step="fc1.compute", buffer="fc1_value") >= 1
        cn.close()

    def test_sampling_every_n_skips_steps(self):
        wd = NumericsWatchdog(every=1000)
        cn = _mlp(watchdog=wd)
        x, y = _inputs()
        x[0, 0] = np.nan
        cn.forward(data=x, label=y)  # sampled out: no raise
        assert wd.events == []
        cn.close()

    def test_buffer_filter_restricts_checks(self):
        wd = NumericsWatchdog(buffers=("fc2_value",))
        cn = _mlp(watchdog=wd)
        x, y = _inputs()
        x[0, 0] = np.nan
        with pytest.raises(NumericsError) as exc:
            cn.forward(data=x, label=y)
        assert exc.value.buffer == "fc2_value"  # fc1 skipped by filter
        cn.close()

    def test_backward_phase_checked_too(self):
        wd = NumericsWatchdog(raise_on_error=False)
        cn = _mlp(watchdog=wd)
        x, y = _inputs()
        x[0, 0] = np.nan
        cn.forward(data=x, label=y)
        cn.clear_param_grads()
        cn.backward()
        assert any(e.phase == "backward" for e in wd.events)
        cn.close()

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError, match="every"):
            NumericsWatchdog(every=0)


class TestDisabledPathNeutrality:
    def test_watchdog_outputs_bitwise_identical(self):
        plain = _mlp(seed=23)
        watched = _mlp(seed=23, watchdog=NumericsWatchdog())
        x, y = _inputs(0.5)
        loss_a = plain.forward(data=x, label=y)
        loss_b = watched.forward(data=x, label=y)
        assert loss_a == loss_b
        np.testing.assert_array_equal(plain.value("fc2"),
                                      watched.value("fc2"))
        plain.clear_param_grads()
        watched.clear_param_grads()
        plain.backward()
        watched.backward()
        for pa, pb in zip(plain.parameters(), watched.parameters()):
            np.testing.assert_array_equal(pa.grad, pb.grad)
        plain.close()
        watched.close()

    def test_watchdog_adds_no_spans(self):
        tr_plain, tr_watched = RecordingTracer(), RecordingTracer()
        plain = _mlp(seed=5, tracer=tr_plain)
        watched = _mlp(seed=5, tracer=tr_watched,
                       watchdog=NumericsWatchdog())
        x, y = _inputs(0.5)
        plain.forward(data=x, label=y)
        watched.forward(data=x, label=y)
        assert ([s.name for s in tr_watched.spans]
                == [s.name for s in tr_plain.spans])
        plain.close()
        watched.close()

    def test_untraced_unwatched_net_keeps_null_tracer(self):
        cn = _mlp(watchdog=NumericsWatchdog())
        assert cn.tracer is NULL_TRACER  # watchdog never forces tracing
        cn.close()


class TestWithThreadsAndTracer:
    """A watchdog and a recording tracer wrap batch-sharded steps too."""

    def _both(self, seed=11):
        return _mlp(seed=seed, num_threads=2, tracer=RecordingTracer(),
                    watchdog=NumericsWatchdog())

    def test_sharded_steps_span_every_shard(self):
        cn = self._both()
        x, y = _inputs(0.5)
        cn.forward(data=x, label=y)
        cn.clear_param_grads()
        cn.backward()
        for phase in ("forward", "backward"):
            shardable = [s.label for s in getattr(cn.compiled, phase)
                         if s.kind == "task" and s.shardable]
            assert shardable, f"no shardable {phase} step"
            got = [(s.name, s.args["shard"])
                   for s in cn.tracer.spans_by_cat(phase) if "shard" in s.args]
            assert sorted(got) == sorted(
                (label, w) for label in shardable for w in (0, 1))
        cn.close()

    def test_nan_input_names_first_writing_step(self):
        cn = self._both()
        x, y = _inputs()
        x[0, 0] = np.nan
        with pytest.raises(NumericsError) as exc:
            cn.forward(data=x, label=y)
        assert exc.value.step == "fc1.compute"
        assert exc.value.buffer == "fc1_value"
        cn.close()

    def test_outputs_bitwise_identical_to_unattached(self):
        plain = _mlp(seed=23, num_threads=2)
        both = self._both(seed=23)
        assert plain.num_shards == both.num_shards == 2
        x, y = _inputs(0.5)
        x += np.linspace(-1, 1, x.size, dtype=np.float32).reshape(x.shape)
        assert plain.forward(data=x, label=y) == both.forward(data=x,
                                                              label=y)
        plain.clear_param_grads()
        both.clear_param_grads()
        plain.backward()
        both.backward()
        for pa, pb in zip(plain.parameters(), both.parameters()):
            np.testing.assert_array_equal(pa.grad, pb.grad, err_msg=pa.key)
        plain.close()
        both.close()


class TestCompilerOption:
    """Numerics checking is attached, not compiled: ``watchdog=`` is
    its one spelling, and no ``CompilerOptions`` field names it."""

    def test_watchdog_attaches_with_its_stride(self):
        cn = _mlp(watchdog=NumericsWatchdog(every=3))
        assert cn.watchdog.every == 3
        cn.close()

    def test_default_has_no_watchdog(self):
        cn = _mlp()
        assert cn.watchdog is None
        cn.close()

    def test_watchdog_catches_nan_end_to_end(self):
        cn = _mlp(watchdog=NumericsWatchdog(every=1))
        x, y = _inputs()
        x[1, 3] = np.nan
        with pytest.raises(NumericsError, match="fc1"):
            cn.forward(data=x, label=y)
        cn.close()

    def test_cold_and_warm_cached_compiles_attach_it(self, tmp_path):
        # the watchdog is not in the cache key, so a thaw must attach
        # it exactly as the cold compile does: a NaN raises either way
        cfg = mlp_config(hidden=(8,), classes=3, input_dim=12)
        x, y = _inputs(np.nan)
        for hit in (False, True):
            wd = NumericsWatchdog(every=1)
            cn = compile_cached(cfg, BATCH, watchdog=wd, cache=tmp_path)
            assert cn.compile_report.cache_hit is hit
            assert cn.watchdog is wd
            with pytest.raises(NumericsError):
                cn.forward(data=x, label=y)
            cn.close()


class TestTrainingMonitor:
    def test_non_finite_loss_raises(self):
        mon = TrainingMonitor()
        mon.on_epoch(0, 1.0)
        with pytest.raises(DivergenceError, match="non-finite"):
            mon.on_epoch(1, float("nan"))

    def test_monotone_rise_over_window_raises(self):
        mon = TrainingMonitor(window=3)
        for epoch, loss in enumerate((1.0, 0.9, 1.0, 1.1)):
            mon.on_epoch(epoch, loss)  # only 2 consecutive rises so far
        with pytest.raises(DivergenceError, match="rose"):
            mon.on_epoch(4, 1.2)  # 3rd consecutive rise == window

    def test_non_monotone_rise_is_fine(self):
        mon = TrainingMonitor(window=3)
        for epoch, loss in enumerate((1.0, 1.1, 1.05, 1.2, 1.1, 1.3)):
            mon.on_epoch(epoch, loss)
        assert mon.diverged is None

    def test_record_mode_stores_instead_of_raising(self):
        mon = TrainingMonitor(raise_on_divergence=False)
        mon.on_epoch(0, math.inf)
        assert mon.diverged is not None
        assert mon.diverged.epoch == 0
        assert mon.as_dict()["diverged"] is not None

    def test_registry_gauges_track_latest_epoch(self):
        reg = MetricsRegistry()
        mon = TrainingMonitor(registry=reg)
        mon.on_epoch(0, 2.5, rows=100, seconds=2.0)
        mon.on_epoch(1, 1.5, rows=100, seconds=1.0)
        assert reg.get("train_loss").value() == 1.5
        assert reg.get("train_throughput_rows_per_second").value() == 100.0
        assert reg.get("train_epochs_total").value() == 2

    def test_window_validated(self):
        with pytest.raises(ValueError, match="window"):
            TrainingMonitor(window=1)

    def test_solve_integration_records_series(self):
        cn = _mlp(seed=3)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4 * BATCH, 12)).astype(np.float32)
        labels = rng.integers(0, 3, (4 * BATCH, 1)).astype(np.float32)
        params = SolverParameters(lr_policy=LRPolicy.Fixed(0.01),
                                  mom_policy=MomPolicy.Fixed(0.0),
                                  max_epoch=2)
        reg = MetricsRegistry()
        mon = TrainingMonitor(registry=reg)
        hist = solve(SGD(params), cn, Dataset(data, labels), monitor=mon)
        assert mon.losses == pytest.approx(hist.losses)
        assert len(mon.grad_norms) == 2
        assert all(g > 0 for g in mon.grad_norms)
        assert all(t > 0 for t in mon.throughput)
        assert reg.get("train_loss").value() == pytest.approx(
            hist.losses[-1])
        assert reg.get("train_epochs_total").value() == 2
        cn.close()
