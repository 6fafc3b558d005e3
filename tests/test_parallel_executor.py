"""Thread-parallel executor: serial-vs-parallel equivalence and tracing.

The batch-sharded execution engine (repro.runtime.threads +
repro.optim.parallel shard marking) must be semantically invisible:

* forward losses and activations are **bitwise identical** to serial —
  row-sharded GEMMs keep the contraction (K) order, so even BLAS results
  agree exactly;
* parameter gradients agree to float-reassociation tolerance — a
  batch-contracted reduction computed as shard partials + tree reduction
  legitimately rounds differently from one full-batch GEMM (see DESIGN.md
  "Parallel execution") — and are **bitwise reproducible run-to-run** at
  a fixed shard count (deterministic shard bounds + fixed reduction
  order);
* a full ``solve()`` epoch converges to matching parameters;
* the NullTracer fast path stays span-free, and RecordingTracer gets one
  span per shard with shard args that the Chrome export splits into
  per-shard tracks.
"""

import json

import numpy as np
import pytest

from repro.core import Net
from repro.layers import (
    ConvolutionLayer,
    FullyConnectedEnsemble,
    FullyConnectedLayer,
    AddLayer,
    LSTMLayer,
    MaxPoolingLayer,
    MeanPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
    TanhLayer,
)
from repro.core import all_to_all
from repro.optim import CompilerOptions, compile_net
from repro.solvers import SGD, Dataset, LRPolicy, MomPolicy, SolverParameters, solve
from repro.trace import NullTracer, RecordingTracer
from repro.utils.rng import seed_all

THREADS = [2, 4]
B = 8  # batch size of every zoo model


def _cnn():
    seed_all(5)
    net = Net(B)
    d = MemoryDataLayer(net, "data", (3, 10, 10))
    lbl = MemoryDataLayer(net, "label", (1,))
    conv = ConvolutionLayer("conv1", net, d, 4, 3, pad=1)
    relu = ReLULayer("relu1", net, conv)
    pool = MaxPoolingLayer("pool1", net, relu, 2, 2)
    fc = FullyConnectedLayer("fc1", net, pool, 6)
    SoftmaxLossLayer("loss", net, fc, lbl)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((B, 3, 10, 10)).astype(np.float32)
    y = rng.integers(0, 6, (B, 1)).astype(np.float32)
    return net, {"data": x, "label": y}


def _mlp():
    seed_all(6)
    net = Net(B)
    d = MemoryDataLayer(net, "data", (12,))
    lbl = MemoryDataLayer(net, "label", (1,))
    fc1 = FullyConnectedLayer("fc1", net, d, 16)
    th = TanhLayer("tanh1", net, fc1)
    fc2 = FullyConnectedLayer("fc2", net, th, 4)
    SoftmaxLossLayer("loss", net, fc2, lbl)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((B, 12)).astype(np.float32)
    y = rng.integers(0, 4, (B, 1)).astype(np.float32)
    return net, {"data": x, "label": y}


def _mean_pool_cnn():
    seed_all(9)
    net = Net(B)
    d = MemoryDataLayer(net, "data", (2, 8, 8))
    lbl = MemoryDataLayer(net, "label", (1,))
    conv = ConvolutionLayer("conv1", net, d, 3, 3, stride=2)
    pool = MeanPoolingLayer("pool1", net, conv, 3, 1)
    fc = FullyConnectedLayer("fc1", net, pool, 5)
    SoftmaxLossLayer("loss", net, fc, lbl)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((B, 2, 8, 8)).astype(np.float32)
    y = rng.integers(0, 5, (B, 1)).astype(np.float32)
    return net, {"data": x, "label": y}


def _recurrent_gate(T=3, D=5, N=4):
    seed_all(11)
    net = Net(B, time_steps=T)
    x = MemoryDataLayer(net, "data", (D,))
    lbl = MemoryDataLayer(net, "label", (1,))
    hx = FullyConnectedLayer("hx", net, x, N)
    hh = FullyConnectedEnsemble("hh", net, N, N)
    h = AddLayer("h", net, hx, hh)
    net.add_connections(h, hh, all_to_all((N,)), recurrent=True)
    fc = FullyConnectedLayer("fc", net, h, 3)
    SoftmaxLossLayer("loss", net, fc, lbl)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((T, B, D)).astype(np.float32)
    y = rng.integers(0, 3, (T, B, 1)).astype(np.float32)
    return net, {"data": x, "label": y}


def _lstm(T=3, D=5, N=4):
    seed_all(12)
    net = Net(B, time_steps=T)
    x = MemoryDataLayer(net, "data", (D,))
    lbl = MemoryDataLayer(net, "label", (1,))
    blk = LSTMLayer("rnn", net, x, N)
    fc = FullyConnectedLayer("fc", net, blk.h, 3)
    SoftmaxLossLayer("loss", net, fc, lbl)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((T, B, D)).astype(np.float32)
    y = rng.integers(0, 3, (T, B, 1)).astype(np.float32)
    return net, {"data": x, "label": y}


ZOO = {
    "cnn": _cnn,
    "mlp": _mlp,
    "mean_pool_cnn": _mean_pool_cnn,
    "recurrent_gate": _recurrent_gate,
    "lstm": _lstm,
}


def _run(build, level, num_threads):
    """Compile at num_threads with every ensemble kept inspectable, run
    forward+backward, snapshot results."""
    net, feed = build()
    cn = net.init(CompilerOptions.level(level), num_threads=num_threads,
                  keep_alive=list(net.ensembles))
    loss = cn.forward(**feed)
    cn.clear_param_grads()
    cn.backward()
    grads = {p.key: p.grad.copy() for p in cn.parameters()}
    values = {
        e.name: cn.value(e.name).copy()
        for e in cn.net.ensembles.values()
        if f"{e.name}_value" in cn.buffers
    }
    shardable = sum(
        s.shardable
        for phase in (cn.compiled.forward, cn.compiled.backward)
        for s in phase
    )
    cn.close()
    return loss, values, grads, shardable


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("model", list(ZOO))
    @pytest.mark.parametrize("threads", THREADS)
    def test_forward_and_grads_match(self, model, threads):
        loss1, vals1, grads1, _ = _run(ZOO[model], 4, 1)
        lossN, valsN, gradsN, shardable = _run(ZOO[model], 4, threads)
        assert shardable > 0, "no steps were marked shardable at O4"
        assert lossN == loss1  # forward is bitwise identical
        for name in vals1:
            np.testing.assert_array_equal(valsN[name], vals1[name],
                                          err_msg=name)
        for key in grads1:
            # batch-contracted reductions reassociate across shards
            np.testing.assert_allclose(gradsN[key], grads1[key],
                                       rtol=1e-4, atol=1e-6, err_msg=key)

    @pytest.mark.parametrize("threads", THREADS)
    def test_o3_also_matches(self, threads):
        loss1, vals1, grads1, _ = _run(_cnn, 3, 1)
        lossN, valsN, gradsN, shardable = _run(_cnn, 3, threads)
        assert shardable > 0
        assert lossN == loss1
        for name in vals1:
            np.testing.assert_array_equal(valsN[name], vals1[name])
        for key in grads1:
            np.testing.assert_allclose(gradsN[key], grads1[key],
                                       rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("model", ["cnn", "lstm"])
    def test_parallel_runs_are_bitwise_deterministic(self, model):
        """Fixed shard count + tree reduction: rerunning at the same
        thread count reproduces every gradient bit-for-bit."""
        a = _run(ZOO[model], 4, 4)
        b = _run(ZOO[model], 4, 4)
        assert a[0] == b[0]
        for key in a[2]:
            np.testing.assert_array_equal(a[2][key], b[2][key])

    def test_below_o3_stays_serial(self):
        net, feed = _cnn()
        cn = net.init(CompilerOptions.level(2), num_threads=4)
        assert cn.num_shards == 1  # no parallel pass, nothing shardable
        cn.forward(**feed)


class TestSolveEpoch:
    def _dataset(self, n=32):
        rng = np.random.default_rng(21)
        return Dataset(
            rng.standard_normal((n, 12)).astype(np.float32),
            rng.integers(0, 4, (n,)),
        )

    def _train(self, num_threads):
        net, _ = _mlp()
        cn = net.init(CompilerOptions.level(4), num_threads=num_threads)
        params = SolverParameters(
            lr_policy=LRPolicy.Fixed(0.05),
            mom_policy=MomPolicy.Fixed(0.9),
            max_epoch=1,
        )
        hist = solve(SGD(params), cn, self._dataset(), shuffle=False,
                     output_ens="fc2")
        state = {p.key: p.value.copy() for p in cn.parameters()}
        cn.close()
        return hist, state

    @pytest.mark.parametrize("threads", THREADS)
    def test_full_epoch_matches_serial(self, threads):
        hist1, params1 = self._train(1)
        histN, paramsN = self._train(threads)
        assert histN.losses == pytest.approx(hist1.losses, rel=1e-4)
        assert histN.train_accuracy == hist1.train_accuracy
        for key in params1:
            np.testing.assert_allclose(paramsN[key], params1[key],
                                       rtol=1e-3, atol=1e-5, err_msg=key)


class TestShardCompilation:
    def test_serial_compile_is_unchanged_by_default(self, monkeypatch):
        """num_threads=1 (the default absent REPRO_NUM_THREADS) must
        produce byte-identical generated source — the tier-1
        bit-identity guarantee."""
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        net1, _ = _cnn()
        src1 = net1.init(CompilerOptions.level(4)).source
        net2, _ = _cnn()
        src2 = net2.init(CompilerOptions.level(4), num_threads=1).source
        assert src1 == src2
        assert "_b0" not in src1

    def test_threaded_compile_emits_shard_parameters(self):
        net, _ = _cnn()
        cn = net.init(CompilerOptions.level(4), num_threads=2)
        assert "def _step_f0(B, rt, _b0=0, _b1=8):" in cn.source
        # weight/bias gradients are privatized, never raced
        assert "conv1_grad_weights" in cn.plan.private_accums
        assert "fc1_grad_bias" in cn.plan.private_accums
        bwd = [s for s in cn.compiled.backward if s.private_accums]
        assert bwd, "no backward step privatizes an accumulator"
        for step in bwd:
            assert set(step.private_accums) <= set(cn.plan.private_accums)

    def test_env_var_enables_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        net, _ = _mlp()
        cn = compile_net(net, CompilerOptions.level(4))
        assert cn.num_threads == 3
        assert cn.num_shards == 3

    def test_shards_never_exceed_batch(self):
        seed_all(5)
        net = Net(2)
        d = MemoryDataLayer(net, "data", (4,))
        lbl = MemoryDataLayer(net, "label", (1,))
        fc = FullyConnectedLayer("fc1", net, d, 3)
        SoftmaxLossLayer("loss", net, fc, lbl)
        cn = net.init(CompilerOptions.level(4), num_threads=8)
        assert cn.num_shards == 2
        x = np.zeros((2, 4), np.float32)
        y = np.zeros((2, 1), np.float32)
        cn.forward(data=x, label=y)
        cn.backward()


class _CountingNullTracer(NullTracer):
    """NullTracer spy: counts every recording entry point."""

    def __init__(self):
        self.calls = 0

    def begin(self, name, cat, t=0, **args):
        self.calls += 1

    def add_span(self, name, cat, start, dur, t=0, **args):
        self.calls += 1


class TestParallelTracing:
    def test_null_tracer_plus_threads_adds_no_spans(self):
        tr = _CountingNullTracer()
        net, feed = _cnn()
        cn = net.init(CompilerOptions.level(4), tracer=tr, num_threads=4)
        assert cn.num_shards > 1
        # compile-time passes go through Tracer.span -> begin; only the
        # runtime paths must never touch a disabled tracer
        compile_calls = tr.calls
        cn.forward(**feed)
        cn.clear_param_grads()
        cn.backward()
        cn.forward(**feed)
        cn.backward()
        assert tr.calls == compile_calls

    def test_per_shard_spans_recorded(self):
        tr = RecordingTracer()
        net, feed = _cnn()
        cn = net.init(CompilerOptions.level(4), tracer=tr, num_threads=2)
        cn.forward(**feed)
        cn.clear_param_grads()
        cn.backward()
        for cat in ("forward", "backward"):
            sharded = [s for s in tr.spans_by_cat(cat)
                       if "shard" in s.args]
            assert sharded, f"no per-shard {cat} spans"
            shards = {s.args["shard"] for s in sharded}
            assert shards == {0, 1}
            assert all(s.args["shards"] == 2 for s in sharded)
            assert all(s.dur >= 0 for s in sharded)

    def test_chrome_export_splits_shard_tracks(self, tmp_path):
        tr = RecordingTracer()
        net, feed = _cnn()
        cn = net.init(CompilerOptions.level(4), tracer=tr, num_threads=2)
        cn.forward(**feed)
        path = tr.export_chrome_trace(str(tmp_path / "trace.json"))
        data = json.load(open(path))
        names = {e["args"]["name"] for e in data["traceEvents"]
                 if e["ph"] == "M"}
        assert {"forward.s0", "forward.s1"} <= names
        # shard events live on distinct tids
        tids = {e["tid"] for e in data["traceEvents"]
                if e["ph"] == "X" and "shard" in e["args"]}
        assert len(tids) >= 2
