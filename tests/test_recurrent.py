"""Tests for recurrent networks: time-unrolled execution, BPTT, and the
LSTM/GRU blocks of §4 Fig. 6."""

import numpy as np
import pytest

from repro.core import Ensemble, Net, all_to_all, one_to_one
from repro.layers import (
    FullyConnectedEnsemble,
    FullyConnectedLayer,
    GRULayer,
    LSTMLayer,
    MemoryDataLayer,
    SoftmaxLossLayer,
)
from repro.layers.mathops import AddLayer
from repro.layers.neurons import AddNeuron
from repro.optim import CompilerOptions
from repro.utils.rng import seed_all

T, B, D, N = 3, 2, 4, 5


class TestAccumulator:
    def _build(self, lvl=4, t=4):
        net = Net(B, time_steps=t)
        x = MemoryDataLayer(net, "data", (3,))
        h = Ensemble(net, "h", AddNeuron, (3,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        # every test reads h, which has a consumer (itself)
        return net.init(CompilerOptions.level(lvl), keep_alive=["h"])

    @pytest.mark.parametrize("lvl", [0, 4])
    def test_forward_is_prefix_sum(self, lvl):
        cn = self._build(lvl)
        xs = np.random.default_rng(0).standard_normal(
            (4, B, 3)
        ).astype(np.float32)
        cn.forward(data=xs)
        np.testing.assert_allclose(cn.value("h"), np.cumsum(xs, axis=0),
                                   rtol=1e-5)

    def test_bptt_distributes_gradient_to_all_steps(self):
        cn = self._build()
        xs = np.zeros((4, B, 3), np.float32)
        cn.forward(data=xs)
        g = np.random.default_rng(1).standard_normal((B, 3)).astype(
            np.float32
        )
        seed = np.zeros_like(cn.grad("h"))
        seed[3] = g
        cn.backward(seed_grads={"h": seed})
        for t in range(4):
            np.testing.assert_allclose(cn.grad("data")[t], g, rtol=1e-6)

    def test_zero_initial_state(self):
        """At t=0 the recurrent input is a zero state — even for T == 1,
        and even across repeated forward calls (no state leakage)."""
        cn = self._build(t=1)
        xs = np.ones((B, 3), np.float32)
        cn.forward(data=xs)
        np.testing.assert_allclose(cn.value("h"), 1.0)
        cn.forward(data=xs)  # previous h must not leak in
        np.testing.assert_allclose(cn.value("h"), 1.0)


class TestRecurrentGate:
    """h_t = W_x x_t + W_h h_{t-1} — the minimal gate pattern."""

    def _build(self, lvl=4, keep_alive=()):
        seed_all(11)
        net = Net(B, time_steps=T)
        x = MemoryDataLayer(net, "data", (D,))
        label = MemoryDataLayer(net, "label", (1,))
        hx = FullyConnectedLayer("hx", net, x, N)
        hh = FullyConnectedEnsemble("hh", net, N, N)
        h = AddLayer("h", net, hx, hh)
        net.add_connections(h, hh, all_to_all((N,)), recurrent=True)
        fc = FullyConnectedLayer("fc", net, h, 3)
        SoftmaxLossLayer("loss", net, fc, label)
        return net.init(CompilerOptions.level(lvl), keep_alive=keep_alive)

    def _io(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((T, B, D)).astype(np.float32)
        ys = rng.integers(0, 3, (T, B, 1)).astype(np.float32)
        return xs, ys

    def test_forward_matches_manual_unroll(self):
        cn = self._build(keep_alive=["h"])
        xs, ys = self._io()
        cn.forward(data=xs, label=ys)
        Wx, bx = cn.buffers["hx_weights"], cn.buffers["hx_bias"]
        Wh, bh = cn.buffers["hh_weights"], cn.buffers["hh_bias"]
        h_prev = np.zeros((B, N), np.float32)
        for t in range(T):
            h_t = xs[t] @ Wx + bx + (h_prev @ Wh + bh)
            np.testing.assert_allclose(cn.value("h")[t], h_t, rtol=1e-4,
                                       atol=1e-5)
            h_prev = h_t

    def test_numeric_input_gradients_all_steps(self):
        cn = self._build()
        xs, ys = self._io()
        cn.forward(data=xs, label=ys)
        cn.clear_param_grads()
        cn.backward()
        dx = cn.grad("data").copy()
        eps = 1e-2
        for idx in [(0, 0, 0), (1, 1, 2), (2, 0, 3)]:
            xp, xm = xs.copy(), xs.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num = (self._build().forward(data=xp, label=ys)
                   - self._build().forward(data=xm, label=ys)) / (2 * eps)
            assert abs(num - dx[idx]) < 2e-3, (idx, num, dx[idx])

    def test_o0_o4_equivalent(self):
        xs, ys = self._io()
        res = {}
        for lvl in (0, 4):
            cn = self._build(lvl)
            loss = cn.forward(data=xs, label=ys)
            cn.clear_param_grads()
            cn.backward()
            res[lvl] = (loss, cn.grad("data").copy(),
                        cn.buffers["hh_grad_weights"].copy())
        assert res[0][0] == pytest.approx(res[4][0], rel=1e-5)
        np.testing.assert_allclose(res[4][1], res[0][1], rtol=1e-4,
                                   atol=1e-6)
        np.testing.assert_allclose(res[4][2], res[0][2], rtol=1e-4,
                                   atol=1e-6)


class TestRNNBlocks:
    def _build(self, block_fn, lvl=4, keep_alive=()):
        seed_all(11)
        net = Net(B, time_steps=T)
        x = MemoryDataLayer(net, "data", (D,))
        label = MemoryDataLayer(net, "label", (1,))
        blk = block_fn("rnn", net, x, N)
        fc = FullyConnectedLayer("fc", net, blk.h, 3)
        SoftmaxLossLayer("loss", net, fc, label)
        return net.init(CompilerOptions.level(lvl), keep_alive=keep_alive)

    def _io(self):
        rng = np.random.default_rng(2)
        return (rng.standard_normal((T, B, D)).astype(np.float32),
                rng.integers(0, 3, (T, B, 1)).astype(np.float32))

    @pytest.mark.parametrize("block_fn", [LSTMLayer, GRULayer],
                             ids=["lstm", "gru"])
    def test_numeric_bptt_gradients(self, block_fn):
        xs, ys = self._io()
        cn = self._build(block_fn)
        cn.forward(data=xs, label=ys)
        cn.clear_param_grads()
        cn.backward()
        dx = cn.grad("data").copy()
        eps = 1e-2
        for idx in [(0, 0, 0), (1, 0, 2)]:
            xp, xm = xs.copy(), xs.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num = (self._build(block_fn).forward(data=xp, label=ys)
                   - self._build(block_fn).forward(data=xm, label=ys)) / (
                2 * eps
            )
            assert abs(num - dx[idx]) < 2e-3, (idx, num, dx[idx])

    @pytest.mark.parametrize("block_fn", [LSTMLayer, GRULayer],
                             ids=["lstm", "gru"])
    def test_gates_bounded(self, block_fn):
        xs, ys = self._io()
        gate = "rnn_i" if block_fn is LSTMLayer else "rnn_z"
        cn = self._build(block_fn, keep_alive=[gate])
        cn.forward(data=xs, label=ys)
        vals = cn.value(gate)
        assert (vals >= 0).all() and (vals <= 1).all()

    def test_lstm_learns_sequence_task(self):
        """Smoke: a few SGD steps on a toy task reduce the loss."""
        from repro.solvers import SGD, SolverParameters, LRPolicy

        cn = self._build(LSTMLayer)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((T, B, D)).astype(np.float32)
        ys = np.tile(
            rng.integers(0, 3, (1, B, 1)), (T, 1, 1)
        ).astype(np.float32)
        solver = SGD(SolverParameters(lr_policy=LRPolicy.Fixed(0.3)))
        first = cn.forward(data=xs, label=ys)
        for _ in range(20):
            cn.forward(data=xs, label=ys)
            cn.clear_param_grads()
            cn.backward()
            solver.update(cn)
        assert cn.forward(data=xs, label=ys) < first * 0.5


class TestRecurrentValidation:
    def test_mixed_recurrence_on_same_source_rejected(self):
        from repro.synthesis.lower import SynthesisError

        net = Net(B, time_steps=2)
        d1 = MemoryDataLayer(net, "d1", (3,))
        d2 = MemoryDataLayer(net, "d2", (3,))
        a = Ensemble(net, "a", AddNeuron, (3,))
        b = Ensemble(net, "b", AddNeuron, (3,))
        net.add_connections(d1, a, one_to_one(1))
        net.add_connections(d2, a, one_to_one(1))
        net.add_connections(a, b, one_to_one(1))
        net.add_connections(a, b, one_to_one(1), recurrent=True)
        with pytest.raises(SynthesisError, match="recurrent"):
            net.init()

    def test_recurrent_padding_rejected(self):
        from repro.core import spatial_window_2d

        net = Net(B, time_steps=2)
        a = Ensemble(net, "a", AddNeuron, (2, 4, 4))
        b = Ensemble(net, "b", AddNeuron, (2, 4, 4))
        net.add_connections(a, b, one_to_one(3))
        net.add_connections(b, a, spatial_window_2d(3, 1, 1),
                            recurrent=True)
        with pytest.raises(ValueError, match="padding"):
            net.init()
