"""Tests for ConcatLayer and an Inception-style multi-branch block —
the novel-topology composition the paper's introduction motivates."""

import numpy as np
import pytest

from repro.core import Net
from repro.layers import (
    ConvolutionLayer,
    DataAndLabelLayer,
    FullyConnectedLayer,
    MaxPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
from repro.layers.concat import ConcatLayer
from repro.optim import CompilerOptions
from repro.testing.oracle import batch_tiles
from repro.utils.rng import seed_all
from tests.conftest import run_backward_seeded

B = 2


class TestConcat:
    def _build(self):
        net = Net(B)
        a = MemoryDataLayer(net, "a", (2, 4, 4))
        b = MemoryDataLayer(net, "b", (3, 4, 4))
        ConcatLayer("cat", net, [a, b])
        return net.init()

    def test_forward_stacks_channels(self):
        cn = self._build()
        xa = np.random.default_rng(0).standard_normal((B, 2, 4, 4)).astype(
            np.float32
        )
        xb = np.random.default_rng(1).standard_normal((B, 3, 4, 4)).astype(
            np.float32
        )
        cn.set_input("a", xa)
        cn.set_input("b", xb)
        cn.forward()
        np.testing.assert_array_equal(cn.value("cat")[:, :2], xa)
        np.testing.assert_array_equal(cn.value("cat")[:, 2:], xb)

    def test_backward_splits_gradient(self):
        cn = self._build()
        cn.set_input("a", np.zeros((B, 2, 4, 4), np.float32))
        cn.set_input("b", np.zeros((B, 3, 4, 4), np.float32))
        cn.forward()
        g = np.random.default_rng(2).standard_normal((B, 5, 4, 4)).astype(
            np.float32
        )
        run_backward_seeded(cn, "cat", g)
        np.testing.assert_array_equal(cn.grad("a"), g[:, :2])
        np.testing.assert_array_equal(cn.grad("b"), g[:, 2:])

    def test_validation(self):
        net = Net(B)
        a = MemoryDataLayer(net, "a", (2, 4, 4))
        with pytest.raises(ValueError, match="two inputs"):
            ConcatLayer("cat", net, [a])
        b = MemoryDataLayer(net, "b", (2, 5, 5))
        with pytest.raises(ValueError, match="spatial"):
            ConcatLayer("cat2", net, [a, b])


class TestInceptionBlock:
    """A 3-branch Inception-style module: 1x1 conv, 3x3 conv, pooled
    branch, concatenated and classified — built entirely from the DSL."""

    def _build(self, lvl=4, keep_alive=None):
        seed_all(41)
        net = Net(B)
        data, label = DataAndLabelLayer(net, (3, 8, 8))
        b1 = ReLULayer("r1", net,
                       ConvolutionLayer("c1x1", net, data, 4, 1))
        b2 = ReLULayer("r2", net,
                       ConvolutionLayer("c3x3", net, data, 4, 3, pad=1))
        pooled = MaxPoolingLayer("p", net, data, 3, 1, 1)
        b3 = ConvolutionLayer("cpool", net, pooled, 2, 1)
        cat = ConcatLayer("cat", net, [b1, b2, b3])
        fc = FullyConnectedLayer("fc", net, cat, 5)
        SoftmaxLossLayer("loss", net, fc, label)
        with batch_tiles():  # tiny geometry: tile the conv chains anyway
            return net.init(CompilerOptions.level(lvl),
                            keep_alive=keep_alive)

    def test_forward_shape(self):
        cn = self._build(keep_alive=["cat"])
        x = np.random.default_rng(3).standard_normal((B, 3, 8, 8)).astype(
            np.float32
        )
        y = np.zeros((B, 1), np.float32)
        loss = cn.forward(data=x, label=y)
        assert cn.value("cat").shape == (B, 10, 8, 8)
        assert np.isfinite(loss)

    def test_o0_o4_equivalence(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((B, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 5, (B, 1)).astype(np.float32)
        res = {}
        for lvl in (0, 4):
            cn = self._build(lvl)
            loss = cn.forward(data=x, label=y)
            cn.clear_param_grads()
            cn.backward()
            res[lvl] = (loss, cn.grad("data").copy())
        assert res[4][0] == pytest.approx(res[0][0], rel=1e-4)
        np.testing.assert_allclose(res[4][1], res[0][1], rtol=1e-3,
                                   atol=1e-5)

    def test_branches_all_receive_gradient(self):
        cn = self._build()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((B, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 5, (B, 1)).astype(np.float32)
        cn.forward(data=x, label=y)
        cn.clear_param_grads()
        cn.backward()
        for ens in ("c1x1", "c3x3", "cpool"):
            assert np.abs(cn.buffers[f"{ens}_grad_weights"]).sum() > 0
