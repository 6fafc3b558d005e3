"""Tests for buffer planning — the memory consequences of shared-variable
analysis (§5.2) and in-place execution."""

import numpy as np
import pytest

from repro.core import (
    ActivationEnsemble,
    DataEnsemble,
    Ensemble,
    Net,
    all_to_all,
    one_to_one,
)
from repro.layers import (
    ConvolutionLayer,
    FullyConnectedLayer,
    MaxPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
)
from repro.layers.neurons import ReLUNeuron
from repro.optim import CompilerOptions
from repro.synthesis.plan import plan_buffers


def _plan(net, **kw):
    return plan_buffers(net, CompilerOptions(**kw))


class TestFullyShared:
    def test_fc_inputs_alias_source(self):
        net = Net(4)
        d = MemoryDataLayer(net, "data", (6,))
        FullyConnectedLayer("fc", net, d, 5)
        plan = _plan(net)
        cp = plan.conn_plans[("fc", 0)]
        assert cp.mode == "alias"
        spec = plan.buffers["fc_inputs0"]
        assert spec.alias_of == "data_value"
        assert spec.alias_reshape == (6,)

    def test_fc_from_conv_flattens(self):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 4, 4))
        FullyConnectedLayer("fc", net, d, 5)
        plan = _plan(net)
        assert plan.buffers["fc_inputs0"].alias_reshape == (48,)


class TestConvPlan:
    def _make(self, **kw):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 8, 8))
        ConvolutionLayer("conv", net, d, 4, 3, pad=1)
        return _plan(net, **kw)

    def test_im2col_buffer_drops_channel_dim(self):
        plan = self._make()
        # shared across output channels: (K, H, W), not (K, C, H, W)
        assert plan.buffers["conv_inputs0"].shape == (27, 8, 8)

    def test_padded_staging_buffers(self):
        plan = self._make()
        cp = plan.conn_plans[("conv", 0)]
        assert cp.padded_value
        assert plan.buffers[cp.padded_value].shape == (3, 10, 10)
        assert cp.pad_before == (0, 1, 1)

    def test_params_registered_with_lr_mults(self):
        plan = self._make()
        by_name = {p.name: p for p in plan.params if p.ensemble == "conv"}
        assert by_name["weights"].lr_mult == 1.0
        assert by_name["bias"].lr_mult == 2.0


class TestInPlace:
    def _net(self):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 8, 8))
        conv = ConvolutionLayer("conv", net, d, 4, 3, pad=1)
        relu = ReLULayer("relu", net, conv)
        return net, conv, relu

    def test_activation_aliases_source(self):
        net, *_ = self._net()
        plan = _plan(net)
        assert plan.inplace == {"relu": "conv"}
        assert plan.buffers["relu_value"].alias_of == "conv_value"
        assert plan.buffers["relu_grad"].alias_of == "conv_grad"

    def test_disabled_when_option_off(self):
        net, *_ = self._net()
        plan = _plan(net, opt_level=2)
        assert plan.inplace == {}
        assert plan.buffers["relu_value"].alias_of is None

    def test_disabled_for_multi_consumer_source(self):
        net, conv, relu = self._net()
        MaxPoolingLayer("pool", net, conv)  # second consumer of conv
        plan = _plan(net)
        assert "relu" not in plan.inplace

    def test_data_source_never_inplace(self):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (4,))
        ReLULayer("relu", net, d)
        plan = _plan(net)
        assert "relu" not in plan.inplace

    def test_no_inplace_on_value_reading_source(self):
        # relu's backward reads self.value, so it may not host another
        # in-place op (the sink's forward would clobber that value);
        # relu itself still aliases conv, whose backward reads only its
        # inputs and weights
        net, conv, relu = self._net()
        relu2 = ReLULayer("relu2", net, relu)
        plan = _plan(net)
        assert plan.inplace == {"relu": "conv"}
        assert plan.resolve_alias("relu_value") == "conv_value"
        assert plan.resolve_alias("relu2_value") == "relu2_value"

    def test_no_inplace_on_max_pool(self):
        # max pooling's backward routes gradient by comparing inputs to
        # self.value; an in-place activation on top would corrupt it
        # (fuzzer-found: tests/regressions/ max-pool + dropout case)
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 8, 8))
        pool = MaxPoolingLayer("pool", net, d)
        ReLULayer("relu", net, pool)
        plan = _plan(net)
        assert "relu" not in plan.inplace


class TestRecurrentPlan:
    def test_recurrent_never_aliases(self):
        net = Net(2, time_steps=2)
        a = Ensemble(net, "a", ReLUNeuron, (4,))
        b = Ensemble(net, "b", ReLUNeuron, (4,))
        net.add_connections(a, b, all_to_all((4,)), recurrent=True)
        net.add_connections(b, a, one_to_one(1))
        plan = _plan(net)
        cp = plan.conn_plans[("b", 0)]
        assert cp.mode == "copy"
        assert cp.recurrent

    def test_recurrent_activation_not_inplace(self):
        net = Net(2, time_steps=2)
        a = Ensemble(net, "a", ReLUNeuron, (4,))
        act = ActivationEnsemble(net, "r", ReLUNeuron, a)
        # make the one-to-one recurrent by rebuilding manually
        act.inputs[0].recurrent = True
        plan = _plan(net)
        assert "r" not in plan.inplace


class TestDuplicateBuffer:
    def test_duplicate_buffer_name_rejected(self):
        from repro.synthesis.plan import BufferPlan, BufferSpec

        plan = BufferPlan(2, 1)
        plan.add(BufferSpec("x", (2,), "value"))
        with pytest.raises(ValueError, match="duplicate"):
            plan.add(BufferSpec("x", (2,), "value"))
