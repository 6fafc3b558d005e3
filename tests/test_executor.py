"""Tests for the runtime executor: buffer allocation, input feeding,
loss recording, gradient zeroing, and the generated-source surface."""

import numpy as np
import pytest

from repro.core import Net
from repro.layers import (
    DataAndLabelLayer,
    FullyConnectedLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
from repro.optim import CompilerOptions
from repro.utils.rng import seed_all


def _mlp(batch=4, lvl=4, keep_alive=None):
    seed_all(1)
    net = Net(batch)
    data, label = DataAndLabelLayer(net, (6,))
    ip1 = FullyConnectedLayer("ip1", net, data, 8)
    r = ReLULayer("r1", net, ip1)
    ip2 = FullyConnectedLayer("ip2", net, r, 3)
    SoftmaxLossLayer("loss", net, ip2, label)
    return net.init(CompilerOptions.level(lvl), keep_alive=keep_alive)


class TestInputs:
    def test_wrong_shape_rejected(self):
        cn = _mlp()
        with pytest.raises(ValueError, match="shape"):
            cn.set_input("data", np.zeros((4, 7), np.float32))

    def test_non_data_ensemble_rejected(self):
        cn = _mlp()
        with pytest.raises(KeyError):
            cn.set_input("ip1", np.zeros((4, 8), np.float32))

    def test_forward_kwargs_feed_data(self):
        cn = _mlp()
        x = np.ones((4, 6), np.float32)
        cn.forward(data=x, label=np.zeros((4, 1), np.float32))
        np.testing.assert_array_equal(cn.buffers["data_value"], x)

    def test_dtype_coerced(self):
        cn = _mlp()
        cn.set_input("data", np.ones((4, 6), np.float64))
        assert cn.buffers["data_value"].dtype == np.float32


class TestLossAndGrads:
    def test_loss_recorded_per_forward(self):
        cn = _mlp()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y = rng.integers(0, 3, (4, 1)).astype(np.float32)
        l1 = cn.forward(data=x, label=y)
        l2 = cn.forward(data=x, label=y)
        assert l1 == pytest.approx(l2)
        assert l1 > 0

    def test_param_grads_accumulate_until_cleared(self):
        cn = _mlp()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y = rng.integers(0, 3, (4, 1)).astype(np.float32)
        cn.forward(data=x, label=y)
        cn.clear_param_grads()
        cn.backward()
        g1 = cn.buffers["ip2_grad_weights"].copy()
        cn.forward(data=x, label=y)
        cn.backward()  # no clear: accumulates (gradient summation)
        np.testing.assert_allclose(cn.buffers["ip2_grad_weights"], 2 * g1,
                                   rtol=1e-4, atol=1e-6)
        cn.clear_param_grads()
        assert cn.buffers["ip2_grad_weights"].sum() == 0

    def test_activation_grads_reset_each_backward(self):
        cn = _mlp()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y = rng.integers(0, 3, (4, 1)).astype(np.float32)
        cn.forward(data=x, label=y)
        cn.clear_param_grads()
        cn.backward()
        d1 = cn.grad("data").copy()
        cn.forward(data=x, label=y)
        cn.backward()
        np.testing.assert_allclose(cn.grad("data"), d1, rtol=1e-5)


class TestIntrospection:
    def test_generated_source_is_compilable_text(self):
        cn = _mlp()
        compile(cn.source, "<check>", "exec")

    def test_parameters_are_views_not_copies(self):
        cn = _mlp()
        p = cn.parameters()[0]
        p.value[...] = 7.0
        assert (cn.buffers[f"{p.ensemble}_{p.name}"] == 7.0).all()

    def test_value_and_grad_accessors(self):
        cn = _mlp(keep_alive=["ip1"])
        assert cn.value("ip1").shape == (4, 8)
        assert cn.grad("ip1").shape == (4, 8)

    def test_param_lr_mults(self):
        cn = _mlp()
        mults = {p.key: p.lr_mult for p in cn.parameters()}
        assert mults["ip1.weights"] == 1.0
        assert mults["ip1.bias"] == 2.0


class TestAllocation:
    def test_field_arrays_registered_by_reference(self):
        seed_all(1)
        net = Net(2)
        d = MemoryDataLayer(net, "data", (6,))
        fc = FullyConnectedLayer("fc", net, d, 5)
        binding = fc.field_bindings["weights"]
        cn = net.init()
        assert cn.buffers["fc_weights"] is binding.array

    def test_float64_params_rejected(self):
        from repro.core import Ensemble, FieldBinding, VEC, Dim
        from repro.layers.neurons import ScaleNeuron
        from repro.core import one_to_one

        net = Net(2)
        d = MemoryDataLayer(net, "data", (4,))
        ens = Ensemble(net, "s", ScaleNeuron, (4,), fields={
            "scale": FieldBinding(np.ones((1, 4)), (0, Dim(0)))
        })
        net.add_connections(d, ens, one_to_one(1))
        with pytest.raises(TypeError, match="float32"):
            net.init()
