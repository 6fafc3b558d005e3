"""Coverage for the remaining units: individual math neurons, metrics,
time-axis buffer allocation, network models' broadcast, and an
integration run training the Fig. 20 CNN configuration."""

import numpy as np
import pytest

from repro.core import Ensemble, Net, one_to_one
from repro.layers import (
    Add3Layer,
    MemoryDataLayer,
    OneMinusLayer,
    SigmoidEnsemble,
    TanhEnsemble,
    top1_accuracy,
    topk_accuracy,
)
from repro.layers.mathops import MulEnsemble
from repro.layers.neurons import ScaleNeuron
from repro.core import Dim, FieldBinding
from repro.optim import CompilerOptions
from repro.runtime.netsim import cori_aries
from tests.conftest import run_backward_seeded

B = 2


def _net_with(layer_builder, n_inputs=1, dim=5, keep_alive=()):
    net = Net(B)
    srcs = [MemoryDataLayer(net, f"d{i}", (dim,)) for i in range(n_inputs)]
    ens = layer_builder(net, srcs)
    return net.init(keep_alive=keep_alive), srcs, ens


class TestMathNeurons:
    def test_add3(self):
        cn, srcs, ens = _net_with(
            lambda net, s: Add3Layer("a3", net, *s), n_inputs=3
        )
        xs = [np.full((B, 5), float(i + 1), np.float32) for i in range(3)]
        for i, x in enumerate(xs):
            cn.set_input(f"d{i}", x)
        cn.forward()
        np.testing.assert_allclose(cn.value("a3"), 6.0)
        run_backward_seeded(cn, "a3", np.ones((B, 5), np.float32))
        for i in range(3):
            np.testing.assert_allclose(cn.grad(f"d{i}"), 1.0)

    def test_one_minus(self):
        cn, *_ = _net_with(lambda net, s: OneMinusLayer("om", net, s[0]))
        x = np.random.default_rng(0).standard_normal((B, 5)).astype(
            np.float32
        )
        cn.set_input("d0", x)
        cn.forward()
        np.testing.assert_allclose(cn.value("om"), 1 - x, rtol=1e-6)
        run_backward_seeded(cn, "om", np.ones((B, 5), np.float32))
        np.testing.assert_allclose(cn.grad("d0"), -1.0)

    def test_standalone_sigmoid_and_tanh_not_inplace(self):
        cn, *_ = _net_with(
            lambda net, s: TanhEnsemble("t", net,
                                        SigmoidEnsemble("s", net, s[0])),
            keep_alive=["s"],
        )
        x = np.random.default_rng(1).standard_normal((B, 5)).astype(
            np.float32
        )
        cn.set_input("d0", x)
        cn.forward()
        sig = 1 / (1 + np.exp(-x))
        np.testing.assert_allclose(cn.value("s"), sig, rtol=1e-5)
        np.testing.assert_allclose(cn.value("t"), np.tanh(sig), rtol=1e-5)
        # out-of-place: distinct buffers
        assert cn.buffers["s_value"] is not cn.buffers["d0_value"]

    def test_scale_neuron_per_neuron_factor(self):
        def build(net, s):
            scales = np.arange(1, 6, dtype=np.float32).reshape(1, 5)
            ens = Ensemble(net, "sc", ScaleNeuron, (5,), fields={
                "scale": FieldBinding(scales, (0, Dim(0)))
            })
            net.add_connections(s[0], ens, one_to_one(1))
            return ens

        cn, *_ = _net_with(build)
        x = np.ones((B, 5), np.float32)
        cn.set_input("d0", x)
        cn.forward()
        np.testing.assert_allclose(cn.value("sc"), [[1, 2, 3, 4, 5]] * B)

    def test_mul_ensemble_requires_connections(self):
        net = Net(B)
        MulEnsemble("m", net, (4,))
        from repro.synthesis.lower import SynthesisError

        with pytest.raises(SynthesisError, match="connections"):
            net.init()


class TestMetrics:
    def test_top1(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2], [0.4, 0.6]])
        labels = np.array([1, 0, 0])
        assert top1_accuracy(scores, labels) == pytest.approx(2 / 3)

    def test_topk(self):
        scores = np.array([[3.0, 2.0, 1.0, 0.0]] * 2)
        labels = np.array([1, 3])
        assert topk_accuracy(scores, labels, k=2) == pytest.approx(0.5)
        assert topk_accuracy(scores, labels, k=4) == 1.0


class TestTimeNetAllocation:
    def test_buffers_carry_time_axis(self):
        net = Net(3, time_steps=4)
        d = MemoryDataLayer(net, "d", (5,))
        from repro.layers import FullyConnectedLayer

        FullyConnectedLayer("fc", net, d, 6)
        cn = net.init()
        assert cn.buffers["d_value"].shape == (4, 3, 5)
        assert cn.buffers["fc_value"].shape == (4, 3, 6)
        # parameters stay untimed
        assert cn.buffers["fc_weights"].shape == (5, 6)
        # aliases reshape under the (T, B) lead
        assert cn.buffers["fc_inputs0"].shape == (4, 3, 5)

    def test_set_input_requires_time_axis(self):
        net = Net(2, time_steps=3)
        MemoryDataLayer(net, "d", (5,))
        cn = net.init()
        with pytest.raises(ValueError, match="shape"):
            cn.set_input("d", np.zeros((2, 5), np.float32))
        cn.set_input("d", np.zeros((3, 2, 5), np.float32))


class TestNetworkModels:
    def test_broadcast_time_log_depth(self):
        net = cori_aries()
        t8 = net.broadcast_time(1 << 20, 8)
        t64 = net.broadcast_time(1 << 20, 64)
        assert t64 == pytest.approx(2 * t8)  # log2(64)/log2(8)

    def test_broadcast_single_node_free(self):
        assert cori_aries().broadcast_time(1 << 20, 1) == 0.0


@pytest.mark.slow
def test_integration_lenet_learns_synthetic_mnist():
    """End-to-end: the Fig. 20-style CNN reaches high accuracy through
    the full compiled pipeline."""
    from repro.data import synthetic_mnist
    from repro.models import build_latte, lenet_config
    from repro.solvers import (SGD, LRPolicy, MomPolicy, SolverParameters,
                               solve)
    from repro.utils.rng import seed_all

    seed_all(2)
    cfg = lenet_config().scaled(channel_scale=0.25)
    built = build_latte(cfg, 16)
    cnet = built.init()
    train, test = synthetic_mnist(480, 160, noise=0.8)
    params = SolverParameters(
        lr_policy=LRPolicy.Inv(0.01, 1e-4, 0.75),
        mom_policy=MomPolicy.Fixed(0.9), max_epoch=3, regu_coef=5e-4,
    )
    hist = solve(SGD(params), cnet, train, test,
                 output_ens=built.output.name)
    assert hist.test_accuracy[-1] > 0.9
