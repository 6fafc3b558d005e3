"""Differential testing against the two independent baseline
implementations: the compiled Latte network, the Caffe-like static
kernel library, and the Mocha-like interpreted framework must agree on
outputs, losses, and gradients when loaded with the same parameters."""

import re

import numpy as np
import pytest

from repro.baselines import CaffeNet, MochaNet
from repro.models import build_latte, lenet_config, vgg_micro_config
from repro.optim import CompilerOptions
from repro.utils.rng import seed_all


def _setup(config, batch=2, baseline_cls=CaffeNet, lvl=4):
    seed_all(21)
    built = build_latte(config, batch)
    cnet = built.init(CompilerOptions.level(lvl))
    seed_all(21)
    base = baseline_cls(config, batch)
    base.load_params_from(cnet)
    return cnet, base


@pytest.fixture(scope="module")
def micro_cfg():
    return vgg_micro_config().scaled(channel_scale=0.125, input_size=16)


@pytest.fixture(scope="module")
def lenet_cfg():
    return lenet_config().scaled(channel_scale=0.5, input_size=28)


@pytest.mark.parametrize("baseline_cls", [CaffeNet, MochaNet],
                         ids=["caffe", "mocha"])
class TestForwardParity:
    def test_vgg_micro(self, micro_cfg, baseline_cls):
        cnet, base = _setup(micro_cfg, baseline_cls=baseline_cls)
        x = np.random.default_rng(0).standard_normal(
            (2,) + micro_cfg.input_shape
        ).astype(np.float32)
        cnet.forward(data=x)
        out = base.forward(x)
        np.testing.assert_allclose(cnet.value("pool_conv1"), out,
                                   rtol=1e-4, atol=1e-5)

    def test_lenet_loss(self, lenet_cfg, baseline_cls):
        cnet, base = _setup(lenet_cfg, baseline_cls=baseline_cls)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2,) + lenet_cfg.input_shape).astype(
            np.float32
        )
        y = rng.integers(0, 10, (2, 1)).astype(np.float32)
        loss_latte = cnet.forward(data=x, label=y)
        base.forward(x, y)
        assert loss_latte == pytest.approx(base.loss, rel=1e-4)


@pytest.mark.parametrize("baseline_cls", [CaffeNet, MochaNet],
                         ids=["caffe", "mocha"])
class TestBackwardParity:
    def test_gradients_match(self, micro_cfg, baseline_cls):
        cnet, base = _setup(micro_cfg, baseline_cls=baseline_cls)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2,) + micro_cfg.input_shape).astype(
            np.float32
        )
        cnet.forward(data=x)
        base.forward(x)
        g = rng.standard_normal(cnet.value("pool_conv1").shape).astype(
            np.float32
        )
        cnet.clear_param_grads()
        cnet.backward(seed_grads={"pool_conv1": g})
        base.clear_grads()
        dx_base = base.backward_from(g)
        np.testing.assert_allclose(cnet.grad("data"), dx_base,
                                   rtol=1e-3, atol=1e-5)
        conv = base.layers[0]
        np.testing.assert_allclose(
            cnet.buffers["conv1_grad_weights"], conv.grad_weights,
            rtol=1e-3, atol=1e-4,
        )
        np.testing.assert_allclose(
            cnet.buffers["conv1_bias"], conv.bias, rtol=1e-6
        )

    def test_lenet_end_to_end_grads(self, lenet_cfg, baseline_cls):
        cnet, base = _setup(lenet_cfg, baseline_cls=baseline_cls)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2,) + lenet_cfg.input_shape).astype(
            np.float32
        )
        y = rng.integers(0, 10, (2, 1)).astype(np.float32)
        cnet.forward(data=x, label=y)
        cnet.clear_param_grads()
        cnet.backward()
        base.forward(x, y)
        base.clear_grads()
        dx_base = base.backward()
        np.testing.assert_allclose(cnet.grad("data"), dx_base,
                                   rtol=1e-3, atol=1e-5)
        # every learnable parameter's gradient agrees
        base_params = base.params()
        latte_params = [
            (p.grad,) for p in cnet.parameters()
        ]
        assert len(base_params) == len(latte_params)
        for (bv, bg), (lg,) in zip(base_params, latte_params):
            np.testing.assert_allclose(lg, bg, rtol=1e-3, atol=1e-4)


def _padded_pool_spec(mode):
    from repro.testing.generator import NetSpec

    return NetSpec(seed=3, batch=2, input_shape=(2, 7, 7), classes=3,
                   layers=({"kind": "conv", "filters": 3, "kernel": 3,
                            "stride": 1, "pad": 0},
                           {"kind": "pool", "mode": mode, "kernel": 3,
                            "stride": 2, "pad": 1}))


@pytest.mark.parametrize("mode", ["max", "mean"])
def test_padded_pool_matches_latte(mode):
    """Both baselines pool a padded layout and crop its gradient: loss,
    input gradient and every parameter gradient agree with Latte's
    (whose padded buffer has a zero border, under a max window too)."""
    from repro.testing.oracle import TOLERANCES, _check_baselines

    checks, out = [], []
    _check_baselines(_padded_pool_spec(mode), TOLERANCES["float32"],
                     checks, out)
    assert checks == ["baseline:caffe", "baseline:mocha"]
    assert not out, [str(m) for m in out]


def test_a_raising_baseline_is_a_mismatch(monkeypatch):
    """The oracle records the exception under the baseline's check, so
    the fuzz CLI shrinks the spec instead of exiting with a traceback —
    and the other baseline is still compared."""
    from repro.testing.oracle import TOLERANCES, _check_baselines

    backward = CaffeNet.backward

    def boom(self, *args):
        if type(self) is CaffeNet:  # MochaNet inherits it
            raise RuntimeError("boom")
        return backward(self, *args)

    monkeypatch.setattr(CaffeNet, "backward", boom)
    checks, out = [], []
    _check_baselines(_padded_pool_spec("max"), TOLERANCES["float32"],
                     checks, out)
    assert checks == ["baseline:caffe", "baseline:mocha"]
    (mismatch,) = out
    assert mismatch.check == "baseline:caffe"
    assert re.fullmatch(r"raised RuntimeError at test_baseline_parity\.py:"
                        r"\d+: boom", mismatch.detail)


class TestBaselineInternals:
    def test_im2col_col2im_adjoint(self):
        """Property: <im2col(x), y> == <x, col2im(y)> (adjoint pair)."""
        from repro.baselines.caffe_like import col2im, im2col

        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        out_h = out_w = 6
        col = im2col(x, 3, 1, 1, out_h, out_w)
        y = rng.standard_normal(col.shape).astype(np.float32)
        lhs = float((col * y).sum())
        rhs = float((x * col2im(y, (3, 6, 6), 3, 1, 1, out_h, out_w)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_mocha_matches_caffe_exactly(self, micro_cfg):
        seed_all(8)
        a = CaffeNet(micro_cfg, 2)
        seed_all(8)
        b = MochaNet(micro_cfg, 2)
        x = np.random.default_rng(5).standard_normal(
            (2,) + micro_cfg.input_shape
        ).astype(np.float32)
        np.testing.assert_allclose(a.forward(x), b.forward(x), rtol=1e-5)

    def test_dropout_inference_mode(self, lenet_cfg):
        seed_all(9)
        net = CaffeNet(lenet_cfg, 2)
        net.training = False
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2,) + lenet_cfg.input_shape).astype(
            np.float32
        )
        y = rng.integers(0, 10, (2, 1)).astype(np.float32)
        net.forward(x, y)
        a = net.scores.copy()
        net.forward(x, y)
        np.testing.assert_array_equal(a, net.scores)  # deterministic
