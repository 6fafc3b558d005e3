"""Dropout as a compiled intrinsic.

``DropoutNeuron`` writes ``dropout(x)``: synthesis spells it with the
neuron's flat index, the layer's keep ratio and a per-layer salt, and
both backends print the same counter-based hash
(``repro.codegen.exprs.DROPOUT_HASH``) of those and the key the executor
draws once per training forward. These tests pin what that buys: one
keep/drop pattern on NumPy and C at any shard count, a backward that
re-evaluates the forward's mask, the identity in eval semantics, no
dropout step in a forward-only program, and a mask per time step.
"""

import numpy as np
import pytest

from repro.codegen.c_backend import have_c_toolchain
from repro.core import Net
from repro.layers import DropoutLayer, MemoryDataLayer
from repro.models import build_latte
from repro.optim import CompilerOptions, compile_net
from repro.utils.rng import seed_all
from tests.test_inference_mode import DROP_CONFIG

B, N = 8, 96

BACKENDS = ["numpy", pytest.param("c", marks=pytest.mark.skipif(
    not have_c_toolchain(), reason="no working C toolchain"))]


def _dropout_net(backend="numpy", num_threads=1, time_steps=1):
    """data -> dropout(0.5), seeded so every build draws the same key
    on its first forward."""
    seed_all(41)
    net = Net(B, time_steps=time_steps)
    data = MemoryDataLayer(net, "data", (N,))
    DropoutLayer("drop", net, data, ratio=0.5)
    return compile_net(net, CompilerOptions(backend=backend),
                       num_threads=num_threads)


def _step(cnet, x):
    """One forward and a backward seeded with ones: (output, input
    gradient)."""
    cnet.forward(data=x)
    cnet.backward(seed_grads={"drop": np.ones_like(x)})
    return cnet.value("drop").copy(), cnet.grad("data").copy()


class TestPattern:
    def test_same_pattern_on_both_backends_and_all_shard_counts(self):
        x = np.ones((B, N), np.float32)
        runs = {}
        for backend in ("numpy", "c") if have_c_toolchain() else ("numpy",):
            for threads in (1, 2, 4):
                cnet = _dropout_net(backend, threads)
                assert cnet.num_shards == threads
                runs[backend, threads] = _step(cnet, x)
                cnet.close()
        out, dx = runs["numpy", 1]
        kept = out != 0
        assert 0.3 < kept.mean() < 0.7
        np.testing.assert_array_equal(out[kept], 2.0)
        # backward re-evaluates the forward's mask
        np.testing.assert_array_equal(dx, out)
        for key, (o, g) in runs.items():
            np.testing.assert_array_equal(o, out, err_msg=str(key))
            np.testing.assert_array_equal(g, dx, err_msg=str(key))

    def test_each_training_forward_draws_a_new_mask(self):
        cnet = _dropout_net()
        x = np.ones((B, N), np.float32)
        first = _step(cnet, x)[0]
        assert not np.array_equal(_step(cnet, x)[0], first)

    def test_each_time_step_gets_its_own_mask(self):
        cnet = _dropout_net(time_steps=3)
        x = np.ones((3, B, N), np.float32)
        out, dx = _step(cnet, x)
        np.testing.assert_array_equal(dx, out)
        masks = [out[t] != 0 for t in range(3)]
        assert not np.array_equal(masks[0], masks[1])
        assert not np.array_equal(masks[1], masks[2])


class TestEvalSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eval_is_identity_forward_and_backward(self, backend):
        cnet = _dropout_net(backend)
        cnet.training = False
        x = np.random.default_rng(2).standard_normal((B, N)).astype(
            np.float32)
        g = np.random.default_rng(3).standard_normal((B, N)).astype(
            np.float32)
        cnet.forward(data=x)
        np.testing.assert_array_equal(cnet.value("drop"), x)
        cnet.backward(seed_grads={"drop": g})
        np.testing.assert_array_equal(cnet.grad("data"), g)
        cnet.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inference_compile_has_no_dropout_step(self, backend):
        seed_all(20_26)
        cnet = compile_net(build_latte(DROP_CONFIG, 4).net,
                           CompilerOptions(backend=backend,
                                           mode="inference"))
        labels = [s.label for s in cnet.compiled.forward]
        assert not any("drop" in label for label in labels), labels
        assert "drop" not in cnet.source
        cnet.close()
