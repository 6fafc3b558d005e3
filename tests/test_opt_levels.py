"""Differential testing across the O0..O4 optimization ladder.

The O0 scalar backend is the semantic oracle: every optimization level
must produce the same activations, losses, and gradients on the same
network and data. This is the central safety net for the tiling, fusion,
pattern-matching, in-place, and first-writer passes.
"""

import numpy as np
import pytest

from repro.core import Net
from repro.layers import (
    ConvolutionLayer,
    DataAndLabelLayer,
    FullyConnectedLayer,
    MaxPoolingLayer,
    MeanPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SigmoidLayer,
    SoftmaxLossLayer,
    TanhLayer,
)
from repro.optim import CompilerOptions
from repro.testing.oracle import batch_tiles
from repro.utils.rng import seed_all

LEVELS = [0, 1, 2, 3, 4]


def _init(net, lvl):
    """Compile at ``lvl`` under batch tiles: at this tiny geometry the
    default staging budget would leave every conv chain whole, and O4
    would run no tiled, fused or contracted code."""
    with batch_tiles():
        return net.init(CompilerOptions.level(lvl))


def _cnn_padded(lvl):
    seed_all(7)
    net = Net(2)
    data, label = DataAndLabelLayer(net, (3, 8, 8))
    conv = ConvolutionLayer("conv1", net, data, 4, 3, stride=1, pad=1)
    relu = ReLULayer("relu1", net, conv)
    pool = MaxPoolingLayer("pool1", net, relu, 2, 2)
    fc = FullyConnectedLayer("fc1", net, pool, 5)
    SoftmaxLossLayer("loss", net, fc, label)
    return _init(net, lvl), ["conv1", "fc1"]


def _cnn_strided(lvl):
    seed_all(13)
    net = Net(2)
    data, label = DataAndLabelLayer(net, (2, 11, 11))
    conv = ConvolutionLayer("conv1", net, data, 3, 5, stride=2, pad=2)
    act = TanhLayer("t1", net, conv)
    pool = MeanPoolingLayer("pool1", net, act, 2, 2)
    conv2 = ConvolutionLayer("conv2", net, pool, 4, 3, stride=1, pad=1)
    relu = ReLULayer("relu2", net, conv2)
    fc = FullyConnectedLayer("fc1", net, relu, 4)
    SoftmaxLossLayer("loss", net, fc, label)
    return _init(net, lvl), ["conv1", "conv2", "fc1"]


def _overlapping_pool(lvl):
    seed_all(23)
    net = Net(2)
    data, label = DataAndLabelLayer(net, (2, 9, 9))
    conv = ConvolutionLayer("conv1", net, data, 3, 3, stride=1, pad=0)
    relu = ReLULayer("relu1", net, conv)
    pool = MaxPoolingLayer("pool1", net, relu, 3, 2)  # overlapping
    fc = FullyConnectedLayer("fc1", net, pool, 4)
    SoftmaxLossLayer("loss", net, fc, label)
    return _init(net, lvl), ["conv1", "fc1"]


def _mlp(lvl):
    seed_all(31)
    net = Net(4)
    data, label = DataAndLabelLayer(net, (10,))
    ip1 = FullyConnectedLayer("ip1", net, data, 8)
    s1 = SigmoidLayer("s1", net, ip1)
    ip2 = FullyConnectedLayer("ip2", net, s1, 5)
    SoftmaxLossLayer("loss", net, ip2, label)
    # no window staging: nothing here is ever tiled
    return net.init(CompilerOptions.level(lvl)), ["ip1", "ip2"]


BUILDERS = {
    "cnn_padded": _cnn_padded,
    "cnn_strided": _cnn_strided,
    "overlapping_pool": _overlapping_pool,
    "mlp": _mlp,
}


def _run(builder, lvl):
    cnet, param_ens = builder(lvl)
    shape = cnet.buffers["data_value"].shape
    rng = np.random.default_rng(99)
    x = rng.standard_normal(shape).astype(np.float32)
    classes = {"cnn_padded": 5, "cnn_strided": 4, "overlapping_pool": 4,
               "mlp": 5}
    y = rng.integers(0, 4, (shape[0], 1)).astype(np.float32)
    loss = cnet.forward(data=x, label=y)
    cnet.clear_param_grads()
    cnet.backward()
    grads = {
        f"{e}.{k}": cnet.buffers[f"{e}_grad_{k}"].copy()
        for e in param_ens
        for k in ("weights", "bias")
    }
    return loss, cnet.grad("data").copy(), grads


@pytest.mark.parametrize("name", list(BUILDERS))
@pytest.mark.parametrize("lvl", LEVELS[1:])
def test_level_matches_scalar_oracle(name, lvl):
    builder = BUILDERS[name]
    loss0, dx0, grads0 = _run(builder, 0)
    loss, dx, grads = _run(builder, lvl)
    assert loss == pytest.approx(loss0, rel=1e-4)
    np.testing.assert_allclose(dx, dx0, rtol=1e-3, atol=1e-5)
    for key in grads0:
        np.testing.assert_allclose(grads[key], grads0[key], rtol=1e-3,
                                   atol=2e-4, err_msg=key)


@pytest.mark.parametrize("name", ["cnn_padded", "cnn_strided",
                                  "overlapping_pool"])
def test_o4_conv_nets_run_tiled(name):
    cnet, _ = BUILDERS[name](4)
    assert cnet.compile_report["tiling"].rewrites["units_tiled"] > 0
    assert cnet.compile_report["fusion"].rewrites["fused_groups"] > 0


@pytest.mark.parametrize("name", list(BUILDERS))
def test_training_step_equivalence(name):
    """One full SGD step at O0 and O4 moves parameters identically."""
    from repro.solvers import SGD, SolverParameters, LRPolicy

    results = {}
    for lvl in (0, 4):
        cnet, _ = BUILDERS[name](lvl)
        rng = np.random.default_rng(5)
        shape = cnet.buffers["data_value"].shape
        x = rng.standard_normal(shape).astype(np.float32)
        y = rng.integers(0, 4, (shape[0], 1)).astype(np.float32)
        solver = SGD(SolverParameters(lr_policy=LRPolicy.Fixed(0.1)))
        for _ in range(2):
            cnet.forward(data=x, label=y)
            cnet.clear_param_grads()
            cnet.backward()
            solver.update(cnet)
        results[lvl] = {p.key: p.value.copy() for p in cnet.parameters()}
    for key in results[0]:
        np.testing.assert_allclose(results[4][key], results[0][key],
                                   rtol=1e-3, atol=2e-4, err_msg=key)
