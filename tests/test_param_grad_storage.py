"""A parameter's gradient is a runtime buffer: layers declare it, only a
training compile allocates it, and a forward-only net owns none.

The memory claims are measured with ``tracemalloc`` (NumPy reports its
array allocations to it) from before the net is built through its first
forward: a forward-only compile of lenet or the ledger vgg leaves at
most the parameter bytes, the planned bytes and 1 MB of bookkeeping
allocated, however it is compiled (``Net.init``, ``Checkpoint.compile``
or a warm ``compile_cached`` thaw), while a training compile of the same
model allocates a gradient for every parameter on top.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cache import compile_cached
from repro.core import (VEC, DataEnsemble, Dim, Ensemble, FieldBinding,
                        Net, Param)
from repro.layers import ConvolutionLayer, FullyConnectedLayer
from repro.layers.neurons import WeightedNeuron
from repro.optim import CompilerOptions
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.testing.digest import ledger_model, ledger_net

MODELS = ("lenet", "vgg")
MB = 1 << 20


def _traced(fn):
    """``(fn(), bytes it leaves allocated, peak bytes above the start)``."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current - start, peak - start


def _first_forward(compile_fn):
    def run():
        cnet = compile_fn()
        cnet.forward()
        return cnet
    return run


def _param_bytes(cnet) -> int:
    return sum(p.value.nbytes for p in cnet.parameters())


def _assert_forward_only(cnet, allocated: int) -> None:
    """No gradient anywhere in the net, and nothing allocated beyond
    the parameters, the planned buffers and 1 MB."""
    grads = [info.grad_buf for info in cnet.plan.params]
    assert grads and not set(grads) & set(cnet.buffers)
    assert not set(grads) & set(cnet.plan.buffers)
    views = cnet.parameters()
    assert [(p.ensemble, p.name) for p in views] == [
        (info.ensemble, info.name) for info in cnet.plan.params]
    assert all(p.value.size for p in views)
    with pytest.raises(RuntimeError, match="inference"):
        views[0].grad
    with pytest.raises(RuntimeError, match="inference"):
        cnet.clear_param_grads()
    planned = cnet.memory_stats()["planned_bytes"]
    assert allocated <= _param_bytes(cnet) + planned + MB, (
        allocated, _param_bytes(cnet), planned)


class TestDeclaration:
    def test_layers_declare_gradients_without_arrays(self):
        net = Net(2)
        data = DataEnsemble(net, "data", (3, 8, 8))
        conv = ConvolutionLayer("conv", net, data, 4, 3)
        fc = FullyConnectedLayer("fc", net, conv, 5)
        for ens in (conv, fc):
            for p in ens.params:
                value = ens.field_bindings[p.name]
                grad = ens.field_bindings[p.grad_name]
                assert grad.array is None
                assert grad.shape == value.array.shape
                assert grad.pattern == value.pattern

    def test_binding_a_gradient_array_is_refused(self):
        net = Net(2)
        w = np.zeros((3, 4), np.float32)
        with pytest.raises(ValueError, match="training compile"):
            Ensemble(net, "e", WeightedNeuron, (4,), fields={
                name: FieldBinding(np.zeros_like(w), (VEC, Dim(0)))
                for name in WeightedNeuron.fields
            }, params=[Param("weights")])

    def test_from_neurons_does_not_read_a_gradient_field(self):
        net = Net(2)
        w = np.ones((3, 4), np.float32)
        b = np.zeros((1, 4), np.float32)
        neurons = np.array([WeightedNeuron(weights=w[:, i], bias=b[:, i])
                            for i in range(4)], dtype=object)
        ens = Ensemble.from_neurons(
            net, "fc", neurons, params=[Param("weights"), Param("bias")])
        assert ens.field_bindings["grad_weights"].array is None
        assert ens.field_bindings["grad_bias"].shape == (1, 4)


@pytest.mark.parametrize("name", MODELS)
class TestForwardOnly:
    def test_init(self, name):
        cnet, allocated, _ = _traced(_first_forward(
            lambda: ledger_net(name).init(CompilerOptions.inference(),
                                          num_threads=1)))
        _assert_forward_only(cnet, allocated)

    def test_a_training_compile_allocates_the_gradients(self, name):
        def footprint(options):
            cnet, allocated, _ = _traced(_first_forward(
                lambda: ledger_net(name).init(options, num_threads=1)))
            return allocated - cnet.memory_stats()["planned_bytes"], cnet

        infer, _ = footprint(CompilerOptions.inference())
        train, cnet = footprint(CompilerOptions())
        assert train - infer >= _param_bytes(cnet)

    def test_checkpoint_compile(self, name, tmp_path):
        model, batch = ledger_model(name)
        trained = ledger_net(name).init(CompilerOptions(), num_threads=1)
        path = save_checkpoint(str(tmp_path / "m.npz"), trained,
                               config=model)
        del trained
        ck = load_checkpoint(path)
        cnet, allocated, _ = _traced(_first_forward(
            lambda: ck.compile(batch, num_threads=1)))
        _assert_forward_only(cnet, allocated)

    def test_warm_thaw(self, name, tmp_path):
        model, batch = ledger_model(name)
        options = CompilerOptions.inference()
        cold = compile_cached(model, batch, options=options,
                              num_threads=1, cache=str(tmp_path))
        assert not cold.compile_report.cache_hit
        del cold
        cnet, allocated, _ = _traced(_first_forward(
            lambda: compile_cached(model, batch, options=options,
                                   num_threads=1, cache=str(tmp_path))))
        assert cnet.compile_report.cache_hit
        _assert_forward_only(cnet, allocated)


def test_compiling_vgg_forward_only_never_holds_a_gradient_copy():
    """Between build and the first forward the compile's high-water
    mark stays below the planned bytes plus half a copy of the
    parameters: no gradient is allocated and dropped along the way."""
    net = ledger_net("vgg")
    cnet, _, peak = _traced(_first_forward(
        lambda: net.init(CompilerOptions.inference(), num_threads=1)))
    planned = cnet.memory_stats()["planned_bytes"]
    assert peak < planned + _param_bytes(cnet) // 2


class TestTraining:
    def test_gradients_start_zeroed_writable_and_contiguous(self):
        cnet = ledger_net("lenet").init(CompilerOptions(), num_threads=1)
        for p in cnet.parameters():
            g = p.grad
            assert g is cnet.buffers[f"{p.ensemble}_grad_{p.name}"]
            assert g.shape == p.value.shape and g.dtype == np.float32
            assert g.flags.writeable and g.flags.c_contiguous
            assert not g.any()
        cnet.forward()
        cnet.backward()
        assert any(p.grad.any() for p in cnet.parameters())
        cnet.clear_param_grads()
        assert not any(p.grad.any() for p in cnet.parameters())

    def test_two_compiles_share_values_and_own_gradients(self):
        net = ledger_net("lenet")
        a = net.init(CompilerOptions(), num_threads=1)
        b = net.init(CompilerOptions(), num_threads=1)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.value is pb.value
            assert not np.shares_memory(pa.grad, pb.grad)
