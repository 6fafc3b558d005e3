"""The softmax loss is a neuron ensemble (``SoftmaxLossNeuron``).

It is compiled like every other ensemble: its values, summed over the
batch and time steps, are ``CompiledNet.loss``; its backward seeds
back-propagation, so it has no gradient buffer; a forward-only compile
leaves it out. These tests pin it against the float64 formula of the
extern callback it replaced, on every ledger program and both backends,
and pin which programs then run without a Python step on C.
"""

import numpy as np
import pytest

from repro.codegen.c_backend import have_c_toolchain
from repro.core import LossEnsemble
from repro.optim import CompilerOptions
from repro.testing.digest import PROGRAMS, ledger_net
from repro.testing.oracle import TOLERANCES

needs_cc = pytest.mark.skipif(not have_c_toolchain(),
                              reason="no C toolchain")

#: ledger programs whose O4 C compile keeps no step in Python, in
#: training and forward-only; the others keep their LRN, batch-norm or
#: concat externs
ALL_NATIVE = ("overfeat", "vgg", "lenet", "mlp6x16", "lstm", "mlp",
              "recurrent")


def _loss(net) -> LossEnsemble:
    (loss,) = [e for e in net.ensembles.values()
               if isinstance(e, LossEnsemble)]
    return loss


def _inputs(cnet, classes: int):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(cnet.value("data").shape).astype(np.float32)
    y = rng.integers(0, classes, cnet.value("label").shape)
    return x, y.astype(np.float32)


def _reference(scores: np.ndarray, labels: np.ndarray):
    """The replaced callback's float64 loss (each time step's batch
    mean, summed over time steps) and its gradient of the scores."""
    lead = scores.shape[:-1]
    logits = scores.reshape(-1, scores.shape[-1]).astype(np.float64)
    picked = labels.reshape(-1).astype(np.int64)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    rows = np.arange(len(picked))
    batch = lead[-1]
    loss = -np.log(np.maximum(probs[rows, picked], 1e-30)).sum() / batch
    grad = probs.copy()
    grad[rows, picked] -= 1.0
    return loss, (grad / batch).reshape(lead + (-1,))


@pytest.mark.parametrize("backend", [
    "numpy", pytest.param("c", marks=needs_cc)])
@pytest.mark.parametrize("name", PROGRAMS)
def test_the_loss_neuron_is_the_float64_formula(name, backend):
    net = ledger_net(name)
    head = _loss(net).inputs[0].source
    cnet = net.init(CompilerOptions(backend=backend), keep_alive=[head.name])
    x, y = _inputs(cnet, head.size)
    cnet.training = False  # no dropout: the formula sees the same scores
    loss = cnet.forward(data=x, label=y)
    cnet.backward()
    scores = cnet.value(head.name)
    lead = scores.shape[:1 + (cnet.time_steps > 1)]
    want, want_grad = _reference(scores.reshape(lead + (-1,)), y)
    rtol = TOLERANCES["float32"]["loss_rtol"]
    assert abs(loss - want) <= rtol * abs(want), (loss, want)
    np.testing.assert_allclose(cnet.grad(head.name).reshape(want_grad.shape),
                               want_grad, rtol=1e-4, atol=1e-7)
    cnet.close()


def test_a_forward_only_compile_computes_no_loss():
    net = ledger_net("lenet")
    cnet = net.init(CompilerOptions.inference())
    assert not any(s.label.startswith("loss.")
                   for s in cnet.compiled.steps)
    assert "loss_value" not in cnet.buffers
    x, y = _inputs(cnet, 10)
    assert cnet.forward(data=x, label=y) == 0.0
    np.testing.assert_array_equal(cnet.value("label"), y)
    report = cnet.memory_report()
    assert report.inspected["label_value"] == "contract (data)"
    assert report.kept_reasons["label_value"] == "caller-defined"


def test_a_loss_has_no_gradient():
    cnet = ledger_net("mlp").init(CompilerOptions())
    with pytest.raises(KeyError, match="loss ensemble: it has no gradient"):
        cnet.grad("loss")
    assert "loss_grad" not in cnet.plan.buffers
    # its feeder's value is inspected as value('head'); its gradient
    # is not, and pools
    report = cnet.memory_report()
    assert report.inspected["head_value"] == "contract (loss feeder)"
    assert "head_grad" not in report.inspected
    assert "head_grad" not in report.kept_reasons
    assert "head_grad" in cnet.plan.memory.pooled
    with pytest.raises(KeyError, match="not data, a sink or a loss feeder"):
        cnet.grad("head")


@needs_cc
@pytest.mark.parametrize("mode", ["train", "inference"])
@pytest.mark.parametrize("name", ALL_NATIVE)
def test_these_programs_run_no_python_step_on_c(name, mode):
    cnet = ledger_net(name).init(CompilerOptions(mode=mode, backend="c"))
    assert [s.label for s in cnet.compiled.steps if s.fallback] == []
    assert all(s.native for s in cnet.compiled.steps)
    if (name, mode) == ("vgg", "inference"):  # the served vgg
        assert cnet.batch_size == 8 and len(cnet.compiled.forward) == 12
    cnet.close()
