"""One ``keep_alive`` default for both modes: the program contract.

A compile keeps inspectable the values and gradients of data ensembles
and sinks (a loss is one; it has no gradient), the values of loss
feeders, plus the values and gradients of the ensembles ``keep_alive=``
names: ``MemoryPlan.inspected``. One a step of the program defines may
share the arena, live to the program's last point, so it reads back
after the call that writes it until the next ``forward()``; the ones
the caller defines (data values, sinks' gradients) stay whole. Every
other value and gradient may share the arena, in training as in
inference. Keeping every ensemble (``keep_alive=list(net.ensembles)``)
changes where buffers live, never what the program computes.
"""

import numpy as np
import pytest

from repro.codegen.c_backend import have_c_toolchain
from repro.core import LossEnsemble
from repro.optim import CompilerOptions
from repro.synthesis.liveness import _contract_ensembles
from repro.testing.digest import PROGRAMS, ledger_net
from repro.testing.oracle import arena_fault, inject_bug

needs_cc = pytest.mark.skipif(not have_c_toolchain(),
                              reason="no C toolchain")

#: time-unrolled ledger programs: the planner shares bytes only between
#: a forward-only and a backward-only buffer, and their backward-only
#: data gradient finds no such gap, so pooling it would grow the arena
#: by more than its own bytes and it stays whole (``no-saving``)
UNROLLED = ("recurrent", "lstm")


def _compile(name, keep_all=False):
    net = ledger_net(name)
    return net.init(CompilerOptions(),
                    keep_alive=list(net.ensembles) if keep_all else None)


def _buffers(cnet):
    """``(ensemble, 'value' | 'grad')`` for every buffer the program
    has for an ensemble."""
    return [(e, kind) for e in cnet.net.ensembles
            for kind in ("value", "grad")
            if f"{e}_{kind}" in cnet.plan.buffers]


def _in_contract(contract, e, kind) -> bool:
    """Is ``kind`` of ensemble ``e`` in the contract? A loss feeder's
    value is, its gradient is not."""
    return e in contract and (kind == "value"
                              or contract[e] != "loss feeder")


def _step(cnet):
    """One forward/backward on seeded inputs (class 0 labels, a seeded
    gradient on every sink); what the contract promises to keep."""
    rng = np.random.default_rng(0)
    contract = _contract_ensembles(cnet.net)
    feeds = {n: (np.zeros if n == "label" else rng.standard_normal)(
        cnet.value(n).shape).astype(np.float32) for n in cnet._data_names}
    loss = cnet.forward(**feeds)
    cnet.clear_param_grads()
    cnet.backward(seed_grads={
        e: rng.standard_normal(cnet.grad(e).shape).astype(np.float32)
        for e, kind in _buffers(cnet)
        if kind == "grad" and contract.get(e) == "sink"})
    kept = {f"{kind}({e})": getattr(cnet, kind)(e).copy()
            for e, kind in _buffers(cnet) if _in_contract(contract, e, kind)}
    kept.update((f"d({p.key})", p.grad.copy()) for p in cnet.parameters())
    return loss, kept


@pytest.mark.parametrize("name", PROGRAMS)
def test_default_training_compile_keeps_the_contract_only(name):
    """Data, sinks and loss feeders' values stay inspectable, with the
    contract as their reason; every other buffer raises, also where the
    planner keeps its buffer for a reason of its own (a recurrent
    carry, a buffer that saves nothing): inspection follows the rule,
    not the layout, and a kept buffer's reason is a layout reason."""
    cnet = _compile(name)
    contract = _contract_ensembles(cnet.net)
    report = cnet.memory_report()
    inspected = report.inspected
    assert not [r for r in report.kept_reasons.values()
                if r.startswith(("contract", "keep"))]
    raised = 0
    for e, kind in _buffers(cnet):
        base = cnet.plan.resolve_alias(f"{e}_{kind}")
        if _in_contract(contract, e, kind):
            getattr(cnet, kind)(e)  # must not raise
            assert inspected[base] == f"contract ({contract[e]})", (e, kind)
            continue
        assert base not in inspected, (e, kind, inspected.get(base))
        with pytest.raises(KeyError, match="not data, a sink or a loss "
                           "feeder|batch-tiled group"):
            getattr(cnet, kind)(e)
        raised += 1
    assert raised, name


@pytest.mark.parametrize("name", PROGRAMS)
def test_default_and_keep_all_compute_the_same_bits(name):
    """Loss, outputs, data gradients and parameter gradients of the
    default compile are bitwise those of the keep-everything one."""
    loss, got = _step(_compile(name))
    want_loss, want = _step(_compile(name, keep_all=True))
    assert loss == want_loss
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_inspection_rule_is_the_recorded_keep_reason():
    """A buffer ``keep_alive`` names is recorded as inspected for it,
    whatever the planner's own reason to keep it whole: the ledger
    lstm's recurrent carries read ``keep_alive`` when kept, answer
    ``value()``/``grad()``, and the default compile still raises on
    them; both keep them whole as ``recurrent``."""
    carries = [(e, kind) for e in ("L0_lstm_h", "L0_lstm_c")
               for kind in ("value", "grad")]
    kept = _compile("lstm", keep_all=True)
    report = kept.memory_report()
    for e, kind in carries:
        assert report.inspected[f"{e}_{kind}"] == "keep_alive", (e, kind)
        assert report.kept_reasons[f"{e}_{kind}"] == "recurrent", (e, kind)
        getattr(kept, kind)(e)  # must not raise
    default = _compile("lstm")
    report = default.memory_report()
    for e, kind in carries:
        assert f"{e}_{kind}" not in report.inspected, (e, kind)
        assert report.kept_reasons[f"{e}_{kind}"] == "recurrent", (e, kind)
        with pytest.raises(KeyError, match="not data, a sink or a loss "
                           "feeder"):
            getattr(default, kind)(e)


def _train_step(name, options):
    """One eval-mode training step of a ledger program on seeded inputs:
    its compile, loss, and what the contract reads after backward —
    the data gradient, the loss feeder's value — with every parameter
    gradient."""
    net = ledger_net(name)
    (loss,) = [e for e in net.ensembles.values()
               if isinstance(e, LossEnsemble)]
    head = loss.inputs[0].source.name
    cnet = net.init(options)
    cnet.training = False
    rng = np.random.default_rng(0)
    x = rng.standard_normal(cnet.value("data").shape).astype(np.float32)
    y = np.zeros(cnet.value("label").shape, np.float32)
    value = cnet.forward(data=x, label=y)
    cnet.clear_param_grads()
    cnet.backward()
    got = {"grad(data)": cnet.grad("data").copy(),
           f"value({head})": cnet.value(head).copy()}
    got.update((f"d({p.key})", p.grad.copy()) for p in cnet.parameters())
    cnet.close()
    return cnet, value, got


@pytest.mark.parametrize("backend", [
    "numpy", pytest.param("c", marks=needs_cc)])
@pytest.mark.parametrize("name", PROGRAMS)
def test_inspected_buffers_read_back_from_the_arena(name, backend):
    """The data gradient shares the arena, live to the program's last
    point, and the loss, ``grad('data')``, the loss feeder's value read
    after backward and every parameter gradient are bitwise those of
    the compile with no memory plan."""
    cnet, loss, got = _train_step(name, CompilerOptions(backend=backend))
    mem = cnet.plan.memory
    if name in UNROLLED:
        assert mem.kept_reasons["data_grad"] == "no-saving"
    else:
        assert "data_grad" in mem.pooled
        assert mem.intervals["data_grad"].last == sum(mem.points) - 1
    assert arena_fault(cnet.plan) is None
    _, want_loss, want = _train_step(
        name, CompilerOptions(backend=backend, memory_plan=False))
    assert loss == want_loss
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_a_label_gets_no_gradient_buffer():
    """No step back-propagates into a softmax loss's label: it has no
    gradient buffer, nothing zeroes one before backward, and
    ``grad('label')`` says why; its fed value stays whole."""
    cnet = _compile("mlp")
    assert not [n for n in cnet.plan.buffers
                if cnet.plan.resolve_alias(n) == "label_grad"]
    with pytest.raises(KeyError, match="no step back-propagates into"):
        cnet.grad("label")
    mem = cnet.plan.memory
    assert mem.inspected["label_value"] == "contract (data)"
    assert mem.kept_reasons["label_value"] == "caller-defined"


@pytest.mark.parametrize("name", PROGRAMS)
def test_an_early_inspected_end_is_caught_statically(name):
    """A planner that ends a pooled inspected buffer's interval at its
    last access lets later steps reuse its bytes; the static arena check
    rejects the compile before anything runs."""
    with inject_bug("inspected-early-end"):
        cnet = _compile(name)
    fault = arena_fault(cnet.plan)
    assert fault.startswith("inspected "), fault
    assert "not to the program's last point" in fault


def test_an_unrolled_inspected_buffer_must_be_live_in_backward():
    """Time-unrolled, bytes are shared across the phase barrier only: an
    inspected buffer a forward step defines must count as live in
    backward too, or a backward tenant could overwrite it. (Live in
    both phases, such a buffer saves nothing in the ledger programs, so
    this one is moved to the arena's top by hand.)"""
    cnet = _compile("lstm")
    mem = cnet.plan.memory
    iv = mem.intervals["head_value"]
    assert iv.first < mem.points[0] and iv.last == sum(mem.points) - 1
    assert iv.phases == {"forward", "backward"}
    mem.offsets["head_value"] = -(-mem.arena_bytes // 64) * 64
    mem.arena_bytes = (mem.offsets["head_value"]
                       + cnet.buffers["head_value"].nbytes)
    assert arena_fault(cnet.plan) is None
    iv.phases.discard("backward")
    assert arena_fault(cnet.plan) == (
        "inspected head_value is not live in backward")
