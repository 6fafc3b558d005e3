"""One ``keep_alive`` default for both modes: the program contract.

A compile keeps individually allocated — and so inspectable — the
values and gradients of data ensembles and sinks (a loss is one; it
has no gradient), the values of loss feeders, plus the values and
gradients of the ensembles ``keep_alive=`` names. Every other value and
gradient may share the arena, in training as in inference. Keeping every
ensemble (``keep_alive=list(net.ensembles)``) changes where buffers
live, never what the program computes.
"""

import numpy as np
import pytest

from repro.optim import CompilerOptions
from repro.synthesis.liveness import _contract_ensembles
from repro.testing.digest import PROGRAMS, ledger_net


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
    not the layout."""
    cnet = _compile(name)
    contract = _contract_ensembles(cnet.net)
    reasons = cnet.memory_report().kept_reasons
    raised = 0
    for e, kind in _buffers(cnet):
        base = cnet.plan.resolve_alias(f"{e}_{kind}")
        if _in_contract(contract, e, kind):
            getattr(cnet, kind)(e)  # must not raise
            assert reasons[base] == f"contract ({contract[e]})", (e, kind)
            continue
        assert not reasons.get(base, "").startswith(("contract", "keep")), (
            e, kind, reasons.get(base))
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
    """A buffer ``keep_alive`` names is recorded as kept for it, ahead of
    any reason of the planner's own: the ledger lstm's recurrent carries
    read ``keep_alive`` when kept, answer ``value()``/``grad()``, and the
    default compile still raises on them."""
    carries = [(e, kind) for e in ("L0_lstm_h", "L0_lstm_c")
               for kind in ("value", "grad")]
    kept = _compile("lstm", keep_all=True)
    reasons = kept.memory_report().kept_reasons
    for e, kind in carries:
        assert reasons[f"{e}_{kind}"] == "keep_alive", (e, kind)
        getattr(kept, kind)(e)  # must not raise
    default = _compile("lstm")
    reasons = default.memory_report().kept_reasons
    for e, kind in carries:
        assert reasons[f"{e}_{kind}"] == "recurrent", (e, kind)
        with pytest.raises(KeyError, match="not data, a sink or a loss "
                           "feeder"):
            getattr(default, kind)(e)
