"""The arena is laid out once per greedy order of
``repro.synthesis.liveness.ORDERS`` — by size, by breadth, by interval
length — and the layout with the smallest ``planned_bytes`` is kept, the
earliest order on a tie (Pisarchyk & Lee 2020: no one greedy order is
best on every program).
"""

import pytest

from repro.optim import CompilerOptions
from repro.synthesis import liveness
from repro.testing.digest import PROGRAMS, ledger_net
from repro.testing.generator import build_net, random_spec
from repro.testing.oracle import arena_fault
from repro.utils.rng import seed_all

#: (label, options, keep every ensemble inspectable)
CONFIGS = (("train", CompilerOptions(), False),
           ("keep-all", CompilerOptions(), True),
           ("inference", CompilerOptions.inference(), False))

#: fuzz-corpus seeds (``tests/test_differential.py::CORPUS_SEEDS``):
#: an MLP, a conv net with batch norm and max pooling, an inception
#: block and an unrolled LSTM
FUZZ_SEEDS = (0, 2, 4, 5)


def _net(name: str):
    """A fresh ledger program, or ``fuzz<seed>``'s corpus net."""
    if not name.startswith("fuzz"):
        return ledger_net(name)
    spec = random_spec(int(name[4:]))
    seed_all(spec.seed)
    return build_net(spec)


def _compile(name, options, keep_all):
    net = _net(name)
    return net.init(options,
                    keep_alive=list(net.ensembles) if keep_all else None)


@pytest.mark.parametrize(
    "name", sorted(PROGRAMS) + [f"fuzz{s}" for s in FUZZ_SEEDS])
def test_the_kept_layout_is_the_smallest_plan(name, monkeypatch):
    """Each program trained, trained keeping every ensemble, and
    compiled forward-only: the kept plan is the smallest of the plans
    each order alone gives (so no larger than greedy by size alone),
    no larger than no plan, holds the static arena check, and its arena
    is no smaller than the pooled bytes live at once."""
    for label, options, keep_all in CONFIGS:
        cnet = _compile(name, options, keep_all)
        mem = cnet.plan.memory
        assert arena_fault(cnet.plan) is None, (name, label)
        assert mem.planned_bytes <= mem.naive_bytes, (name, label)
        stats = mem.stats()
        assert stats["placement_slack"] == mem.arena_bytes - mem.live_bytes
        assert 0 <= mem.live_bytes <= mem.arena_bytes, (name, label)
        alone = {}
        for order in liveness.ORDERS:
            with monkeypatch.context() as m:
                m.setattr(liveness, "ORDERS", (order,))
                single = _compile(name, options, keep_all).plan.memory
            assert single.order == order
            alone[order] = single.planned_bytes
        assert mem.planned_bytes == min(alone.values()), (name, label, alone)
        assert mem.order == min(alone, key=alone.get), (name, label, alone)


#: training program -> the pool candidates whose removal from the pool
#: makes the plan of the others larger, by how many bytes. Every other
#: candidate's removal leaves the others' plan no larger. The greedy is
#: not monotone: without the buffer, the ones placed after it choose
#: other gaps
RISES = {
    "vgg": {"conv3_2_value": 65_536, "conv4_1_value": 262_144,
            "conv5_1_value": 8_192, "pool_conv3_value_re": 319_488,
            "pool_conv4_value_re": 172_032},
    "alexnet": {"conv4_inputs0_re": 29_120},
    "lenet": {"conv2_value": 46_080},
}


@pytest.mark.parametrize("name", sorted(RISES))
def test_taking_one_candidate_out_of_the_pool(name, monkeypatch):
    """Plan again without each pool candidate in turn (pooled or left
    out as ``no-saving``), and compare the plan of the rest: the new
    ``planned_bytes`` less the removed buffer's own bytes, now allocated
    whole, if it was pooled."""
    calls = []
    plan_memory, lay_out = liveness.plan_memory, liveness._lay_out

    def spy(*args):
        calls.append(args)
        return plan_memory(*args)

    monkeypatch.setattr(liveness, "plan_memory", spy)
    cnet = ledger_net(name).init(CompilerOptions())
    monkeypatch.undo()
    mem = cnet.plan.memory
    (args,) = calls
    assert plan_memory(*args).offsets == mem.offsets

    pool = mem.pooled | {b for b, why in mem.kept_reasons.items()
                         if why == "no-saving"}
    rises = {}
    for b in sorted(pool):
        def without(candidates, late, *rest, b=b):
            return lay_out([c for c in candidates if c != b],
                           [c for c in late if c != b], *rest)

        with monkeypatch.context() as m:
            m.setattr(liveness, "_lay_out", without)
            planned = plan_memory(*args).planned_bytes
        own = cnet.buffers[b].nbytes if b in mem.pooled else 0
        if planned - own > mem.planned_bytes:
            rises[b] = planned - own - mem.planned_bytes
    assert rises == RISES[name]
