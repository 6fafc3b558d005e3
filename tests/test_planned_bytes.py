"""The planned-bytes golden table: the exact ``planned_bytes`` of every
program the perf ledger compiles (``benchmarks/ledger/programs.py``;
the program table is :mod:`repro.testing.digest`'s), trained at the
default ``keep_alive``, trained with every ensemble kept inspectable
(``keep_alive=list(net.ensembles)``) and compiled forward-only.

These are what the ledger's ``planned_mb`` gate sums, so a compiler
change that moves one moves the gate: re-pin the number on purpose (the
comment after each row says what it was before the last change that
moved it), never into an inequality.
"""

import pytest

from repro.optim import CompilerOptions
from repro.testing.digest import PROGRAMS, SPEC_DIR, ledger_net

#: program -> (train, train keeping every ensemble, inference)
#: ``planned_bytes``. A comment above a row gives its numbers before the
#: last change that moved it (``=`` where a column did not move): every
#: training program moved when the softmax loss became a neuron ensemble
#: (its value and ``lse`` are buffers now; a loss feeder's gradient
#: pools, so the Fig 14 trio fell by their 3 136-byte ``fc8_grad``), and
#: no forward-only program moved
PLANNED = {
    # was 1 970 240, 3 050 112, =
    "alexnet": (1_967_104, 3_050_176, 1_089_024),
    # was 1 752 640, 2 022 956, =
    "overfeat": (1_749_504, 2_023_020, 1_001_328),
    # was 7 477 568, 14 006 592, =
    "vgg": (7_474_432, 14_006_656, 1_248_416),
    # was 972 480, 1 167 680, =
    "lenet": (972_224, 1_167_744, 716_640),
    # was 2 464, 3 744, =
    "mlp6x16": (2_496, 3_776, 848),
    # was 16 256, 23 632, =
    "cnn_a": (16_240, 23_648, 9_992),
    # was 7 280, 9 496, =
    "cnn_b": (7_256, 9_512, 4_000),
    # was 944, 1 184, =
    "mlp": (976, 1_216, 480),
    # was 4 792, 5 112, =
    "recurrent": (4_864, 5_184, 2_556),
    # was 45 632, 65 536, =
    "inception_a": (45_616, 65_568, 22_464),
    # was 37 184, 61 280, =
    "inception_b": (37_176, 61_296, 29_920),
    # was 8 544, 11 424, =
    "lstm": (8_640, 11_520, 5_712),
}


#: forward-only programs in which a conv layer's batch-tiled chain joins
#: the group of the layer before it (``chains_joined``); a training
#: program's backward pass reads the values its forward pass wrote, so
#: no chain joins there, at either ``keep_alive``
JOINED = {"vgg": 4}


def test_the_table_covers_every_ledger_spec():
    assert {p.stem for p in SPEC_DIR.glob("*.json")} <= set(PLANNED)
    assert set(PLANNED) == set(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_planned_bytes(name):
    train, kept, inference = PLANNED[name]
    for options, keep_all, planned in (
            (CompilerOptions(), False, train),
            (CompilerOptions(), True, kept),
            (CompilerOptions.inference(), False, inference)):
        net = ledger_net(name)
        cnet = net.init(options,
                        keep_alive=list(net.ensembles) if keep_all else None)
        stats = cnet.memory_stats()
        assert stats["planned_bytes"] == planned, (name, options.mode,
                                                   keep_all)
        assert stats["planned_bytes"] <= stats["naive_bytes"]
        joined = cnet.compile_report["fusion"].rewrites["chains_joined"]
        assert joined == (JOINED.get(name, 0)
                          if options.mode == "inference" else 0), name
