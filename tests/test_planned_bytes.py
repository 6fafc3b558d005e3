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
#: program moved when inspected buffers joined the arena (a contract or
#: ``keep_alive`` buffer a step defines is placed after the others,
#: live to the program's last point, wherever it grows the arena by
#: less than its own bytes; the data gradients were most of it) and a
#: softmax loss's label lost the gradient buffer no step writes
PLANNED = {
    # was 1 967 104, 3 050 176, 1 089 024
    "alexnet": (1_536_128, 2_813_536, 1_085_824),
    # was 1 749 504, 2 023 020, 1 001 328
    "overfeat": (1_613_920, 2_022_988, 998_128),
    # was 7 474 432, 14 006 656, 1 248 416
    "vgg": (7_081_184, 13_220_576, 1_245_216),
    # was 972 224, 1 167 744, 716 640
    "lenet": (947_104, 1_116_512, 716_320),
    # was 2 496, 3 776, 848
    "mlp6x16": (2_224, 3_760, 784),
    # was 16 240, 23 648, 9 992
    "cnn_a": (15_080, 16_728, 9_960),
    # was 7 256, 9 512, 4 000
    "cnn_b": (6_072, 9_504, 3_960),
    # was 976, 1 216, 480
    "mlp": (896, 1_200, 432),
    # was 4 864, 5 184, =
    "recurrent": (4_828, 5_148, 2_556),
    # was 45 616, 65 568, 22 464
    "inception_a": (44_000, 63_952, 22_416),
    # was 37 176, 61 296, 29 920
    "inception_b": (34_768, 58_888, 29_896),
    # was 8 640, 11 520, =
    "lstm": (8_592, 11_472, 5_712),
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
