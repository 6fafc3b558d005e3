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
#: last change that moved it (``=`` where a column did not move): alexnet
#: and overfeat tile their 11x11 conv1 chains one image at a time since
#: a window copy is one NumPy operation (four images a tile before); the
#: other dropout programs lost their ``drop*_mask`` buffers when the mask
#: became a hash (exactly the mask bytes, in every column); the others
#: moved when each pooled buffer got a byte offset of its own instead of
#: a slab as wide as its largest member
PLANNED = {
    # was 2 520 768, 3 793 584, 1 913 792 (four-image conv1 tiles)
    "alexnet": (1_970_240, 3_050_112, 1_089_024),
    # was 3 011 520, 3 281 840, 2 301 824 (four-image conv1 tiles)
    "overfeat": (1_752_640, 2_022_956, 1_001_328),
    # was 7 543 104, 14 072 128, 1 313 952 (dropout masks)
    "vgg": (7_477_568, 14_006_592, 1_248_416),
    # was 1 041 600, =, 767 840
    "lenet": (972_480, 1_167_680, 716_640),
    "mlp6x16": (2_464, 3_744, 848),
    # was =, 23 664, 10 312
    "cnn_a": (16_256, 23_632, 9_992),
    # was 7 752, 9 536, 4 040
    "cnn_b": (7_280, 9_496, 4_000),
    "mlp": (944, 1_184, 480),
    # was 4 848, =, =
    "recurrent": (4_792, 5_112, 2_556),
    # was 50 432, =, 25 664
    "inception_a": (45_632, 65_536, 22_464),
    # was 41 984, 66 080, 34 720 (dropout masks)
    "inception_b": (37_184, 61_280, 29_920),
    "lstm": (8_544, 11_424, 5_712),
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
