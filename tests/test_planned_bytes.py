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
#: ``planned_bytes``. Training at the default used to keep every
#: ensemble inspectable; keeping only the program contract (data, sinks,
#: loss feeders) pooled the other values and gradients and moved every
#: training program — the train numbers before that follow each row,
#: and are what the keep-everything column still pins
PLANNED = {
    "alexnet": (3_189_952, 3_952_064, 2_063_424),       # 3 952 064
    "overfeat": (3_154_880, 3_376_064, 2_340_544),      # 3 376 064
    "vgg": (9_525_568, 14_072_128, 1_526_944),          # 14 072 128
    "lenet": (1_041_600, 1_167_680, 767_840),           # 1 167 680
    "mlp6x16": (2_464, 3_744, 848),                     # 3 744
    "cnn_a": (16_256, 23_664, 10_312),                  # 23 664
    "cnn_b": (7_752, 9_536, 4_040),                     # 9 536
    "mlp": (944, 1_184, 480),                           # 1 184
    "recurrent": (4_848, 5_112, 2_556),                 # 5 112
    "inception_a": (50_432, 65_536, 25_664),            # 65 536
    "inception_b": (48_160, 66_080, 36_064),            # 66 080
    "lstm": (8_544, 11_424, 5_712),                     # 11 424
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
