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
#: softmax loss's label lost the gradient buffer no step writes. A
#: program whose backward reads a pooled value again moved when it was
#: recomputed there instead of held across the phases. cnn_a rose by
#: 32 B: its 288 B ``L6_pool_value`` had been kept whole (no-saving);
#: now it pools in forward, but its recomputed ``L6_pool_value_re`` is
#: placed above the values live across its backward and grows the
#: arena by 320 B. Four cells moved when the arena was laid out in
#: three greedy orders (by size, by breadth, by interval length) and
#: the smallest plan kept; the rest are what greedy by size gave
PLANNED = {
    # was 1 510 272, =, =
    "alexnet": (1_481_152, 2_813_536, 1_085_824),
    # was 1 749 504, 2 023 020, 1 001 328
    "overfeat": (1_613_920, 2_022_988, 998_128),
    # was 6 360 288, =, =
    "vgg": (5_909_728, 13_220_576, 1_245_216),
    # was 947 104, =, =
    "lenet": (901_024, 1_116_512, 716_320),
    # was 2 496, 3 776, 848
    "mlp6x16": (2_224, 3_760, 784),
    # was 15 080, =, =
    "cnn_a": (15_112, 16_728, 9_960),
    # was 7 256, 9 512, 4 000
    "cnn_b": (6_072, 9_504, 3_960),
    # was 976, 1 216, 480
    "mlp": (896, 1_200, 432),
    # was 4 864, 5 184, =
    "recurrent": (4_828, 5_148, 2_556),
    # was =, 63 952, =
    "inception_a": (42_400, 63_248, 22_416),
    # was 37 176, 61 296, 29 920
    "inception_b": (34_768, 58_888, 29_896),
    # was 8 640, 11 520, =
    "lstm": (8_592, 11_472, 5_712),
}


#: programs in which a conv layer's batch-tiled chain joins the group
#: of the layer before it (``chains_joined``), trained and forward-only.
#: A training program's backward pass reads the values its forward pass
#: wrote, so a chain joins there only across a value recomputed in
#: backward (vgg's first two pools), and none with every ensemble kept
JOINED = {"vgg": (2, 4)}


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
        train_joined, inference_joined = JOINED.get(name, (0, 0))
        assert joined == (inference_joined if options.mode == "inference"
                          else 0 if keep_all else train_joined), name
