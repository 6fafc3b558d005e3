"""The planned-bytes golden table: the exact ``planned_bytes`` of every
program the perf ledger compiles (``benchmarks/ledger/programs.py``),
trained at the default ``keep_alive`` and compiled forward-only.

These are what the ledger's ``planned_mb`` gate sums, so a compiler
change that moves one moves the gate: re-pin the number on purpose (the
comment after each row says what it was before the last change that
moved it), never into an inequality.
"""

import json
from pathlib import Path

import pytest

import repro.models as models
from repro.optim import CompilerOptions
from repro.testing.generator import NetSpec, build_net
from repro.utils.rng import seed_all

SPEC_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "specs"

#: the ledger's config programs (copied, not imported): factory, channel
#: scale, input size, classes, batch
CONFIGS = {
    "alexnet": ("alexnet_config", 0.25, 67, 100, 8),
    "overfeat": ("overfeat_config", 0.125, 75, 100, 8),
    "vgg": ("vgg_config", 0.25, 64, 100, 8),
    "lenet": ("lenet_config", 0.5, 28, None, 8),
}

#: program -> (train, inference) ``planned_bytes``. Re-padding each
#: re-gathered conv layer's input in backward, instead of holding the
#: forward padded buffer across the phases, moved the Fig 14 trio's
#: training programs; the numbers before that follow each row. Joining
#: a conv layer's batch-tiled chain to the group of the layer before it
#: moved vgg's inference program (2 043 296 before)
PLANNED = {
    "alexnet": (3_952_064, 2_063_424),      # 4 156 864
    "overfeat": (3_376_064, 2_340_544),     # 3 425 216
    "vgg": (14_072_128, 1_526_944),         # 16 208 576
    "lenet": (1_167_680, 767_840),
    "mlp6x16": (3_744, 848),
    "cnn_a": (23_664, 10_312),
    "cnn_b": (9_536, 4_040),
    "mlp": (1_184, 480),
    "recurrent": (5_112, 2_556),
    "inception_a": (65_536, 25_664),
    "inception_b": (66_080, 36_064),
    "lstm": (11_424, 5_712),
}


#: forward-only programs in which a conv layer's batch-tiled chain joins
#: the group of the layer before it (``chains_joined``); in training
#: every value is kept at the default ``keep_alive``, so none does
JOINED = {"vgg": 4}


def ledger_net(name):
    """A fresh uncompiled ledger program, seeded as the ledger seeds it."""
    seed_all(1)
    if name in CONFIGS:
        factory, scale, size, classes, batch = CONFIGS[name]
        cfg = getattr(models, factory)().scaled(
            channel_scale=scale, input_size=size, classes=classes)
        return models.build_latte(cfg, batch).net
    if name == "mlp6x16":
        cfg = models.mlp_config(hidden=(16,) * 6 + (4,), classes=4,
                                input_dim=16)
        return models.build_latte(cfg, 4).net
    spec = NetSpec.from_dict(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    return build_net(spec)


def test_the_table_covers_every_ledger_spec():
    assert {p.stem for p in SPEC_DIR.glob("*.json")} <= set(PLANNED)


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_planned_bytes(name):
    train, inference = PLANNED[name]
    for options, planned in ((CompilerOptions(), train),
                             (CompilerOptions.inference(), inference)):
        cnet = ledger_net(name).init(options)
        stats = cnet.memory_stats()
        assert stats["planned_bytes"] == planned, (name, options.mode)
        assert stats["planned_bytes"] <= stats["naive_bytes"]
        joined = cnet.compile_report["fusion"].rewrites["chains_joined"]
        assert joined == (JOINED.get(name, 0)
                          if options.mode == "inference" else 0), name
