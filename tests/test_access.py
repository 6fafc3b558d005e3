"""Tests for the def/use substrate (``repro.synthesis.access``).

One module knows which scheduled step reads and writes which buffer;
these tests pin (a) the view's queries on a small net, (b) that every
extern closure looks up exactly the names its step declares, and (c)
structurally, that no other module re-derives those facts.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import Dim, Ensemble, FieldBinding, Net
from repro.layers import (
    BatchNormLayer,
    ConvolutionLayer,
    FullyConnectedLayer,
    LRNLayer,
    MemoryDataLayer,
    SoftmaxLossLayer,
)
from repro.layers.neurons import ScaleNeuron
from repro.optim import CompilerOptions
from repro.quant import calibrate
from repro.synthesis.access import ProgramView
from repro.testing import load_reproducer, random_spec
from repro.testing.generator import NetSpec, build_net
from repro.utils.rng import seed_all

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
REPO = SRC.parents[1]
PERM = [5, 2, 7, 0, 3, 6, 1, 4, 13, 10, 15, 8, 11, 14, 9, 12]


def _extern_net():
    """gather -> batchnorm -> fc -> softmax loss: one extern of every
    kind the lowering creates (fake-quant comes from the int8 compile)."""
    seed_all(9)
    net = Net(4)
    data = MemoryDataLayer(net, "data", (16,))
    label = MemoryDataLayer(net, "label", (1,))
    perm = Ensemble(net, "perm", ScaleNeuron, (16,), fields={
        "scale": FieldBinding(np.ones((1, 16), np.float32), (0, Dim(0)))
    })
    net.add_connections(data, perm, lambda i: (PERM[i],))
    bn = BatchNormLayer("bn", net, perm)
    fc = FullyConnectedLayer("fc", net, bn, 3)
    SoftmaxLossLayer("loss", net, fc, label)
    return net


def _feeds():
    rng = np.random.default_rng(4)
    return {"data": rng.standard_normal((4, 16)).astype(np.float32),
            "label": rng.integers(0, 3, (4, 1)).astype(np.float32)}


class _Recording(dict):
    """A buffer table that remembers which names were looked up."""

    def __init__(self, table):
        super().__init__(table)
        self.seen = set()

    def __getitem__(self, name):
        self.seen.add(name)
        return super().__getitem__(name)


def _check_closures_match_records(cnet, steps):
    kinds = set()
    for step in steps:
        if not step.access.opaque:
            continue
        table = _Recording(cnet.buffers)
        step.fn(table, cnet)
        looked_up = {cnet.plan.resolve_alias(n) for n in table.seen}
        assert looked_up == step.access.touched, step.label
        kinds.add(step.label.split("(")[0].split(".")[-1])
    return kinds


class TestExternContract:
    def test_closures_look_up_exactly_what_their_steps_declare(self):
        feeds = _feeds()
        train = _extern_net().init(CompilerOptions())
        train.forward(**feeds)
        train.clear_param_grads()
        train.backward()
        kinds = _check_closures_match_records(
            train, train.compiled.forward + train.compiled.backward)
        # gather + scatter, norm fwd + bwd (the loss is no extern)
        assert kinds == {"copy", "scatter", "extern"}
        opaque = [s.label for s in train.compiled.forward
                  + train.compiled.backward
                  if s.access.opaque]
        assert sorted(opaque) == sorted([
            "perm.copy", "bn.extern", "bn.extern", "perm.scatter"])

        profile = calibrate(_extern_net(), [feeds])
        int8 = _extern_net().init(
            CompilerOptions.inference(precision="int8"),
            calibration=profile)
        int8.forward(**feeds)
        kinds = _check_closures_match_records(int8, int8.compiled.forward)
        assert "fake_quant" in kinds

    def test_norm_backward_declares_what_it_is_handed(self):
        cnet = _extern_net().init(CompilerOptions())
        bwd = next(s for s in cnet.compiled.backward
                   if s.label == "bn.extern")
        # out_grad, ins and out are read; in_grads is read-modify-write
        assert bwd.reads == {"bn_grad", "perm_value", "bn_value",
                             "perm_grad"}
        assert bwd.writes == {"perm_grad"}
        fwd = next(s for s in cnet.compiled.forward
                   if s.label == "bn.extern")
        assert (fwd.reads, fwd.writes) == ({"perm_value"}, {"bn_value"})
        assert fwd.access.accesses[-1] == ("bn_value", "w")


class TestProgramView:
    def _conv(self, side_norm=False, **kw):
        seed_all(0)
        net = Net(8)
        data = MemoryDataLayer(net, "data", (3, 8, 8))
        if side_norm:  # an extern no other step reads or writes
            LRNLayer("norm0", net, data, local_size=3)
        label = MemoryDataLayer(net, "label", (1,))
        conv = ConvolutionLayer("conv1", net, data, 4, 3, pad=1)
        norm = LRNLayer("norm1", net, conv, local_size=3)
        fc = FullyConnectedLayer("fc", net, norm, 5)
        SoftmaxLossLayer("loss", net, fc, label)
        return net.init(**kw)

    def test_view_of_a_compiled_net_matches_its_memory_plan(self):
        cnet = self._conv(options=CompilerOptions())
        view = ProgramView(cnet.plan, cnet.compiled.forward,
                           cnet.compiled.backward)
        assert view.n_forward == len(cnet.compiled.forward)
        for base, iv in cnet.plan.memory.intervals.items():
            mine = view.intervals[base]
            assert (mine.first, mine.last, mine.first_kind, mine.phases) == (
                iv.first, iv.last, iv.first_kind, iv.phases), base

    def test_who_reads_the_im2col_buffer_last(self):
        """The forward GEMM: the weight-gradient GEMM reads a re-gather
        (``repro.synthesis.liveness.regather_staging``) that is born one
        step before it, from a re-padded buffer born two steps before
        that."""
        cnet = self._conv(options=CompilerOptions())
        view = ProgramView(cnet.plan, cnet.compiled.forward,
                           cnet.compiled.backward)
        steps = cnet.compiled.forward + cnet.compiled.backward
        iv = view.intervals["conv1_inputs0"]
        assert iv.first_kind == "w"          # the im2col copy defines it
        assert steps[iv.first].label == "conv1.copy"
        assert view.readers_after(iv.first, "conv1_inputs0") == [iv.last]
        assert steps[iv.last].label == "conv1.compute"
        assert iv.phases == {"forward"}
        re = view.intervals["conv1_inputs0_re"]
        assert re.phases == {"backward"} and re.first_kind == "w"
        assert steps[re.first].label == "conv1.regather"
        assert steps[iv.first].reads == {"conv1_padsrc0"}
        assert steps[re.first].reads == {"conv1_padsrc0_re"}
        assert view.intervals["conv1_padsrc0"].phases == {"forward"}
        repad = view.intervals["conv1_padsrc0_re"]
        assert [steps[p].label for p in range(repad.first, repad.last + 1)
                ] == ["conv1.pad_fill", "conv1.pad", "conv1.regather"]
        assert steps[repad.first + 1].reads == steps[iv.first - 1].reads
        (wgrad,) = view.readers_after(re.first, "conv1_inputs0_re")
        assert wgrad == re.first + 1 == re.last
        assert "conv1_grad_weights" in steps[wgrad].writes

    def test_depends_orders_conflicts_and_opaque_pairs(self):
        cnet = self._conv(side_norm=True, options=CompilerOptions())
        view = ProgramView(cnet.plan, cnet.compiled.forward,
                           cnet.compiled.backward)
        labels = [s.label for s in
                  cnet.compiled.forward + cnet.compiled.backward]
        copy, gemm = labels.index("conv1.copy"), labels.index("conv1.compute")
        assert view.depends(copy, gemm)      # read-after-write
        side_f = labels.index("norm0.extern")
        norm_f = labels.index("norm1.extern")
        assert side_f < norm_f and not (
            view.records[side_f].touched & view.records[norm_f].touched)
        assert view.depends(side_f, norm_f)  # two externs keep their order
        assert view.records[norm_f].opaque and not view.records[gemm].opaque

    def test_extern_output_is_defined_not_live_in(self):
        """What the ``'x'`` kind used to forbid: a norm layer's output
        is first *written*, so inference compilation pools it."""
        cnet = self._conv(options=CompilerOptions.inference())
        mem = cnet.plan.memory
        assert mem.intervals["norm1_value"].first_kind == "w"
        assert "norm1_value" in mem.pooled


def _corpus():
    for path in sorted((REPO / "tests" / "regressions").glob("repro_*.json")):
        yield path.stem, load_reproducer(path)[0]
    for path in sorted((REPO / "benchmarks" / "ledger" / "specs").glob(
            "*.json")):
        yield path.stem, NetSpec.from_dict(json.loads(path.read_text()))
    for seed in range(12):
        yield f"fuzz{seed}", random_spec(seed)


@pytest.mark.parametrize("name,spec", list(_corpus()),
                         ids=[n for n, _ in _corpus()])
def test_plan_never_larger_than_no_plan_and_kinds_are_r_or_w(name, spec):
    """Regression, ledger and fuzz specs, train (default and fully
    pooled) and inference: ``planned_bytes <= naive_bytes`` (at PR 15
    the ledger's ``recurrent`` planned 5672 B against 5112 B naive, 4044
    against 2556 forward-only; ``lstm`` forward-only 5760 against 5712),
    and a first access is a read or a write, nothing in between."""
    for options, keep_alive in ((CompilerOptions(), None),
                                (CompilerOptions(), ()),
                                (CompilerOptions.inference(), None)):
        seed_all(spec.seed)
        cnet = build_net(spec).init(options, keep_alive=keep_alive)
        stats = cnet.memory_stats()
        assert stats["planned_bytes"] <= stats["naive_bytes"], (
            name, options.mode, keep_alive, stats)
        kinds = {iv.first_kind for iv in cnet.plan.memory.intervals.values()}
        assert kinds <= {"r", "w", None}


class TestOnePlaceKnows:
    """Structural scans (after PR 13/14's): the facts live in
    ``repro/ir`` (statement level) and ``synthesis/access.py`` (unit,
    item, program level) and nowhere else."""

    @staticmethod
    def _sources():
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            yield rel, path.read_text()

    def test_nobody_else_walks_statements_for_buffers(self):
        offenders = []
        for rel, text in self._sources():
            if rel.startswith("ir/") or rel == "synthesis/access.py":
                continue
            calls = re.findall(r"\bbuffers_(?:read|written)\b", text)
            if rel == "synthesis/plan.py":
                # _backward_reads_value asks a *neuron function*, before
                # any step exists: one import, one call
                assert calls == ["buffers_read"] * 2
                assert "any(\"$value\" in buffers_read(stmt)" in text
                calls = []
            # an ExternOp's buffer lists are read through the record
            if calls or re.search(r"stmt\.(reads|writes|buffers)\b", text):
                offenders.append(rel)
        assert not offenders, offenders

    def test_the_private_walks_are_gone(self):
        gone = ("extern_touched_buffers", "_item_rw", "_recurrent_bases",
                "_group_metadata", "_target_disjoint_vars",
                "_item_accesses", "_collect_buffers")
        src_root = SRC.parent
        for path in sorted(src_root.rglob("*.py")):
            text = path.read_text()
            for name in gone:
                assert not re.search(rf"\b{name}\b", text), (path.name, name)
        from repro.ir import ExternOp

        fields = set(ExternOp.__dataclass_fields__)
        assert {"reads", "writes"} <= fields and "buffers" not in fields
