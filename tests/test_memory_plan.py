"""Tests for the compile-time memory planner (liveness + arena).

Covers the PR 4 acceptance surface: interval arithmetic, pool
eligibility (alias chains, recurrent carries, keep-alive), the
backward-schedule reordering, bitwise neutrality of the plan (serial
and sharded), the executor-facing contracts (inspection errors, zero
defs, per-direction zero states), and the reporting plumbing.
"""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from repro.core import Ensemble, Field, Net, Neuron, one_to_one
from repro.layers import (
    ConvolutionLayer,
    DataAndLabelLayer,
    FullyConnectedLayer,
    MaxPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
from repro.layers.neurons import AddNeuron
from repro.optim import CompilerOptions
from repro.synthesis.liveness import ALIGN_BYTES, Interval
from repro.testing import check_spec
from repro.testing.generator import NetSpec
from repro.testing.oracle import arena_fault, batch_tiles
from repro.utils.rng import seed_all
from tests.test_access import _corpus
from tests.test_planned_bytes import PLANNED, ledger_net


#: ``keep_alive`` spelling every ensemble of the net a helper builds:
#: the inspectable layout, which pools staging buffers only
EVERY_ENSEMBLE = object()


def _sharing_bytes(cn):
    """Pairs of pooled buffers whose arena bytes intersect."""
    mem = cn.plan.memory
    names = sorted(mem.pooled, key=lambda n: (mem.offsets[n], n))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if np.may_share_memory(cn.buffers[a], cn.buffers[b]):
                yield a, b


def _init(net, opts, num_threads=1, keep_alive=None):
    if keep_alive is EVERY_ENSEMBLE:
        keep_alive = list(net.ensembles)
    return net.init(opts, num_threads=num_threads, keep_alive=keep_alive)


def _conv_net(keep_alive=None, memory_plan=None, num_threads=1, batch=4):
    """Two conv blocks + fc head: padded staging, im2col copies, pooled
    grads — every buffer class the planner reasons about."""
    seed_all(3)
    net = Net(batch)
    data, label = DataAndLabelLayer(net, (3, 12, 12))
    c1 = ConvolutionLayer("c1", net, data, 8, 3, pad=1)
    r1 = ReLULayer("r1", net, c1)
    p1 = MaxPoolingLayer("p1", net, r1, 2, 2)
    c2 = ConvolutionLayer("c2", net, p1, 8, 3, pad=1)
    r2 = ReLULayer("r2", net, c2)
    fc = FullyConnectedLayer("fc", net, r2, 5)
    SoftmaxLossLayer("loss", net, fc, label)
    opts = CompilerOptions.level(4)
    if memory_plan is not None:
        opts.memory_plan = memory_plan
    return _init(net, opts, num_threads, keep_alive)


def _conv_io(batch=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 3, 12, 12)).astype(np.float32)
    y = rng.integers(0, 5, (batch, 1)).astype(np.float32)
    return x, y


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------


class TestInterval:
    def test_overlap_is_symmetric_closed(self):
        a = Interval("a", first=2, last=5)
        assert a.overlaps(Interval("b", first=5, last=9))  # touch counts
        assert Interval("b", first=5, last=9).overlaps(a)
        assert not a.overlaps(Interval("c", first=6, last=9))
        assert a.overlaps(Interval("d", first=0, last=2))
        assert a.overlaps(Interval("e", first=3, last=4))  # containment

    def test_dead_never_overlaps(self):
        dead = Interval("d")
        assert dead.dead
        assert not dead.overlaps(Interval("a", first=0, last=99))
        assert not Interval("a", first=0, last=99).overlaps(dead)


# ---------------------------------------------------------------------------
# Pool eligibility
# ---------------------------------------------------------------------------


class TestEligibility:
    def test_intervals_keyed_by_base_not_alias(self):
        """Alias-chain accesses fold into the base buffer's interval;
        no alias name gets its own record or arena slot."""
        cn = _conv_net()
        mem = cn.plan.memory
        aliases = {n for n, s in cn.plan.buffers.items()
                   if s.alias_of is not None}
        assert aliases  # the conv net does produce alias views
        assert not aliases & set(mem.intervals)
        assert not aliases & set(mem.offsets)
        # an aliased base (conv padded staging read through a reshape)
        # still saw the accesses made through its aliases (a program
        # that spells the alias at all: the loss writes no gradient
        # into its label's)
        for alias in aliases:
            if f"B[{alias!r}]" not in cn.source:
                continue
            base = cn.plan.resolve_alias(alias)
            assert not mem.intervals[base].dead

    def test_parameters_and_fields_never_pooled(self):
        cn = _conv_net(keep_alive=["fc"])  # minimal keep set: pool hard
        mem = cn.plan.memory
        for name, spec in cn.plan.buffers.items():
            if spec.array is not None:
                assert name not in mem.pooled
        for p in cn.parameters():
            assert f"{p.ensemble}_{p.name}" not in mem.pooled

    def test_keep_all_keeps_every_ensemble_inspectable(self):
        cn = _conv_net(keep_alive=EVERY_ENSEMBLE)
        x, y = _conv_io()
        cn.forward(data=x, label=y)
        for ens in cn.net.ensembles:
            if f"{ens}_value" in cn.plan.buffers:  # loss has no buffer
                cn.value(ens)  # must not raise
        # reuse still comes from the staging buffers (the im2col
        # copies), the dominant footprint of conv nets
        assert cn.plan.memory.reuse_fraction >= 0.30

    def test_explicit_keep_alive_pools_more(self):
        full = _conv_net(keep_alive=EVERY_ENSEMBLE)
        minimal = _conv_net(keep_alive=["fc"])
        assert set(full.plan.memory.pooled) < set(minimal.plan.memory.pooled)
        assert (minimal.plan.memory.planned_bytes
                < full.plan.memory.planned_bytes)
        # mandatory keeps survive any opt-out: data ensembles, loss
        # feeders, and sinks stay inspectable
        x, y = _conv_io()
        minimal.forward(data=x, label=y)
        minimal.value("data")
        minimal.value("fc")

    def test_unknown_keep_alive_name_raises(self):
        with pytest.raises(KeyError, match="nonexistent"):
            _conv_net(keep_alive=["nonexistent"])

    def test_pooled_ensemble_inspection_raises(self):
        cn = _conv_net(keep_alive=["fc"])
        # relu aliases its conv input; the shared base is what pools
        assert cn.plan.resolve_alias("r1_value") in cn.plan.memory.pooled
        with pytest.raises(KeyError, match="keep_alive"):
            cn.value("r1")
        with pytest.raises(KeyError, match="keep_alive"):
            cn.grad("r1")

    def test_recurrent_carry_excluded_from_pool(self):
        """A buffer read at t-1 outlives the linear liveness model; the
        planner must keep it individually allocated."""
        net = Net(2, time_steps=3)
        x = MemoryDataLayer(net, "data", (3,))
        h = Ensemble(net, "h", AddNeuron, (3,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        cn = net.init(CompilerOptions.level(4), keep_alive=[])
        mem = cn.plan.memory
        assert "h_value" not in mem.pooled
        assert mem.kept_reasons["h_value"] == "recurrent"

    def test_time_unrolled_buffers_sharing_bytes_are_phase_disjoint(self):
        """With T > 1 the linear point model is unsound within a phase:
        only forward-only/backward-only pairs may share arena bytes."""
        from repro.core import all_to_all
        from repro.layers import FullyConnectedEnsemble
        from repro.layers.mathops import AddLayer

        seed_all(11)
        net = Net(2, time_steps=3)
        x = MemoryDataLayer(net, "data", (4,))
        label = MemoryDataLayer(net, "label", (1,))
        hx = FullyConnectedLayer("hx", net, x, 5)
        hh = FullyConnectedEnsemble("hh", net, 5, 5)
        h = AddLayer("h", net, hx, hh)
        net.add_connections(h, hh, all_to_all((5,)), recurrent=True)
        fc = FullyConnectedLayer("fc", net, h, 3)
        SoftmaxLossLayer("loss", net, fc, label)
        cn = net.init(CompilerOptions.level(4), keep_alive=[])
        mem = cn.plan.memory
        pairs = list(_sharing_bytes(cn))
        assert pairs
        for a, b in pairs:
            ia, ib = mem.intervals[a], mem.intervals[b]
            if ia.dead or ib.dead:
                continue
            assert not (ia.phases & ib.phases), (a, b)


# ---------------------------------------------------------------------------
# Arena layout invariants
# ---------------------------------------------------------------------------


class TestArenaLayout:
    def test_buffers_sharing_bytes_never_overlap_in_time(self):
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        pairs = list(_sharing_bytes(cn))
        assert pairs
        for a, b in pairs:
            assert not mem.intervals[a].overlaps(mem.intervals[b]), (a, b)

    def test_pooled_buffers_are_arena_views(self):
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        for name in mem.pooled:
            arr = cn.buffers[name]
            assert not arr.flags.owndata  # a view into the arena
            assert mem.offsets[name] % ALIGN_BYTES == 0, name
        # the arena ends where the highest buffer does
        assert mem.arena_bytes == max(
            mem.offsets[n] + cn.buffers[n].nbytes for n in mem.pooled)

    def test_static_check_names_what_breaks_the_layout(self):
        """``arena_fault`` holds on the planner's layout and names the
        buffer of a misaligned offset or of an end past the arena."""
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        assert arena_fault(cn.plan) is None
        top = max(mem.pooled,
                  key=lambda n: (mem.offsets[n] + cn.buffers[n].nbytes, n))
        mem.offsets[top] += 8
        assert arena_fault(cn.plan) == (
            f"{top} at offset {mem.offsets[top]}, not a multiple of 64")
        mem.offsets[top] -= 8
        end = mem.offsets[top] + cn.buffers[top].nbytes
        mem.arena_bytes = end - 1
        assert arena_fault(cn.plan) == (
            f"{top} ends at byte {end}, past the {end - 1}-byte arena")

    def test_accounting_identity(self):
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        kept = sum(
            cn.buffers[n].nbytes
            for n, s in cn.plan.buffers.items()
            if s.alias_of is None and not s.is_param and n not in mem.pooled
        )
        assert mem.planned_bytes == kept + mem.arena_bytes
        assert mem.saved_bytes == mem.naive_bytes - mem.planned_bytes
        assert cn.memory_stats()["arena_bytes"] == mem.arena_bytes

    def test_memory_plan_off_means_no_pooling(self):
        cn = _conv_net(memory_plan=False)
        assert cn.plan.memory is None
        stats = cn.memory_stats()
        assert stats["arena_bytes"] == 0
        assert stats["planned_bytes"] == stats["naive_bytes"]

    def test_summary_and_report_mention_reuse(self):
        cn = _conv_net()
        assert "planned" in cn.summary() and "reuse" in cn.summary()
        rep = cn.memory_report()
        assert rep.saved_bytes == cn.plan.memory.saved_bytes
        # one row per pooled buffer, by offset
        mem = cn.plan.memory
        rows = rep.table().splitlines()
        start = next(i for i, r in enumerate(rows) if r.startswith("-")) + 1
        rows = rows[start:start + len(mem.pooled)]
        assert sorted(r.split()[-1] for r in rows) == sorted(mem.pooled)
        offsets = [int(r.split()[0]) for r in rows]
        assert offsets == sorted(offsets)
        assert all(mem.offsets[r.split()[-1]] == int(r.split()[0])
                   for r in rows)

    def test_pipeline_records_planner_stats(self):
        rec = _conv_net().compile_report["memory_plan"]
        assert rec.rewrites["buffers_pooled"] > 0
        assert rec.rewrites["steps_moved"] > 0  # backward rescheduling


# ---------------------------------------------------------------------------
# Zero defs and zero initial state
# ---------------------------------------------------------------------------


class TestZeroing:
    def test_pooled_grads_get_scheduled_zero_defs(self):
        cn = _conv_net()
        mem = cn.plan.memory
        assert mem.zero_defs  # the conv scatter grads need one
        for buf, (phase, idx) in mem.zero_defs.items():
            assert phase == "backward"
            assert buf in mem.pooled
            assert 0 <= idx < len(cn.compiled.backward)

    def test_blanket_zeroing_skips_pooled(self):
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        x, y = _conv_io()
        cn.forward(data=x, label=y)
        # poison the arena, then check _zero_grads leaves it alone
        # (zeroing shared arena bytes here would clobber forward tenants)
        arena_names = sorted(mem.pooled)
        cn.buffers[arena_names[0]][...] = 7.0
        cn._zero_grads()
        assert np.all(cn.buffers[arena_names[0]] == 7.0)

    def test_zero_state_views_are_per_direction(self):
        """Regression (PR 4 satellite): forward t==0 reads and backward
        t==0 scatters must use distinct zero tensors — sharing one lets
        a backward scatter pollute the next forward's initial state."""
        net = Net(2, time_steps=3)
        x = MemoryDataLayer(net, "data", (3,))
        h = Ensemble(net, "h", AddNeuron, (3,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        cn = net.init(CompilerOptions.level(4))
        fwd = {k for k in cn._zero_views if k[0] == "forward"}
        bwd = {k for k in cn._zero_views if k[0] == "backward"}
        assert fwd and bwd
        for (_, name) in fwd:
            if ("backward", name) in cn._zero_views:
                assert (cn._zero_views[("forward", name)]
                        is not cn._zero_views[("backward", name)])

    def test_forward_stable_across_backward_calls(self):
        """Functional form of the same regression: repeated
        forward/backward cycles reproduce the first forward bitwise."""
        net = Net(2, time_steps=3)
        x = MemoryDataLayer(net, "data", (3,))
        h = Ensemble(net, "h", AddNeuron, (3,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        # h feeds itself, so only keep_alive makes it readable
        cn = net.init(CompilerOptions.level(4), keep_alive=["h"])
        xs = np.random.default_rng(5).standard_normal(
            (3, 2, 3)
        ).astype(np.float32)
        cn.forward(data=xs)
        first = cn.value("h").copy()
        seed = np.ones_like(cn.grad("h"))
        for _ in range(3):
            cn.backward(seed_grads={"h": seed})
            cn.forward(data=xs)
            np.testing.assert_array_equal(cn.value("h"), first)


# ---------------------------------------------------------------------------
# Backward rescheduling
# ---------------------------------------------------------------------------


class TestReorderBackward:
    def test_hoists_weight_grad_above_data_grad(self):
        """The scheduler's signature effect on conv layers: the im2col
        staging buffer's last reader (the weight-grad GEMM) runs before
        the data-grad GEMM births ``grad_inputs0``, so the two
        equally-large intervals are disjoint and share their bytes."""
        mem = _conv_net().plan.memory
        iv_in = mem.intervals["c2_inputs0"]
        iv_gin = mem.intervals["c2_grad_inputs0"]
        assert not iv_in.overlaps(iv_gin)
        assert mem.offsets["c2_inputs0"] == mem.offsets["c2_grad_inputs0"]

    def test_zero_def_indices_align_with_executed_order(self):
        """The planner's zero-def step indices are computed on the
        *reordered* item list and consumed by the executor against the
        compiled step list — the two must agree: no earlier backward
        step may touch a zero-def'd buffer (reading it would see stale
        arena bytes the scheduled zero has not yet cleared)."""
        cn = _conv_net()
        steps = cn.compiled.backward
        for buf, (phase, idx) in cn.plan.memory.zero_defs.items():
            assert phase == "backward"
            base = cn.plan.resolve_alias
            for earlier in steps[:idx]:
                touched = {base(b) for b in earlier.reads | earlier.writes
                           if b in cn.plan.buffers}
                assert buf not in touched, (buf, earlier.label)
            touched = {base(b) for b in steps[idx].reads | steps[idx].writes
                       if b in cn.plan.buffers}
            assert buf in touched

    def test_skips_time_unrolled_schedules(self):
        from repro.synthesis.liveness import reorder_backward

        net = Net(2, time_steps=3)
        x = MemoryDataLayer(net, "data", (3,))
        h = Ensemble(net, "h", AddNeuron, (3,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        cn = net.init(CompilerOptions.level(4))
        items = list(cn.compiled.backward)
        assert reorder_backward(cn.plan, items) == 0
        assert items == list(cn.compiled.backward)


# ---------------------------------------------------------------------------
# Bitwise neutrality
# ---------------------------------------------------------------------------


def _run_once(memory_plan, num_threads=1, keep_alive=None):
    cn = _conv_net(memory_plan=memory_plan, num_threads=num_threads,
                   keep_alive=keep_alive)
    x, y = _conv_io()
    loss = cn.forward(data=x, label=y)
    cn.clear_param_grads()
    cn.backward()
    grads = {p.key: p.grad.copy() for p in cn.parameters()}
    dx = cn.grad("data").copy() if keep_alive is None else None
    cn.close()
    return loss, grads, dx


class TestBitwiseNeutrality:
    @pytest.mark.parametrize("num_threads", [1, 2, 4])
    def test_planned_matches_unplanned(self, num_threads):
        loss_p, grads_p, dx_p = _run_once(True, num_threads)
        loss_u, grads_u, dx_u = _run_once(False, num_threads)
        assert loss_p == loss_u
        np.testing.assert_array_equal(dx_p, dx_u)
        assert grads_p.keys() == grads_u.keys()
        for key in grads_p:
            np.testing.assert_array_equal(grads_p[key], grads_u[key], key)

    def test_aggressive_pooling_matches_unplanned(self):
        loss_p, grads_p, _ = _run_once(True, keep_alive=["fc"])
        loss_u, grads_u, _ = _run_once(False)
        assert loss_p == loss_u
        for key in grads_p:
            np.testing.assert_array_equal(grads_p[key], grads_u[key], key)

    def test_oracle_runs_memplan_checks(self):
        """The differential oracle exercises plan-on vs plan-off
        bitwise, serial and sharded, on every spec it checks."""
        spec = NetSpec(
            seed=1, batch=4, input_shape=(3, 8, 8), classes=3,
            layers=(
                {"kind": "conv", "filters": 4, "kernel": 3, "stride": 1,
                 "pad": 1},
                {"kind": "relu"},
                {"kind": "pool", "mode": "max", "kernel": 2, "stride": 2,
                 "pad": 0},
            ),
        )
        report = check_spec(spec, levels=(4,), threads=(2,),
                            gradcheck_indices=0, baselines=False)
        assert "memplan" in report.checks
        assert "memplan-kept" in report.checks
        assert "memplan-threads:2" in report.checks
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Extern steps declare everything their callbacks receive
# ---------------------------------------------------------------------------


def _sq_forward(out, ins, ctx):
    out[...] = ins[0] ** 2


def _sq_backward_reads_ins(in_grads, out_grad, ins, out, ctx):
    in_grads[0] += 2.0 * ins[0] * out_grad


def _exp_forward(out, ins, ctx):
    out[...] = np.exp(0.1 * ins[0])


def _exp_backward_reads_out(in_grads, out_grad, ins, out, ctx):
    in_grads[0] += 0.1 * out * out_grad


class _MSENeuron(Neuron):
    """Half the mean squared error of ``inputs[0]`` against
    ``inputs[1]``; ``scale`` is one over the batch's element count."""

    scale = Field()

    def forward(self):
        self.value = 0.0
        for i in range(len(self.inputs[0])):
            self.value += 0.5 * self.scale * (
                self.inputs[0][i] - self.inputs[1][i]) * (
                self.inputs[0][i] - self.inputs[1][i])

    def backward(self):
        for i in range(len(self.inputs[0])):
            self.grad_inputs[0][i] += self.scale * (
                self.inputs[0][i] - self.inputs[1][i])


def _extern_net(norm=None, custom_loss=False, **init_kw):
    """data(12) -> fc1(16) -> [norm] -> fc2(32) -> fc3(16) -> ip(4) ->
    loss: wide-narrow-wide, so that a value buffer the planner believes
    dead after the forward pass is overlaid by a later tenant."""
    from repro.core import (Dim, FieldBinding, LossEnsemble,
                            NormalizationEnsemble, all_to_all)

    seed_all(5)
    net = Net(4)
    data = MemoryDataLayer(net, "data", (12,))
    label = MemoryDataLayer(net, "label", (4 if custom_loss else 1,))
    top = FullyConnectedLayer("fc1", net, data, 16)
    if norm is not None:
        fwd, bwd = norm
        sq = NormalizationEnsemble(net, "sq", (16,), fwd, bwd)
        net.add_connections(top, sq, one_to_one(1))
        top = sq
    top = FullyConnectedLayer("fc2", net, top, 32)
    top = FullyConnectedLayer("fc3", net, top, 16)
    ip = FullyConnectedLayer("ip", net, top, 4)
    if custom_loss:
        scale = FieldBinding(np.full(1, 1 / 16, np.float32), (Dim(0),))
        loss = LossEnsemble(net, "loss", _MSENeuron, (1,),
                            fields={"scale": scale})
        net.add_connections(ip, loss, all_to_all(ip.shape))
        net.add_connections(label, loss, all_to_all(label.shape))
    else:
        SoftmaxLossLayer("loss", net, ip, label)
    cn = net.init(CompilerOptions(**init_kw.pop("options", {})), **init_kw)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 12)).astype(np.float32)
    y = (rng.standard_normal((4, 4)) if custom_loss
         else rng.integers(0, 4, (4, 1))).astype(np.float32)
    loss_value = cn.forward(data=x, label=y)
    cn.clear_param_grads()
    cn.backward()
    return cn, loss_value, {p.key: p.grad.copy() for p in cn.parameters()}


class TestExternDeclarations:
    """An extern step's record lists every array its callback is handed
    (docs/DSL.md, the extern contract): the planner keeps those alive.
    At PR 15 the ``ins``-reading norm and the loss twin produced a wrong
    ``fc1`` weight gradient (1.57 / 0.46 max-abs here) at an unchanged
    loss; the ``out``-reading norm guards what PR 16 made legal, a
    pooled norm output."""

    @pytest.mark.parametrize("norm", [
        (_sq_forward, _sq_backward_reads_ins),
        (_exp_forward, _exp_backward_reads_out),
    ], ids=["backward-reads-ins", "backward-reads-out"])
    def test_norm_backward_inputs_outlive_the_forward_pass(self, norm):
        cn, loss_p, grads_p = _extern_net(norm, keep_alive=[])
        # both really are at risk: pooled, so only their declared
        # backward reads keep later tenants off them
        assert {"fc1_value", "sq_value"} <= cn.plan.memory.pooled
        _, loss_u, grads_u = _extern_net(
            norm, options={"memory_plan": False})
        assert loss_p == loss_u
        for key in grads_u:
            np.testing.assert_array_equal(grads_p[key], grads_u[key], key)

    def test_loss_backward_inputs_outlive_the_forward_pass(self, monkeypatch):
        # the loss feeder is always kept inspectable, which masks an
        # under-declared loss backward; drop that rule so the record
        # itself is what keeps ``ip_value`` alive
        from repro.core.ensemble import DataEnsemble
        from repro.synthesis import liveness

        monkeypatch.setattr(
            liveness, "_contract_ensembles",
            lambda net: {e.name: "data" for e in net.ensembles.values()
                         if isinstance(e, DataEnsemble)})
        cn, loss_p, grads_p = _extern_net(custom_loss=True, keep_alive=[])
        assert "ip_value" in cn.plan.memory.pooled
        _, loss_u, grads_u = _extern_net(
            custom_loss=True, options={"memory_plan": False})
        assert loss_p == loss_u
        for key in grads_u:
            np.testing.assert_array_equal(grads_p[key], grads_u[key], key)


class TestExternOutputsPool:
    """An extern's output is *defined* by its step (first access
    ``'w'``), so it pools like any computed value. At PR 15 it counted
    as live-in and stayed individually allocated: the two numbers below
    are that commit's ``planned_bytes`` at the perf ledger's geometry."""

    def test_alexnet_inference_pools_both_lrn_outputs(self):
        from repro.models import alexnet_config, build_latte

        cfg = alexnet_config().scaled(channel_scale=0.25, input_size=67,
                                      classes=100)
        cnet = build_latte(cfg, 8).net.init(CompilerOptions.inference())
        mem = cnet.plan.memory
        assert {"norm1_value", "norm2_value"} <= mem.pooled
        assert mem.planned_bytes < 3_857_024

    def test_inception_inference_pools_the_concat_output(self):
        import json
        from pathlib import Path

        from repro.testing.generator import build_net

        path = (Path(__file__).resolve().parents[1] / "benchmarks"
                / "ledger" / "specs" / "inception_a.json")
        spec = NetSpec.from_dict(json.loads(path.read_text()))
        cnet = build_net(spec).init(CompilerOptions.inference())
        mem = cnet.plan.memory
        assert "L0_inception_value" in mem.pooled
        assert mem.planned_bytes < 38_272


# ---------------------------------------------------------------------------
# Staging copies are re-gathered in backward, tiled along the batch and
# contracted to one tile
# ---------------------------------------------------------------------------


def _staged_net(padded, memory_plan=True, num_threads=1, backend="numpy",
                keep_alive=None, batch=4, level=4):
    """conv -> relu -> pool -> conv -> fc. ``padded``: both convs gather
    from a kept ``*_padsrc0`` border buffer; otherwise conv1 is
    alexnet-conv1 style (stride < kernel, no pad) and gathers straight
    from value buffers."""
    seed_all(5)
    net = Net(batch)
    data, label = DataAndLabelLayer(net, (3, 21, 21))
    if padded:
        c1 = ConvolutionLayer("c1", net, data, 6, 3, pad=1)
    else:
        c1 = ConvolutionLayer("c1", net, data, 6, 5, stride=2)
    p1 = MaxPoolingLayer("p1", net, ReLULayer("r1", net, c1), 2, 2)
    c2 = ConvolutionLayer("c2", net, p1, 8, 3, pad=1 if padded else 0)
    fc = FullyConnectedLayer("fc", net, ReLULayer("r2", net, c2), 5)
    SoftmaxLossLayer("loss", net, fc, label)
    opts = dataclasses.replace(CompilerOptions.level(level),
                               memory_plan=memory_plan, backend=backend)
    return _init(net, opts, num_threads, keep_alive)


def _staged_run(cn):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(cn.value("data").shape).astype(np.float32)
    y = rng.integers(0, 5, (cn.batch_size, 1)).astype(np.float32)
    loss = cn.forward(data=x, label=y)
    cn.clear_param_grads()
    cn.backward()
    out = {"loss": loss, "fc": cn.value("fc").copy(),
           "d(data)": cn.grad("data").copy()}
    out.update((p.key, p.grad.copy()) for p in cn.parameters())
    cn.close()
    return out


def _ledger_net(name, options=None, keep_alive=None):
    return _init(ledger_net(name), options or CompilerOptions(),
                 keep_alive=keep_alive)


class TestRematerialization:
    def test_ledger_geometry_planned_bytes(self):
        for name in ("vgg", "alexnet", "overfeat", "lenet"):
            cn = _ledger_net(name, keep_alive=EVERY_ENSEMBLE)
            assert cn.memory_stats()["planned_bytes"] == PLANNED[name][1]
            assert not cn.plan.memory.declined, name
            # every staging chain is tiled; what stays whole is a value
            # keep_alive keeps
            assert {(cn.plan.buffers[b].role, why)
                    for b, why in cn.plan.untiled.items()} <= {
                ("value", "keep_alive")}
        # lenet's largest staging buffer is 512 000 B: under the budget,
        # so nothing of it is tiled and its plan is the parent's (1 167
        # 680 B before the loss's value and lse became buffers, 1 167
        # 744 B before inspected buffers joined the arena)
        assert cn.memory_stats()["planned_bytes"] == 1_116_512
        assert not cn.plan.contracted

    @pytest.mark.parametrize("name", sorted(PLANNED))
    def test_no_padded_input_spans_the_phase_boundary(self, name):
        """A backward re-gather re-pads its layer's input instead of
        reading the forward padded buffer again, so every padded buffer
        an im2col copy gathers from lives in one phase, and none is
        left whole for being read by a later group. (A pool whose window
        copy was inlined reads its padded input in its own backward
        compute: that one is not re-gathered, and spans both.)"""
        cn = _ledger_net(name)
        mem = cn.plan.memory
        gathered = {cp.padded_value for cp in cn.plan.conn_plans.values()
                    if cp.padded_value and cp.mode == "copy"}
        for base, spec in cn.plan.buffers.items():
            if spec.role == "padded" and spec.alias_of is None:
                assert (len(mem.intervals[base].phases) == 1) == (
                    base.removesuffix("_re") in gathered), base
        assert not [b for b in cn.plan.untiled
                    if cn.plan.buffers[b].role == "padded"]

    def test_vgg_arena_holds_one_padded_gradient_and_one_tile(self):
        """Eight im2col buffers used to be live at the phase boundary
        (arena 20 201 472 B); re-gathered, the arena was one whole-batch
        data-gradient buffer and the padded gradient it scatters into
        (5 382 144 B); contracted, one *image* of that buffer
        (1 253 376 B). Pooled padded inputs then lived from their
        forward group to their backward re-gather, nested, and grew it
        to 3 389 824 B. Re-padded in backward, each padded input — the
        forward one and its ``_re`` twin — lives inside one group and is
        contracted to its tile, so the arena's staging tenants are
        again the largest padded gradient plus one data-gradient tile
        (every ensemble kept inspectable, so that no value shares it).
        The inspected buffers go in after them, where they save bytes,
        and take the arena to 2 957 696 B."""
        cn = _ledger_net("vgg", keep_alive=EVERY_ENSEMBLE)
        mem = cn.plan.memory
        assert len(mem.rematerialized) == 8
        assert all(r.padded == f"{b[:-len('_inputs0')]}_padsrc0_re"
                   for b, r in mem.rematerialized.items())
        # in, in_re, grad_in, padsrc, padsrc_re x 8
        assert len(cn.plan.contracted) == 40
        padded = {b for b, spec in cn.plan.buffers.items()
                  if spec.role == "padded"}
        assert len(padded) == 16 and padded <= set(cn.plan.contracted)
        assert sum(cn.buffers[b].nbytes for b in padded) == 1_001_056
        staging = mem.pooled - mem.inspected.keys()
        assert max(mem.offsets[b] + cn.buffers[b].nbytes
                   for b in staging) == 1_253_376 == 663_552 + 589_824
        assert mem.arena_bytes == 2_957_696
        # less the two dropout masks (65 536 B) since dropout is a hash,
        # plus the loss's value and lse (64 B) since it is an ensemble,
        # less what the inspected buffers save in the arena (786 080 B)
        assert mem.planned_bytes == (16_208_576 - 2_136_448 - 65_536 + 64
                                     - 786_080)
        assert (cn.buffers["conv3_2_grad_inputs0"].nbytes,
                cn.buffers["conv3_2_padsrc0_grad"].nbytes) == (
            589_824, 663_552)
        assert cn.compile_report["regather"].rewrites == {
            "copies_regathered": 8, "pads_regathered": 8,
            "copies_declined": 0}

    def test_vgg_recomputes_its_pooled_values(self):
        """Each of vgg's first four pools is read again in backward by
        its own pool backward and the next layer's re-pad: it is
        recomputed there from its conv value, which backward keeps
        anyway, instead of held across the phases; the forward value
        then contracts into its group. The dropout values and the last
        pool reach backward through the next FC layer's reshaped input
        alias, which cannot be respelled."""
        cn = _ledger_net("vgg")
        mem = cn.plan.memory
        recomputed = {b: r for b, r in mem.rematerialized.items()
                      if r.recomputed}
        assert sorted(recomputed) == [f"pool_conv{i}_value"
                                      for i in range(1, 5)]
        rows = cn.memory_report().table().splitlines()
        summary = cn.summary().splitlines()
        for row in ("recomputed pool_conv1_value: 512.0 KB from "
                    "conv1_value by pool_conv1.recompute",
                    "recomputed pool_conv4_value: 64.0 KB from "
                    "conv4_2_value by pool_conv4.recompute",
                    "retained drop6_value: aliased",
                    "retained drop7_value: aliased"):
            assert row in rows and f"    {row}" in summary
        assert mem.declined == {"drop6_value": "aliased",
                                "drop7_value": "aliased",
                                "pool_conv5_value": "aliased"}
        for b, r in recomputed.items():
            assert r.buffer == b + "_re" and not r.padded
            assert mem.intervals[b].phases == {"forward"}
            assert mem.intervals[r.buffer].phases == {"backward"}
            assert r.nbytes == cn.buffers[r.buffer].nbytes
        assert {"pool_conv1_value", "pool_conv2_value"} <= set(
            cn.plan.contracted)
        assert cn.compile_report["regather"].rewrites == {
            "copies_regathered": 8, "pads_regathered": 8,
            "copies_declined": 0, "values_recomputed": 4}
        stats = cn.compile_report["memory_plan"].rewrites
        assert stats["copies_rematerialized"] == 12
        assert stats["bytes_rematerialized"] == sum(
            r.nbytes for r in mem.rematerialized.values())
        steps = [s.label for s in cn.compiled.backward]
        assert steps.count("pool_conv1.recompute") == 2  # init and max
        # an inspected value is held, not recomputed
        kept = _ledger_net("vgg", keep_alive=["pool_conv1"])
        assert "pool_conv1_value" not in kept.plan.memory.rematerialized
        assert "pool_conv1_value" not in kept.plan.memory.declined
        assert "pool_conv2_value" in kept.plan.memory.rematerialized

    def test_a_dropout_value_read_through_an_alias_is_retained(self):
        cn = _ledger_net("inception_b")
        assert cn.plan.memory.declined["L1_dropout_value"] == "aliased"
        assert "    retained L1_dropout_value: aliased" in (
            cn.summary().splitlines())

    def test_every_contracted_buffer_is_allocated_at_its_tile(self):
        from repro.optim.tiling import STAGING_TILE_BYTES

        for name in ("vgg", "alexnet", "overfeat"):
            cn = _ledger_net(name)
            assert cn.plan.contracted, name
            tiles = {label: cn.plan.buffers[buf].tile
                     for buf, label in cn.plan.contracted.items()}
            for buf, label in cn.plan.contracted.items():
                spec = cn.plan.buffers[buf]
                assert cn.buffers[buf].shape == (spec.tile,) + spec.shape
                assert 8 % spec.tile == 0 and spec.tile < 8
                assert spec.tile == tiles[label]
                if spec.role in ("padded", "value"):
                    continue  # its group's tile, sized by the im2col copy
                # the largest divisor of the batch that fits the budget
                # (one image when none does: the 11x11 conv1 layers)
                row = cn.buffers[buf].nbytes // spec.tile
                assert spec.tile == 1 or spec.tile * row <= \
                    STAGING_TILE_BYTES, (name, buf)
                assert 2 * spec.tile * row > STAGING_TILE_BYTES, (name, buf)
                assert buf in label.replace("regather", "copy") or \
                    "compute" in label

    def test_naive_bytes_is_what_the_program_allocates_unpooled(self):
        """``naive_bytes`` counts the buffers the compiled program has —
        re-gather, re-pad and recompute targets included, contracted
        ones at their tile — so it equals the unplanned compile's
        allocation only where the planner's own rewrites (the re-gathers
        and recomputes) add nothing."""
        planned = _staged_net(True)
        unplanned = _staged_net(True, memory_plan=False)
        remat = planned.plan.memory.rematerialized
        assert sorted(remat) == ["c1_inputs0", "c2_inputs0", "p1_value"]
        assert remat["p1_value"].label == "p1.recompute"
        again = sum(planned.buffers[r.buffer].nbytes
                    for r in remat.values())
        padded = sum(planned.buffers[r.padded].nbytes
                     for r in remat.values() if r.padded)
        assert (planned.memory_stats()["naive_bytes"]
                == unplanned.memory_stats()["naive_bytes"] + again + padded)
        rec = planned.compile_report["regather"]
        assert rec.rewrites == {"copies_regathered": 2, "pads_regathered": 2,
                                "copies_declined": 0, "values_recomputed": 1}
        # per layer: the pad's fill, its interior copy and the re-gather;
        # the pool's init and max
        assert rec.units_after == rec.units_before + 8
        mem = planned.compile_report["memory_plan"].rewrites
        assert mem["copies_rematerialized"] == 3
        assert mem["bytes_rematerialized"] == again
        assert not unplanned.compile_report["regather"].enabled

    @pytest.mark.parametrize("name,spec", list(_corpus()),
                             ids=[n for n, _ in _corpus()])
    def test_no_staging_copy_spans_the_phase_boundary_undeclared(
            self, name, spec):
        """Train, at the default and with every ensemble kept: a pooled
        buffer some ``*.copy`` step defines is live in one phase only,
        or its decline is on record. Inference: nothing to re-gather."""
        from repro.testing.generator import build_net

        for keep_alive in (None, EVERY_ENSEMBLE):
            seed_all(spec.seed)
            cn = _init(build_net(spec), CompilerOptions(),
                       keep_alive=keep_alive)
            mem = cn.plan.memory
            staged = {b for s in cn.compiled.forward
                      if s.label.endswith(".copy") for b in s.writes
                      if cn.plan.buffers[b].role == "input"}
            for b in staged & mem.pooled:
                if len(mem.intervals[b].phases) == 2:
                    assert b in mem.declined, (name, keep_alive, b)
            for b, r in mem.rematerialized.items():
                assert mem.intervals[b].phases == {"forward"}
                assert mem.intervals[r.buffer].phases == {"backward"}
                if r.padded:
                    assert mem.intervals[r.padded].phases == {"backward"}
            assert "fused-group" not in mem.declined.values()
        seed_all(spec.seed)
        cn = build_net(spec).init(CompilerOptions.inference())
        mem = cn.plan.memory
        assert not mem.rematerialized and not mem.declined
        assert not any(b.endswith("_re") for b in cn.plan.buffers)
        assert not any("regather" in s.label for s in cn.compiled.forward)
        assert not cn.compile_report["regather"].enabled
        assert cn.compile_report["memory_plan"].rewrites[
            "copies_rematerialized"] == 0

    def test_inference_vgg_footprint(self):
        """A conv layer's chain joins the group of the layer before it
        when both run one tile and what bridges them is read nowhere
        else: conv1 … conv3_2 are one 30-unit group and conv5_1+conv5_2
        another, so the values between them are contracted too, and
        per-unit liveness inside a group lets its tiles share bytes.
        One group per layer, the served program planned 6 063 648 ->
        2 043 296 B (arena 1 581 312 B); merged it planned 1 526 944 B
        (arena 1 064 960 B) in slabs, and 1 313 952 B with each buffer
        at a byte offset of its own. The dropout masks' 65 536 B went
        when dropout became a hash, and the dropout values' (now in
        place on their ReLUs, a forward-only program reading no value
        backward) from the naive bytes, and the output's 3 200 B when
        inspected buffers joined the arena."""
        cn = _ledger_net("vgg", CompilerOptions.inference())
        assert cn.memory_stats() == {
            "naive_bytes": 5_255_120, "planned_bytes": 1_245_216,
            "arena_bytes": 851_968}  # =, 1 248 416, =
        groups = [s.label for s in cn.compiled.forward
                  if "pad_fill" in s.label]
        assert [g.count(".pad_fill") for g in groups] == [4, 1, 1, 2]
        assert len(groups[0].split("+")) == 30
        src = cn.source
        conv = [src[m.start():src.index("\n\n", m.start())]
                for m in re.finditer(r"# --- f conv\w+\.pad_fill\+", src)]
        assert [body.count(", out=conv") for body in conv] == [4, 1, 1, 2]
        assert all("tensordot" not in body for body in conv)
        roles = Counter(cn.plan.buffers[b].role for b in cn.plan.contracted)
        assert roles == {"input": 8, "padded": 8, "value": 9}
        rec = cn.compile_report["fusion"].rewrites
        assert (rec["staging_contracted"], rec["values_contracted"],
                rec["padded_contracted"], rec["chains_joined"]) == (8, 9, 8, 4)
        # the next chain runs another tile (a conv value read by the
        # next layer's pad, a pool value read by the next group), or the
        # last pool's fc alias: whole, and why
        assert cn.plan.untiled == {
            "pool_conv3_value": "tile-mismatch (1 vs 2 rows)",
            "conv4_1_value": "tile-mismatch (2 vs 1 rows)",
            "pool_conv4_value": "tile-mismatch (1 vs 4 rows)",
            "pool_conv5_value": "reshaped-alias"}
        # two layers' buffers in one group share bytes where the units
        # touching them do not overlap
        mem = cn.plan.memory
        assert mem.intervals["conv1_inputs0"].units == (2, 3)
        assert mem.intervals["pool_conv1_value"].units == (6, 9)
        for a, b in (("conv1_inputs0", "pool_conv1_value"),
                     ("conv1_value", "conv2_value")):
            assert np.may_share_memory(cn.buffers[a], cn.buffers[b]), (a, b)
        table = cn.memory_report().table().splitlines()
        assert "whole-batch pool_conv5_value: reshaped-alias" in table
        assert ("whole-batch pool_conv3_value: tile-mismatch (1 vs 2 rows)"
                in table)
        assert ("contracted conv1_value: 2048.0 KB → 256.0 KB, tile 1 of "
                f"8, group {groups[0]}") in table
        with pytest.raises(KeyError, match="batch-tiled group"):
            cn.value("relu_conv1")
        # inspection opts a value back out: conv1 stays whole
        kept = _ledger_net("vgg", CompilerOptions.inference(),
                           keep_alive=["conv1"])
        assert "conv1_value" not in kept.plan.contracted
        assert kept.plan.untiled["conv1_value"] == "keep_alive"
        assert kept.value("relu_conv1").shape == (8, 16, 64, 64)

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    @pytest.mark.parametrize("padded", [True, False],
                             ids=["padded", "strided"])
    @pytest.mark.parametrize("num_threads", [1, 2, 4])
    def test_regathers_are_bitwise_neutral(self, padded, num_threads,
                                           backend):
        if backend == "c":
            from repro.codegen.c_backend import have_c_toolchain

            if not have_c_toolchain():
                pytest.skip("no usable C toolchain")
        cn = _staged_net(padded, num_threads=num_threads, backend=backend)
        assert sorted(cn.plan.memory.rematerialized) == [
            "c1_inputs0", "c2_inputs0", "p1_value"]
        if num_threads > 1:  # a re-gather shards like its original
            assert all(s.shardable for s in cn.compiled.backward
                       if s.label.endswith(".regather"))
        planned = _staged_run(cn)
        unplanned = _staged_run(_staged_net(
            padded, memory_plan=False, num_threads=num_threads,
            backend=backend))
        assert planned.keys() == unplanned.keys()
        for key in planned:
            np.testing.assert_array_equal(planned[key], unplanned[key], key)

    def test_report_and_summary_explain_the_decisions(self):
        with batch_tiles():
            cn = _staged_net(False, keep_alive=EVERY_ENSEMBLE)
        tile = cn.buffers["c2_inputs0"].shape[0]
        assert tile == 1  # two 864 B images overflow batch_tiles()' 1 KB
        kb = cn.buffers["c2_inputs0"].nbytes / 1024
        rows = [f"re-gathered c2_inputs0: {4 * kb:.1f} KB from p1_value "
                "by c2.regather",
                f"contracted c2_inputs0: {4 * kb:.1f} KB → {kb:.1f} KB, "
                "tile 1 of 4, group c2.copy+c2.compute+c2.compute"
                "+r2.compute",
                f"contracted c2_inputs0_re: {4 * kb:.1f} KB → {kb:.1f} KB, "
                "tile 1 of 4, group c2.regather+c2.compute",
                "whole-batch c2_value: keep_alive"]
        for row in rows:
            assert row in cn.memory_report().table().splitlines()
            assert f"    {row}" in cn.summary().splitlines()
        fusion = cn.compile_report["fusion"].rewrites
        assert len(cn.plan.contracted) == 6
        assert (fusion["staging_contracted"], fusion["values_contracted"],
                fusion["padded_contracted"]) == (6, 0, 0)
        assert fusion["bytes_contracted"] == sum(
            (4 // cn.plan.buffers[b].tile - 1) * cn.buffers[b].nbytes
            for b in cn.plan.contracted)
        # c1: copy, GEMM, bias, ReLU, pool init and max; c2: copy, GEMM,
        # bias, ReLU; two backward chains of two units per layer
        assert cn.compile_report["tiling"].rewrites["units_tiled"] == 18

    def test_a_repad_is_reported_with_its_regather(self):
        cn = _staged_net(True)
        kb = cn.buffers["c2_inputs0_re"].nbytes / 1024
        row = (f"re-gathered c2_inputs0: {kb:.1f} KB from p1_value "
               "(re-padded into c2_padsrc0_re) by c2.regather")
        assert row in cn.memory_report().table().splitlines()
        assert f"    {row}" in cn.summary().splitlines()

    def test_a_solo_regather_is_a_span_of_its_own(self):
        from repro.trace import RecordingTracer

        seed_all(5)
        cn = _staged_net(True)
        cn.tracer = tracer = RecordingTracer()
        _staged_run(cn)
        spans = {(s.cat, s.name) for s in tracer.spans}
        assert {("forward", "c1.copy"), ("backward", "c1.regather")} <= spans

    def test_pooled_buffers_start_on_a_cache_line(self):
        """``np.zeros`` alone lands mmap-sized arenas at 16 or 48 mod
        64; the planner places every buffer on a 64-byte offset, so the
        runtime must deliver them."""
        for cn in (_ledger_net("lenet"),
                   _staged_net(True, keep_alive=EVERY_ENSEMBLE),
                   _staged_net(False)):
            mem = cn.plan.memory
            assert mem.pooled
            for name in mem.pooled:
                assert cn.buffers[name].ctypes.data % 64 == 0, name


class TestBatchTiles:
    """Staging chains tiled along the batch, fused and contracted
    (``tiling._tile_batch`` -> ``fusion.build_schedule`` ->
    ``fusion.contract``), at a budget the tiny test nets exceed."""

    @pytest.mark.parametrize("padded", [True, False],
                             ids=["padded", "strided"])
    def test_groups_and_contracted_shapes(self, padded):
        with batch_tiles():
            cn = _staged_net(padded, keep_alive=EVERY_ENSEMBLE)
        fwd = [s.label for s in cn.compiled.forward]
        bwd = [s.label for s in cn.compiled.backward]
        pad = "c1.pad_fill+c1.pad+" if padded else ""
        assert fwd[:2] == [
            f"{pad}c1.copy+c1.compute+c1.compute+r1.compute+p1.compute"
            "+p1.compute",
            f"{pad.replace('c1', 'c2')}c2.copy+c2.compute+c2.compute"
            "+r2.compute"]
        for conv in ("c1", "c2"):
            repad = pad.replace("c1", conv)
            assert f"{repad}{conv}.regather+{conv}.compute" in bwd
            assert f"{conv}.compute+{conv}.scatter" in bwd
            for buf in (f"{conv}_inputs0", f"{conv}_inputs0_re",
                        f"{conv}_grad_inputs0") + (
                            (f"{conv}_padsrc0", f"{conv}_padsrc0_re")
                            if padded else ()):
                assert cn.plan.buffers[buf].tile == cn.buffers[buf].shape[0]
                assert cn.buffers[buf].shape[0] < 4
        # the weight-gradient tile and the data-gradient tile are two
        # groups: one staging tile is live at a time
        mem = cn.plan.memory
        assert not (mem.intervals["c1_inputs0_re"].overlaps(
            mem.intervals["c1_grad_inputs0"]))
        assert mem.declined == {}
        assert cn.plan.untiled == dict.fromkeys(
            ("c1_value", "p1_value", "c2_value"), "keep_alive")

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    @pytest.mark.parametrize("padded", [True, False],
                             ids=["padded", "strided"])
    @pytest.mark.parametrize("batch,num_threads",
                             [(4, 1), (6, 4), (8, 2), (1, 2)])
    def test_tiled_matches_untiled(self, monkeypatch, padded, backend,
                                   batch, num_threads):
        """Forward outputs and data gradients bitwise, parameter
        gradients inside the oracle's ``level_param`` tier (their sums
        over the batch reassociate per tile) — also under shards whose
        bounds fall inside tiles (batch 6 on 4 threads)."""
        from repro.optim import tiling
        from repro.testing.oracle import TOLERANCES

        if backend == "c":
            from repro.codegen.c_backend import have_c_toolchain

            if not have_c_toolchain():
                pytest.skip("no usable C toolchain")
        kw = dict(num_threads=num_threads, backend=backend, batch=batch)
        untiled = _staged_run(_staged_net(padded, **kw))
        # not batch_tiles(): its one-image tiles would put no shard
        # bound inside a tile — 6000 B keeps several images per tile
        monkeypatch.setattr(tiling, "STAGING_TILE_BYTES", 6000)
        cn = _staged_net(padded, **kw)
        assert bool(cn.plan.contracted) == (batch > 1)
        tiled = _staged_run(cn)
        tol = TOLERANCES["float32"]
        for key in untiled:
            if key in ("loss", "fc", "d(data)"):
                np.testing.assert_array_equal(tiled[key], untiled[key], key)
            else:
                np.testing.assert_allclose(
                    tiled[key], untiled[key], rtol=tol["level_param_rtol"],
                    atol=tol["level_param_atol"], err_msg=key)
        # planned and unplanned run the same tiles: bitwise
        unplanned = _staged_run(_staged_net(padded, memory_plan=False, **kw))
        for key in tiled:
            np.testing.assert_array_equal(tiled[key], unplanned[key], key)

    def test_turning_tiling_on_never_costs_memory(self):
        """A fused group that retained its im2col copy (``fused-group``)
        once made O4 plan twice what O3 did."""
        with batch_tiles():
            for padded in (True, False):
                o3 = _staged_net(padded, level=3).memory_stats()
                o4 = _staged_net(padded, level=4).memory_stats()
                assert o4["planned_bytes"] <= o3["planned_bytes"]
                assert o4["naive_bytes"] < o3["naive_bytes"]
            seed_all(0)
            net = Net(4)
            data, label = DataAndLabelLayer(net, (3, 8, 8))
            conv = ConvolutionLayer("conv", net, data, 4, 3, pad=1)
            fc = FullyConnectedLayer("fc", net, ReLULayer("relu", net, conv),
                                     3)
            SoftmaxLossLayer("loss", net, fc, label)
            fused = net.init(CompilerOptions())
        assert any("conv.copy+" in s.label for s in fused.compiled.forward)
        assert fused.plan.memory.declined == {}
        assert sorted(fused.plan.memory.rematerialized) == ["conv_inputs0"]

    def test_declined_chains_run_whole_batch_and_say_why(self):
        from repro.layers.neurons import MulNeuron

        seed_all(9)
        net = Net(4)
        data = MemoryDataLayer(net, "data", (1024,))
        label = MemoryDataLayer(net, "label", (1,))
        mul = Ensemble(net, "mul", MulNeuron, (1024,))
        net.add_connections(data, mul, lambda i: ((i * 5 + 3) % 1024,))
        net.add_connections(data, mul, lambda i: ((i * 3 + 1) % 1024,))
        fc = FullyConnectedLayer("fc", net, mul, 3)
        SoftmaxLossLayer("loss", net, fc, label)
        with batch_tiles():
            cn = net.init(CompilerOptions())
        assert cn.plan.untiled == {
            b: "opaque" for b in ("mul_inputs0", "mul_inputs1",
                                  "mul_grad_inputs0", "mul_grad_inputs1")}
        assert "whole-batch mul_inputs0: opaque" in cn.summary()
        assert not cn.plan.contracted

        net = Net(2, time_steps=3)
        x = MemoryDataLayer(net, "data", (1024,))
        h = Ensemble(net, "h", AddNeuron, (1024,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        with batch_tiles():
            cn = net.init(CompilerOptions.level(4))
        assert set(cn.plan.untiled.values()) == {"time-unrolled"}
        assert not cn.plan.contracted


def _hand_sections(time_steps=1, src_shape=(8,), rewrite_source=False,
                   rewrite_target=False, read_out=False):
    """copy ``stage <- src``; compute ``out <- stage``; backward
    ``gw += stage`` (and ``gw += out`` with ``read_out``): the shape of
    a conv layer's staging traffic, small enough to build by hand."""
    from repro.ir import Assign, Index, Var
    from repro.synthesis.plan import BufferPlan, BufferSpec
    from repro.synthesis.units import (
        LoopSpec,
        LoopUnit,
        Section,
        UnitTags,
    )

    plan = BufferPlan(2, time_steps)
    plan.add(BufferSpec("src", src_shape, "value"))
    plan.add(BufferSpec("stage", (3, 8), "input"))
    plan.add(BufferSpec("out", (8,), "value"))
    plan.add(BufferSpec("gw", (8,), "grad", batched=False))
    n, k, i = Var("_n"), Var("k"), Var("i")

    def unit(kind, target, value, reduce=None, loops="nki"):
        specs = {"n": LoopSpec.simple("_n", 2, role="batch"),
                 "k": LoopSpec.simple("k", 3, role="window"),
                 "i": LoopSpec.simple("i", 8)}
        return LoopUnit([specs[c] for c in loops],
                        Assign(target, value, reduce),
                        UnitTags(ensemble="c", kind=kind))

    stage = Index("stage", (n, k, i))
    fwd = Section("c", "forward", [
        unit("copy", stage, Index("src", (n, i))),
        unit("compute", Index("out", (n, i)), stage)])
    if rewrite_source:
        fwd.units.append(unit("compute", Index("src", (n, i)),
                              Index("out", (n, i)), loops="ni"))
    bwd = Section("c", "backward", [
        unit("compute", Index("gw", (i,)), stage, reduce="add")])
    if rewrite_target:
        bwd.units.append(unit("fill", stage, Index("src", (n, i))))
    if read_out:
        bwd.units.append(unit("compute", Index("gw", (i,)),
                              Index("out", (n, i)), reduce="add",
                              loops="ni"))
    return plan, fwd, bwd


class TestRegatherStagingUnit:
    """``regather_staging`` on hand-built sections: the rewrite, and one
    per declined reason."""

    def _run(self, keep=("src",), **kw):
        from repro.synthesis.liveness import regather_staging

        plan, fwd, bwd = _hand_sections(**kw)
        before = (list(fwd.units), list(bwd.units), set(plan.buffers))
        done, declined = regather_staging(plan, [fwd], [bwd],
                                          frozenset(keep))
        if declined:  # declined sections are left exactly as they were
            assert not done
            assert (fwd.units, bwd.units, set(plan.buffers)) == before
        return plan, fwd, bwd, done, declined

    def test_clones_the_copy_before_its_backward_reader(self):
        from repro.synthesis.access import unit_accesses

        plan, fwd, bwd, done, declined = self._run()
        assert not declined
        r = done["stage"]
        assert (r.buffer, r.source, r.label, r.nbytes) == (
            "stage_re", "src", "c.regather", 2 * 3 * 8 * 4)
        assert [u.tags.kind for u in bwd.units] == ["regather", "compute"]
        assert [u.tags.kind for u in fwd.units] == ["copy", "compute"]
        spec = plan.buffers["stage_re"]
        assert (spec.role, spec.shape) == ("input", (3, 8))
        regather, reader = bwd.units
        assert unit_accesses(regather) == [("src", "r"), ("stage_re", "w")]
        assert ("stage_re", "r") in unit_accesses(reader)
        # a unit of its own: tiling one nest must not tile the other
        assert regather.loops is not fwd.units[0].loops
        assert all(a is not b for a, b in zip(regather.loops,
                                              fwd.units[0].loops))
        # the forward pair still spells the forward buffer
        assert ("stage", "w") in unit_accesses(fwd.units[0])
        assert ("stage", "r") in unit_accesses(fwd.units[1])

    def test_poolable_source_smaller_than_the_staging_still_pays(self):
        # 192 B of staging against 64 B of source kept alive longer
        *_, done, declined = self._run(keep=())
        assert "stage" in done and not declined

    @pytest.mark.parametrize("kw,keep,reason", [
        (dict(time_steps=3), ("src",), "time-unrolled"),
        (dict(rewrite_source=True), ("src",), "source-rewritten"),
        (dict(rewrite_target=True), ("src",), "target-rewritten"),
        # re-gathering would keep 192 poolable source bytes alive to
        # save 192 staging bytes
        (dict(src_shape=(3, 8)), (), "no-saving"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_declined(self, kw, keep, reason):
        if "src_shape" in kw:
            # same sections, kept source: nothing is extended
            *_, done, declined = self._run(**kw)
            assert "stage" in done and not declined
        *_, done, declined = self._run(keep=keep, **kw)
        assert declined == {"stage": reason} and not done

    def test_a_value_that_would_hold_a_larger_source_is_retained(self):
        """``out`` is cheap (no GEMM) and read again in backward, but
        recomputing it there would hold the 192 B ``stage`` — dead in
        forward once its reader is re-gathered — to save 64 B."""
        from repro.synthesis.liveness import regather_staging

        plan, fwd, bwd = _hand_sections(read_out=True)
        done, declined = regather_staging(plan, [fwd], [bwd],
                                          frozenset({"src"}))
        assert list(done) == ["stage"] and declined == {"out": "no-saving"}
        assert [u.tags.kind for u in bwd.units] == [
            "regather", "compute", "compute"]

    def test_extern_gather_staging_is_opaque(self):
        """A gather's closures look their buffers up by name, so its
        staging buffer cannot be respelled: retained, on record."""
        from repro.layers.neurons import MulNeuron

        seed_all(9)
        net = Net(4)
        data = MemoryDataLayer(net, "data", (16,))
        label = MemoryDataLayer(net, "label", (1,))
        mul = Ensemble(net, "mul", MulNeuron, (16,))  # backward reads both
        net.add_connections(data, mul, lambda i: ((i * 5 + 3) % 16,))
        net.add_connections(data, mul, lambda i: ((i * 3 + 1) % 16,))
        fc = FullyConnectedLayer("fc", net, mul, 3)
        SoftmaxLossLayer("loss", net, fc, label)
        mem = net.init(CompilerOptions()).plan.memory
        # (and fc reads mul's value through its reshaped alias)
        assert mem.declined == {"mul_inputs0": "opaque",
                                "mul_inputs1": "opaque",
                                "mul_value": "aliased"}

    def test_time_unrolled_net_declines_every_recurrent_copy(self):
        net = Net(2, time_steps=3)
        x = MemoryDataLayer(net, "data", (3,))
        h = Ensemble(net, "h", AddNeuron, (3,))
        net.add_connections(x, h, one_to_one(1))
        net.add_connections(h, h, one_to_one(1), recurrent=True)
        mem = net.init(CompilerOptions.level(4)).plan.memory
        assert not mem.rematerialized
        assert set(mem.declined.values()) <= {"time-unrolled"}
