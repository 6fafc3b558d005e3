"""Tests for the compile-time memory planner (liveness + arena).

Covers the PR 4 acceptance surface: interval arithmetic, pool
eligibility (alias chains, recurrent carries, keep-alive), the
backward-schedule reordering, bitwise neutrality of the plan (serial
and sharded), the executor-facing contracts (inspection errors, zero
defs, per-direction zero states), and the reporting plumbing.
"""

import numpy as np
import pytest

from repro.core import Ensemble, Net, one_to_one
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
from repro.synthesis.liveness import Interval
from repro.testing import check_spec
from repro.testing.generator import NetSpec
from repro.utils.rng import seed_all


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
    return net.init(opts, num_threads=num_threads, keep_alive=keep_alive)


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
        # still saw the accesses made through its aliases
        for alias in aliases:
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

    def test_default_keeps_every_ensemble_inspectable(self):
        cn = _conv_net()
        x, y = _conv_io()
        cn.forward(data=x, label=y)
        for ens in cn.net.ensembles:
            if f"{ens}_value" in cn.plan.buffers:  # loss has no buffer
                cn.value(ens)  # must not raise
        # reuse still comes from the staging buffers (the im2col
        # copies), the dominant footprint of conv nets
        assert cn.plan.memory.reuse_fraction >= 0.30

    def test_explicit_keep_alive_pools_more(self):
        full = _conv_net()
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

    def test_time_unrolled_slabs_are_phase_disjoint(self):
        """With T > 1 the linear point model is unsound within a phase:
        only forward-only/backward-only pairs may share a slab."""
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
        for slab in mem.slabs:
            for i, a in enumerate(slab.members):
                for b in slab.members[i + 1:]:
                    ia, ib = mem.intervals[a], mem.intervals[b]
                    if ia.dead or ib.dead:
                        continue
                    assert not (ia.phases & ib.phases), (a, b, slab)


# ---------------------------------------------------------------------------
# Arena layout invariants
# ---------------------------------------------------------------------------


class TestArenaLayout:
    def test_slab_members_never_overlap_in_time(self):
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        assert mem.pooled
        for slab in mem.slabs:
            for i, a in enumerate(slab.members):
                for b in slab.members[i + 1:]:
                    assert not mem.intervals[a].overlaps(mem.intervals[b])

    def test_pooled_buffers_are_arena_views(self):
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        for name in mem.pooled:
            arr = cn.buffers[name]
            assert not arr.flags.owndata  # a view into the arena
        # distinct slabs occupy distinct byte ranges
        spans = sorted((s.offset, s.offset + s.nbytes) for s in mem.slabs)
        for (lo1, hi1), (lo2, _hi2) in zip(spans, spans[1:]):
            assert hi1 <= lo2

    def test_accounting_identity(self):
        cn = _conv_net(keep_alive=["fc"])
        mem = cn.plan.memory
        kept = sum(
            cn.buffers[n].nbytes
            for n, s in cn.plan.buffers.items()
            if s.alias_of is None and s.array is None and n not in mem.pooled
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
        text = rep.table()
        assert "slab" in text.lower()

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
        # (zeroing a shared slab here would clobber forward tenants)
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
        cn = net.init(CompilerOptions.level(4))
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
        equally-large intervals are disjoint and share one slab."""
        mem = _conv_net().plan.memory
        iv_in = mem.intervals["c2_inputs0"]
        iv_gin = mem.intervals["c2_grad_inputs0"]
        assert not iv_in.overlaps(iv_gin)
        slab_of = {m: s.offset for s in mem.slabs for m in s.members}
        assert slab_of["c2_inputs0"] == slab_of["c2_grad_inputs0"]

    def test_zero_def_indices_align_with_executed_order(self):
        """The planner's zero-def step indices are computed on the
        *reordered* item list and consumed by the executor against the
        compiled step list — the two must agree: no earlier backward
        step may touch a zero-def'd buffer (reading it would see stale
        slab bytes the scheduled zero has not yet cleared)."""
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
        assert "memplan-pooled" in report.checks
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


def _mse_forward(ins, ctx):
    return float(0.5 * ((ins[0] - ins[1]) ** 2).mean())


def _mse_backward_reads_ins(in_grads, ins, ctx):
    in_grads[0] += (ins[0] - ins[1]) / ins[0].size


def _extern_net(norm=None, custom_loss=False, **init_kw):
    """data(12) -> fc1(16) -> [norm] -> fc2(32) -> fc3(16) -> ip(4) ->
    loss: wide-narrow-wide, so that a value buffer the planner believes
    dead after the forward pass is overlaid by a later tenant."""
    from repro.core import LossEnsemble, NormalizationEnsemble

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
        loss = LossEnsemble(net, "loss", _mse_forward, _mse_backward_reads_ins)
        net.add_connections(ip, loss, one_to_one(1))
        net.add_connections(label, loss, one_to_one(1))
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
            liveness, "_mandatory_keep_ensembles",
            lambda net: {e.name for e in net.ensembles.values()
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
