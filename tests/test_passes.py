"""Tests for the optimization passes: GEMM pattern matching, first-writer
forwarding, tiling, copy inlining, and cross-layer fusion (§5.4)."""

import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import Net
from repro.ir import Assign, BinOp, Const, Gemm, Index, Var
from repro.layers import (
    ConvolutionLayer,
    FullyConnectedLayer,
    LSTMLayer,
    MaxPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLayer,
    SoftmaxLossLayer,
)
from repro.optim import CompilerOptions
from repro.optim.pipeline import PASS_LEVELS
from repro.optim.pattern_match import match_gemm
from repro.runtime import ComputeProfile, distributed, reduction_points
from repro.synthesis.units import FusedGroup, LoopSpec, LoopUnit, UnitTags
from repro.testing.oracle import batch_tiles
from repro.trace import RecordingTracer


def _unit(loops, stmt):
    return LoopUnit([LoopSpec.simple(v, n) for v, n in loops], stmt,
                    UnitTags(ensemble="e"))


def _mac(c, a, b):
    return Assign(c, BinOp("*", a, b), reduce="add")


class TestGemmMatching:
    def test_fc_forward_matches(self):
        stmt = _mac(
            Index("y", (Var("n"), Var("o"))),
            Index("x", (Var("n"), Var("i"))),
            Index("w", (Var("i"), Var("o"))),
        )
        out = match_gemm(_unit([("n", 4), ("o", 5), ("i", 6)], stmt))
        assert out is not None
        gemm = out.stmt
        assert isinstance(gemm, Gemm)
        # letters assigned in loop order: n→a, o→b, i→c
        assert gemm.subscripts == "ac,cb->ab"
        assert out.loops == []

    def test_conv_forward_matches(self):
        stmt = _mac(
            Index("v", (Var("n"), Var("c"), Var("y"), Var("x"))),
            Index("w", (Var("i"), Var("c"))),
            Index("inb", (Var("n"), Var("i"), Var("y"), Var("x"))),
        )
        out = match_gemm(
            _unit([("n", 2), ("c", 4), ("y", 8), ("x", 8), ("i", 27)], stmt)
        )
        assert out is not None
        m, nn, k = out.stmt.mnk
        # A = weights → M covers its free var c; B = im2col → N = n*y*x
        assert (m, nn, k) == ("4", "128", "27")

    def test_plain_add_not_matched(self):
        stmt = Assign(Index("y", (Var("n"),)), Index("x", (Var("n"),)),
                      reduce="add")
        assert match_gemm(_unit([("n", 4)], stmt)) is None

    def test_nonpure_axis_not_matched(self):
        from repro.ir import add, mul

        stmt = _mac(
            Index("y", (Var("n"),)),
            Index("x", (add(mul(2, Var("n")), Var("i")),)),
            Index("w", (Var("i"),)),
        )
        assert match_gemm(_unit([("n", 4), ("i", 3)], stmt)) is None

    def test_output_only_var_not_matched(self):
        stmt = _mac(
            Index("y", (Var("n"), Var("z"))),
            Index("x", (Var("n"),)),
            Index("w", (Var("n"),)),
        )
        assert match_gemm(_unit([("n", 4), ("z", 3)], stmt)) is None

    def test_plain_store_not_matched(self):
        stmt = Assign(
            Index("y", (Var("n"),)),
            BinOp("*", Index("a", (Var("n"),)), Index("b", (Var("n"),))),
        )
        assert match_gemm(_unit([("n", 4)], stmt)) is None


def _init(net, opts=None):
    """Compile under batch tiles: at this tiny geometry the default
    staging budget would leave every chain whole."""
    with batch_tiles():
        return net.init(opts or CompilerOptions())


def _cnn(batch=2, opts=None):
    net = Net(batch)
    d = MemoryDataLayer(net, "data", (3, 8, 8))
    conv = ConvolutionLayer("conv1", net, d, 4, 3, pad=1)
    relu = ReLULayer("relu1", net, conv)
    pool = MaxPoolingLayer("pool1", net, relu, 2, 2)
    return _init(net, opts)


def _assert_last_writers(cn, points):
    """Each reduction point is the last backward step that writes one of
    its ensemble's parameter gradients."""
    steps = cn.compiled.backward
    for idx, ens, grads in points:
        assert grads == tuple(p.grad_buf for p in cn.plan.params
                              if p.ensemble == ens)
        bases = {cn.plan.resolve_alias(g) for g in grads}
        assert steps[idx].writes & bases
        assert not any(s.writes & bases for s in steps[idx + 1:])


class TestPipelineStructure:
    def test_cross_layer_fusion_single_group(self):
        cn = _cnn()
        labels = [s.label for s in cn.compiled.forward]
        fused = [l for l in labels if "conv1" in l and "pool1" in l]
        assert fused, f"conv/relu/pool not fused: {labels}"

    def test_poolinput_buffer_eliminated(self):
        cn = _cnn()
        assert "pool1_inputs0" not in cn.buffers
        assert "pool1_grad_inputs0" not in cn.buffers

    def test_unfused_keeps_pool_buffer(self):
        cn = _cnn(opts=CompilerOptions.level(2))
        assert "pool1_inputs0" in cn.buffers

    def test_chains_under_the_staging_budget_stay_untiled(self):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 8, 8))
        ConvolutionLayer("conv1", net, d, 4, 3, pad=1)
        cn = net.init(CompilerOptions())
        assert "# tile loop" not in cn.source
        assert cn.compile_report["tiling"].rewrites["units_tiled"] == 0

    def test_inplace_relu_shares_value(self):
        cn = _cnn()
        assert cn.buffers["relu1_value"] is cn.buffers["conv1_value"]

    def test_normalization_is_fusion_barrier(self):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 8, 8))
        conv = ConvolutionLayer("conv1", net, d, 4, 3, pad=1)
        sm = SoftmaxLayer("sm", net, conv)
        cn = _init(net)
        labels = [s.label for s in cn.compiled.forward]
        assert any("sm" in l and "conv1" not in l for l in labels)

    def test_conv_conv_not_fused(self):
        """The paper's VGG group-4 limit (§7.1.2): it refuses conv → conv
        for the overlap of 3x3 windows along its tiled ``y``. Under batch
        tiles each conv layer is a chain of its own (``tags.chain``), and
        a group never spans two chains."""
        net = Net(2)
        d = MemoryDataLayer(net, "data", (3, 8, 8))
        c1 = ConvolutionLayer("c1", net, d, 4, 3, pad=1)
        c2 = ConvolutionLayer("c2", net, c1, 4, 3, pad=1)
        cn = _init(net)
        assert cn.compile_report["fusion"].rewrites["fused_groups"] > 0
        for step in cn.compiled.forward:
            assert not ("c1" in step.label and "c2.co" in step.label), (
                step.label
            )

    def test_first_writer_drops_fill(self):
        cn = _cnn()
        # no zero-fill of conv1_value survives: the GEMM stores directly
        assert "conv1_value[" not in [
            line
            for line in cn.source.splitlines()
            if "= 0.0" in line and "conv1_value" in line
        ]
        assert "conv1.fill" not in " ".join(
            s.label for s in cn.compiled.forward
        )

    def test_first_writer_skips_grad_zeroing(self):
        cn = _cnn()
        spec = cn.plan.buffers["conv1_grad_inputs0"]
        assert spec.needs_zero is False

    def test_tile_loop_in_source(self):
        cn = _cnn()
        assert "for _n_t in range(" in cn.source  # sharded or not
        assert cn.compile_report["tiling"].rewrites["units_tiled"] > 0

    def test_comm_calls_after_each_param_ensemble(self):
        net = Net(2)
        d = MemoryDataLayer(net, "data", (6,))
        fc1 = FullyConnectedLayer("fc1", net, d, 5)
        fc2 = FullyConnectedLayer("fc2", net, fc1, 4)
        cn = net.init()
        points = reduction_points(cn)
        # reverse topological order
        assert [ens for _, ens, _ in points] == ["fc2", "fc1"]
        _assert_last_writers(cn, points)

    def test_opt_levels_ladder(self):
        o0 = CompilerOptions.level(0)
        assert o0.opt_level == 0
        assert not o0.runs("vectorize") and not o0.runs("fusion")
        o4 = CompilerOptions.level(4)
        assert o4 == CompilerOptions()
        assert all(o4.runs(p) for p in PASS_LEVELS)
        with pytest.raises(ValueError, match="opt_level"):
            CompilerOptions.level(9)


class TestReductionPoints:
    def test_time_unrolled_points_are_in_the_final_iteration(
            self, monkeypatch):
        T, B = 3, 2
        net = Net(B, time_steps=T)
        x = MemoryDataLayer(net, "data", (5,))
        lbl = MemoryDataLayer(net, "label", (1,))
        blk = LSTMLayer("rnn", net, x, 4)
        fc = FullyConnectedLayer("fc", net, blk.h, 3)
        SoftmaxLossLayer("loss", net, fc, lbl)
        # one thread: batch shards would read the ticking clock too
        cn = net.init(num_threads=1)
        points = reduction_points(cn)
        ensembles = [ens for _, ens, _ in points]
        # exactly one point per parameterised ensemble
        assert sorted(ensembles) == sorted({p.ensemble
                                            for p in cn.plan.params})
        _assert_last_writers(cn, points)
        # a clock that ticks once per read times every traced step at
        # one unit, so each issue fraction names its place on the
        # T x steps backward timeline: the final (t == 0) iteration
        ticks = itertools.count()
        monkeypatch.setattr(
            distributed, "RecordingTracer",
            lambda: RecordingTracer(clock=lambda: next(ticks)))
        rng = np.random.default_rng(0)
        inputs = {
            "data": rng.standard_normal((T, B, 5)).astype(np.float32),
            "label": rng.integers(0, 3, (T, B, 1)).astype(np.float32),
        }
        prof = ComputeProfile.measure(cn, inputs, repeats=1)
        n = len(cn.compiled.backward)
        assert [p.ensemble for p in prof.comm_points] == ensembles
        for p, (idx, _, _) in zip(prof.comm_points, points):
            assert p.issue_fraction == pytest.approx(
                ((T - 1) * n + idx + 1) / (T * n))


class TestCBackend:
    def test_paper_shaped_output(self):
        cn = _cnn()
        c = cn.c_source
        # Fig. 12: the fused group runs under one tile loop, its GEMM a
        # call on the operands in place
        at = c.index("/* conv1.pad_fill+conv1.pad+conv1.copy+conv1.compute")
        fused = c[at:c.index("\n}\n", at)]
        assert "for (long long _n_t = " in fused
        assert "_latte_gemm_rm(" in fused
        # the reduction points are read off the backward program
        points = reduction_points(cn)
        assert [ens for _, ens, _ in points] == ["conv1"]
        _assert_last_writers(cn, points)

    def test_c_source_has_both_directions(self):
        cn = _cnn()
        kernels = re.findall(r"^void _step_([fb])\d+\(", cn.c_source, re.M)
        assert "f" in kernels and "b" in kernels


class TestOptionCells:
    """Every configuration ``CompilerOptions`` accepts compiles a
    distinct program; every other one is rejected, naming its field."""

    LEVELS = range(-1, 6)
    BACKENDS = ("numpy", "c", "fortran")
    MODES = ("train", "inference", "predict")
    PRECISIONS = ("fp32", "fp16", "int8")

    def test_options_are_the_five_fields(self):
        """The opt level is the one pass switch: no per-pass field."""
        fields = [f.name for f in dataclasses.fields(CompilerOptions)]
        assert fields == ["opt_level", "memory_plan", "backend", "mode",
                          "precision"]

    @staticmethod
    def _violations(opt_level, memory_plan, backend, mode, precision):
        bad = set()
        if opt_level not in range(5):
            bad.add("opt_level")
        elif not memory_plan and opt_level < 3:
            bad.add("memory_plan")
        if backend not in ("numpy", "c"):
            bad.add("backend")
        if mode not in ("train", "inference"):
            bad.add("mode")
        if precision != "fp32" and (mode, backend) != ("inference", "numpy"):
            bad.add("precision")
        return bad

    def test_the_accepted_cells_are_closed(self):
        accepted = []
        for cell in itertools.product(self.LEVELS, (True, False),
                                      self.BACKENDS, self.MODES,
                                      self.PRECISIONS):
            bad = self._violations(*cell)
            try:
                CompilerOptions(*cell)
            except ValueError as e:
                assert bad, cell
                assert any(field in str(e) for field in bad), (cell, e)
            else:
                assert not bad, cell
                accepted.append(cell)
        passes = {cell[:2] for cell in accepted}
        rest = {cell[2:] for cell in accepted}
        assert len(passes) == 7 and len(rest) == 6
        assert len(accepted) == 42 == len(passes) * len(rest)

    def test_accepted_pass_cells_differ(self):
        ran = set()
        for opt_level, memory_plan in itertools.product(range(5),
                                                        (True, False)):
            if opt_level < 3 and not memory_plan:
                continue
            opts = CompilerOptions(opt_level, memory_plan)
            ran.add(frozenset(p for p in PASS_LEVELS if opts.runs(p)))
        assert len(ran) == 7


class TestOneTileAxis:
    """Structure: the batch is the one tile axis — the y tiler, its
    option and its tile metadata stay deleted."""

    ROOT = Path(__file__).resolve().parents[1]
    GONE = ("min_tile_rows", "N_TILES", "MIN_TILE_ROWS", "TILE_DIM",
            "TileInfo", "dep_distance")

    def test_y_tiler_names_are_gone(self):
        files = [p for top in ("src", "docs", "examples")
                 for p in sorted((self.ROOT / top).rglob("*"))
                 if p.suffix in (".py", ".md")]
        files += sorted((self.ROOT / "benchmarks").glob("*.py"))
        files += [p for p in sorted((self.ROOT / ".claude").rglob("*"))
                  if p.is_file()]
        assert len(files) > 50
        for path in files:
            text = path.read_text()
            for name in self.GONE:
                assert name not in text, f"{path} mentions {name}"
