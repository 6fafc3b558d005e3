"""Window copies as one NumPy operation: several chosen loop variables
index one buffer axis (``s*oy + ky``, ``c*121 + 11*ky + kx``) through
one strided view.

Each net compiles at O4 on NumPy with batch tiling engaged (one image
per tile). Every gather, re-gather and max-pool forward unit lowers
with no Python loop over a window offset and computes the O0
interpreter's bits; a col2im scatter whose window is wider than its
stride loops over its stride phases only (``ceil(k/s)`` per axis), in
the per-offset order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.c_backend import env_shape
from repro.codegen.exprs import render, render_plain_index
from repro.codegen.python_backend import _HELPERS, lowered_units
from repro.codegen.vectorize import lower_unit_scalar, lower_unit_vector
from repro.ir import Assign, Index, Var, add, mul
from repro.optim import CompilerOptions
from repro.synthesis.access import unit_accesses
from repro.synthesis.units import LoopSpec, LoopUnit, UnitTags
from repro.testing.digest import ledger_net
from repro.testing.generator import NetSpec, build_net
from repro.testing.oracle import batch_tiles
from repro.utils.rng import seed_all


def _conv(kernel, stride, pad=0):
    return {"kind": "conv", "filters": 4, "kernel": kernel, "stride": stride,
            "pad": pad}


#: name -> (input shape, layers, window, stride)
CASES = {
    "k>s": ((3, 13, 13), (_conv(5, 2),), 5, 2),
    "k=s": ((3, 12, 12), (_conv(2, 2),), 2, 2),
    "k<s": ((3, 11, 11), (_conv(2, 3),), 2, 3),
    "padded": ((3, 9, 9), (_conv(3, 2, pad=1),), 3, 2),
    "maxpool3s2": ((3, 11, 11), (
        {"kind": "pool", "mode": "max", "kernel": 3, "stride": 2, "pad": 0},
        _conv(3, 1)), 3, 2),
    "conv11s4": ((3, 27, 27), (_conv(11, 4),), 11, 4),
}


def _compiled(name):
    shape, layers, _, _ = CASES[name]
    spec = NetSpec(seed=3, batch=2, input_shape=shape, classes=3,
                   layers=layers)
    seed_all(spec.seed)
    with batch_tiles():
        return build_net(spec).init(CompilerOptions(opt_level=4))


def _units(cnet):
    """``(phase, tile loop, unit)`` of every loop-nest unit as the
    NumPy backend emits it."""
    fwd, bwd = cnet.compiled.schedule
    for phase, items in (("forward", fwd), ("backward", bwd)):
        for group in items:
            tile, units = lowered_units(group)
            for unit in units:
                if isinstance(unit.stmt, Assign):
                    yield phase, tile, unit


def _gathers(cnet):
    """Gathers, re-gathers and max-pool forwards, and the backward
    recompute of a max pool's value."""
    return [(tile, u) for phase, tile, u in _units(cnet)
            if u.tags.kind in ("copy", "regather")
            or (u.stmt.reduce == "max" and "pool" in u.tags.ensemble
                and (phase == "forward" or u.tags.kind == "recompute"))]


def _run(tile, unit, lower, bufs):
    """Execute one lowered unit (under its group's tile loop) on
    ``bufs`` with the generated program's helpers."""
    lowered = lower(unit)
    lines, pad = [], ""
    for sp in ([tile] if tile is not None else []) + lowered.scalar_loops:
        bounds = (render(e, render_plain_index, vector=False)
                  for e in (sp.start, sp.stop))
        lines.append(f"{pad}for {sp.var} in range({', '.join(bounds)}):")
        pad += "    "
    lines.append(pad + lowered.line)
    exec(compile("\n".join(lines), "<unit>", "exec"),
         dict(vars(_HELPERS), **bufs))


def _same_as_interpreter(cnet, tile, unit):
    plan = cnet.plan
    rng = np.random.default_rng(0)
    bufs = {name: rng.standard_normal(env_shape(plan, plan.buffers[name],
                                                plan.time_steps))
            .astype(np.float32)
            for name in {name for name, _ in unit_accesses(unit)}}
    scalar = {name: a.copy() for name, a in bufs.items()}
    _run(tile, unit, lower_unit_vector, bufs)
    _run(tile, unit, lower_unit_scalar, scalar)
    for name in bufs:
        assert bufs[name].tobytes() == scalar[name].tobytes(), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_gathers_loop_over_no_window_offset(name):
    cnet = _compiled(name)
    try:
        assert cnet.compile_report["tiling"].rewrites["units_tiled"] > 0
        gathers = _gathers(cnet)
        assert gathers
        for tile, unit in gathers:
            lowered = lower_unit_vector(unit)
            assert not [sp.var for sp in lowered.scalar_loops
                        if sp.role == "window"]
            if unit.stmt.reduce == "max":
                # reduced in whole rows: window dims leading, contiguous
                assert "_np.ascontiguousarray(_window(" in lowered.line
                assert ".max(axis=(0, 1))" in lowered.line
            _same_as_interpreter(cnet, tile, unit)
        assert "_window(" in cnet.source
    finally:
        cnet.close()


@pytest.mark.parametrize("name", sorted(set(CASES) - {"maxpool3s2"}))
def test_a_scatter_loops_over_its_stride_phases(name):
    """The col2im scatter keeps a Python loop per window axis only
    where the window is wider than the stride: ``ceil(k/s)`` phases;
    k <= s scatters in one operation — each element's sum bitwise the
    interpreter's, which adds the window offsets outermost too."""
    _, _, k, s = CASES[name]
    cnet = _compiled(name)
    try:
        scatters = [(tile, u) for phase, tile, u in _units(cnet)
                    if u.tags.kind == "scatter"]
        assert scatters
        for tile, unit in scatters:
            loops = lower_unit_vector(unit).scalar_loops
            if k <= s:
                assert loops == []
            else:
                assert [sp.var[-2:] for sp in loops] == ["_q", "_q"]
                assert [sp.extent for sp in loops] == [-(-k // s)] * 2
            _same_as_interpreter(cnet, tile, unit)
    finally:
        cnet.close()


def test_a_max_pool_backward_keeps_its_offset_loops():
    """Every operand of a max pool's backward holds the window offset on
    its output position's axis, so NumPy would iterate the offset
    innermost: it keeps one operation per window offset. (The backward
    recompute of the pool's value reduces too, as its forward does.)"""
    cnet = _compiled("maxpool3s2")
    try:
        (unit,) = [u for phase, _, u in _units(cnet) if phase == "backward"
                   and u.tags.ensemble == "L0_pool"
                   and u.tags.kind == "compute" and u.stmt.reduce]
        loops = lower_unit_vector(unit).scalar_loops
        assert [sp.role for sp in loops] == ["window", "window"]
        assert [sp.extent for sp in loops] == [3, 3]
    finally:
        cnet.close()


def test_alexnet_conv1_runs_nine_scatter_operations_per_tile():
    """The ledger's alexnet tiles its 11x11 stride-4 conv1 one image at a
    time, and its col2im scatter is 3x3 phase operations a tile."""
    cnet = ledger_net("alexnet").init(CompilerOptions(opt_level=4))
    try:
        (step,) = [s for s in cnet.compiled.backward
                   if s.label == "conv1.compute+conv1.scatter"]
        (group,) = [g for g in cnet.compiled.schedule[1]
                    if g.label == step.label]
        tile, units = lowered_units(group)
        assert tile.extent == 8  # one image per tile
        (scatter,) = [u for u in units if u.tags.kind == "scatter"]
        loops = lower_unit_vector(scatter).scalar_loops
        assert math.prod(sp.extent for sp in loops) == 9
        assert step.ops == 8 * (1 + 9)  # the GEMM and the scatter
    finally:
        cnet.close()


@pytest.mark.parametrize("contiguous", [True, False])
def test_a_window_is_a_view_that_stays_inside_its_buffer(contiguous):
    a = np.arange(40.0).reshape(4, 10)
    a = a[:, :5] if not contiguous else np.ascontiguousarray(a[:, :5])
    view = _HELPERS._window(a, (1, 0), (2, 3), ((0, 2), (1, 1)))
    np.testing.assert_array_equal(view, [[10, 11, 12], [30, 31, 32]])
    view[...] = -1
    assert (a[1::2, :3] == -1).all()
    # s*oy + ky: overlapping windows share elements
    rows = _HELPERS._window(a, (0, 1), (3, 2), ((1, 1), (1, 1)))
    np.testing.assert_array_equal(rows, a[0, 1:3] + [[0, 0], [1, 1], [2, 2]])
    with pytest.raises(IndexError):
        _HELPERS._window(a, (1, 3), (2, 3), ((0, 2), (1, 1)))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 7), s=st.integers(2, 4), m=st.integers(1, 5),
       seed=st.integers(0, 1000))
def test_a_phase_split_scatter_adds_in_the_interpreters_order(k, s, m, seed):
    """``y[a, s*b + w] += x[a, w, b]``, window offsets outer as in a
    conv scatter: ``ceil(k/s)`` operations when the window overlaps,
    each element's sum bitwise the interpreter's."""
    loops = [LoopSpec.simple("a", 3), LoopSpec.simple("w", k, "window"),
             LoopSpec.simple("b", m)]
    stmt = Assign(Index("y", (Var("a"), add(mul(s, Var("b")), Var("w")))),
                  Index("x", (Var("a"), Var("w"), Var("b"))), reduce="add")
    unit = LoopUnit(loops, stmt, UnitTags())
    rng = np.random.default_rng(seed)
    bufs = {"y": rng.standard_normal((3, s * (m - 1) + k)).astype(np.float32),
            "x": rng.standard_normal((3, k, m)).astype(np.float32)}
    scalar = {name: a.copy() for name, a in bufs.items()}
    lowered = lower_unit_vector(unit)
    overlap = k > s and m > 1
    assert math.prod(sp.extent for sp in lowered.scalar_loops) == (
        math.ceil(k / s) if overlap else 1)
    _run(None, unit, lower_unit_vector, bufs)
    _run(None, unit, lower_unit_scalar, scalar)
    assert bufs["y"].tobytes() == scalar["y"].tobytes()
