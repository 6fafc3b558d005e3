"""Loop-nest vectorization: scalar loops → NumPy slice/ufunc operations.

In the paper, Latte emits loop-structured C++ annotated with ``#pragma
simd``-style hints and relies on ICC to vectorize (§5.5). In this Python
reproduction the equivalent lowering is performed by the compiler itself:
a scalar loop nest around a single assignment is rewritten so that a
*chosen subset* of loop variables becomes NumPy slices executed as one
array operation, while the remaining loops stay as (few, small) Python
loops.

Selection rules (per :class:`~repro.synthesis.units.LoopUnit`):

* a variable is *sliceable* if, in every buffer axis where it occurs, the
  axis index is affine in it with positive coefficient, it occurs in at
  most one axis per buffer, and the relative order of its axes against
  other chosen variables matches loop order in every buffer (so the
  resulting arrays broadcast without transposes — synthesis lays buffers
  out to satisfy this);
* a variable absent from the assignment target may only be chosen when
  the statement is a reduction (``+=`` / ``max=`` / ``min=``), becoming a
  ``sum``/``max``/``min`` over that result axis;
* the product of chosen extents is capped so reductions cannot allocate
  unbounded temporaries — over the cap, outer reduction loops remain
  scalar.

Every buffer reference is padded with ``None`` (newaxis) entries so all
operands carry the full chosen rank in loop order; broadcasting then
aligns them exactly, and reduction axes are positions in that rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.codegen.exprs import (NonAffine, extract_affine, render,
                                 render_plain_index)
from repro.ir import (
    Assign,
    Call,
    Const,
    Expr,
    Index,
    Var,
    add,
    free_vars,
    map_expr,
    mul,
    substitute,
    substitute_stmt,
    walk_exprs,
)
from repro.synthesis.units import LoopSpec, LoopUnit

#: cap on elements of the broadcast temporary a reduction may allocate
VECTOR_TEMP_CAP = 1 << 24


@dataclass
class LoweredUnit:
    """A unit after vectorization: remaining scalar loops + one line."""

    scalar_loops: List[LoopSpec]
    line: str


def _drop_unit_extent_loops(unit: LoopUnit) -> LoopUnit:
    """Substitute away loops with trip count 1."""
    loops, bindings = [], {}
    for sp in unit.loops:
        if sp.extent == 1 and isinstance(sp.start, Const):
            bindings[sp.var] = sp.start
        else:
            loops.append(sp)
    stmt = substitute_stmt(unit.stmt, bindings) if bindings else unit.stmt
    return LoopUnit(loops, stmt, unit.tags)


def _indices_of(stmt: Assign) -> List[Index]:
    """Top-level buffer references of the assignment (target + value).

    Nested Index nodes (buffers used inside index expressions) are
    treated as opaque and block vectorization of their variables."""
    refs = []
    if isinstance(stmt.target, Index):
        refs.append(stmt.target)
    refs.extend(
        e
        for e in walk_exprs(stmt.value)
        if isinstance(e, Index)
    )
    return refs


def _axes_with_var(ref: Index, var: str) -> List[int]:
    return [
        a for a, ix in enumerate(ref.indices) if var in free_vars(ix)
    ]


def _choose_vars(unit: LoopUnit) -> Tuple[List[str], List[str]]:
    """Greedy selection of vectorizable loop variables.

    Returns ``(chosen, reduction)`` where both preserve loop order and
    ``reduction ⊆ chosen``.
    """
    stmt = unit.stmt
    assert isinstance(stmt, Assign)
    refs = _indices_of(stmt)
    target = stmt.target if isinstance(stmt.target, Index) else None
    tvars = free_vars(target) if target is not None else set()

    order = unit.loop_vars()
    pos = {v: i for i, v in enumerate(order)}
    chosen: List[str] = []
    reduction: List[str] = []
    size = 1

    for sp in sorted(unit.loops, key=lambda s: -s.extent):
        v = sp.var
        in_target = v in tvars
        if not in_target:
            if stmt.reduce not in ("add", "max", "min"):
                continue
        if size * sp.extent > VECTOR_TEMP_CAP:
            continue
        ok = True
        for ref in refs:
            axes = _axes_with_var(ref, v)
            if len(axes) > 1:
                ok = False
                break
            for a in axes:
                ix = ref.indices[a]
                # must be a top-level affine expression (no nested Index)
                if any(isinstance(e, Index) for e in walk_exprs(ix)):
                    ok = False
                    break
                try:
                    coeff, _ = extract_affine(ix, v)
                except NonAffine:
                    ok = False
                    break
                if coeff <= 0:
                    ok = False
                    break
                # no other already-chosen var may share this axis
                others = free_vars(ix) - {v}
                if others & set(chosen):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        chosen.append(v)
        size *= sp.extent
        if not in_target:
            reduction.append(v)

    chosen.sort(key=pos.get)
    reduction.sort(key=pos.get)
    return chosen, reduction


def _slice_str(ix: Expr, var: str, sp: LoopSpec, scalar_render) -> str:
    """Render axis expression affine in ``var`` as a strided slice."""
    coeff, rest = extract_affine(ix, var)
    start = add(rest, mul(coeff, sp.start))
    stop = add(add(rest, mul(coeff, add(sp.stop, Const(-1)))), Const(1))
    s0, s1 = scalar_render(start), scalar_render(stop)
    return f"{s0}:{s1}" if coeff == 1 else f"{s0}:{s1}:{coeff}"


def render_vector_index(
    ref: Index, chosen: List[str], loops: Dict[str, LoopSpec], scalar_render
) -> str:
    """Render an *operand* buffer access: slices for chosen vars, newaxis
    padding for missing ones, and a (free) transposed view whenever the
    buffer's axis order differs from loop order — so every operand
    carries all chosen dims, in loop order, and broadcasting aligns."""
    parts: List[str] = []
    axis_vars: List[str] = []  # chosen vars in the order their axes appear
    for ix in ref.indices:
        vars_here = [v for v in chosen if v in free_vars(ix)]
        if vars_here:
            v = vars_here[0]
            axis_vars.append(v)
            parts.append(_slice_str(ix, v, loops[v], scalar_render))
        else:
            parts.append(scalar_render(ix))
    dims_order = axis_vars + [v for v in chosen if v not in axis_vars]
    parts.extend("None" for _ in range(len(dims_order) - len(axis_vars)))
    src = f"{ref.buffer}[{', '.join(parts)}]" if parts else ref.buffer
    perm = tuple(dims_order.index(v) for v in chosen)
    if perm != tuple(range(len(perm))):
        src = f"{src}.transpose({perm})"
    return src


def render_target_index(
    ref: Index, chosen: List[str], loops: Dict[str, LoopSpec], scalar_render
) -> Tuple[str, List[str]]:
    """Render the assignment *target*: slices only, no padding.

    Returns the source string and the chosen vars in the target's own
    axis order (so the caller can transpose the RHS to match)."""
    parts: List[str] = []
    axis_vars: List[str] = []
    for ix in ref.indices:
        vars_here = [v for v in chosen if v in free_vars(ix)]
        if vars_here:
            v = vars_here[0]
            axis_vars.append(v)
            parts.append(_slice_str(ix, v, loops[v], scalar_render))
        else:
            parts.append(scalar_render(ix))
    src = f"{ref.buffer}[{', '.join(parts)}]" if parts else ref.buffer
    return src, axis_vars


def _scalar_render(e: Expr) -> str:
    """A scalar subexpression of a vectorized statement: plain
    subscripts, array intrinsics."""
    return render(e, _plain_ix, vector=True)


def _plain_ix(ref: Index) -> str:
    inner = ", ".join(_scalar_render(i) for i in ref.indices)
    return f"{ref.buffer}[{inner}]" if ref.indices else ref.buffer


def lower_unit_vector(unit: LoopUnit) -> LoweredUnit:
    """Vectorize one unit; remaining loops stay scalar."""
    unit = _drop_unit_extent_loops(unit)
    stmt = unit.stmt
    if not isinstance(stmt, Assign):
        raise TypeError("lower_unit_vector expects Assign units")
    chosen, reduction = _choose_vars(unit)
    loops = {sp.var: sp for sp in unit.loops}
    scalar_loops = [sp for sp in unit.loops if sp.var not in chosen]

    def vec_ix(ref: Index) -> str:
        return render_vector_index(ref, chosen, loops, _scalar_render)

    # a dropout mask's neuron index reads chosen loop variables as
    # values: they are spelled as broadcast aranges
    aranges = {v: Var(
        f"_np.arange({_scalar_render(loops[v].start)}, "
        f"{_scalar_render(loops[v].stop)})"
        f"[{', '.join(':' if u == v else 'None' for u in chosen)}]")
        for v in chosen}

    def spell(e):
        if isinstance(e, Call) and e.func == "dropout":
            x, index, *consts = e.args
            return Call(e.func, (x, substitute(index, aranges), *consts))

    rhs = render(map_expr(spell, stmt.value), vec_ix, vector=True)
    has_arrays = any(isinstance(e, Index) for e in walk_exprs(stmt.value))
    red_axes = tuple(chosen.index(v) for v in reduction)
    kept = [v for v in chosen if v not in reduction]

    if isinstance(stmt.target, Index):
        tgt, tgt_axis_vars = render_target_index(
            stmt.target, chosen, loops, _scalar_render
        )
    else:
        tgt, tgt_axis_vars = stmt.target.name, []

    def reduce_and_align(expr: str, how: str) -> str:
        """Apply the reduction over red_axes and transpose the result to
        the target's own axis order when it differs from loop order."""
        if red_axes:
            expr = f"({expr}).{how}(axis={red_axes})"
        if has_arrays and tgt_axis_vars and tgt_axis_vars != kept:
            perm = tuple(kept.index(v) for v in tgt_axis_vars)
            expr = f"_np.transpose({expr}, {perm})"
        return expr

    if stmt.reduce is None:
        line = f"{tgt} = {reduce_and_align(rhs, 'sum')}"
    elif stmt.reduce == "add":
        if red_axes and not has_arrays:
            count = 1
            for v in reduction:
                count *= loops[v].extent
            rhs = f"({rhs}) * {count}"
            line = f"{tgt} += {rhs}"
        else:
            line = f"{tgt} += {reduce_and_align(rhs, 'sum')}"
    elif stmt.reduce == "mul":
        line = f"{tgt} *= {reduce_and_align(rhs, 'prod')}"
    elif stmt.reduce in ("max", "min"):
        fn = "_np.maximum" if stmt.reduce == "max" else "_np.minimum"
        rfn = "max" if stmt.reduce == "max" else "min"
        rhs = reduce_and_align(rhs, rfn)
        # out= needs an array view: only valid when the target itself
        # keeps a vectorized axis, not merely when the rhs does (a fully
        # scalar-indexed target is a 0-d extraction, not a view)
        if tgt_axis_vars:
            line = f"{fn}({tgt}, {rhs}, out={tgt})"
        else:
            line = f"{tgt} = {fn}({tgt}, {rhs})"
    else:  # pragma: no cover
        raise ValueError(f"unknown reduce {stmt.reduce!r}")
    return LoweredUnit(scalar_loops, line)


def lower_unit_scalar(unit: LoopUnit) -> LoweredUnit:
    """O0 oracle: every loop stays a Python loop (element-at-a-time)."""
    unit = _drop_unit_extent_loops(unit)
    stmt = unit.stmt
    if not isinstance(stmt, Assign):
        raise TypeError("lower_unit_scalar expects Assign units")
    tgt = (render_plain_index(stmt.target) if isinstance(stmt.target, Index)
           else stmt.target.name)
    rhs = render(stmt.value, render_plain_index, vector=False)
    if stmt.reduce is None:
        line = f"{tgt} = {rhs}"
    elif stmt.reduce == "add":
        line = f"{tgt} += {rhs}"
    elif stmt.reduce == "mul":
        line = f"{tgt} *= {rhs}"
    elif stmt.reduce == "max":
        line = f"{tgt} = max({tgt}, {rhs})"
    elif stmt.reduce == "min":
        line = f"{tgt} = min({tgt}, {rhs})"
    else:  # pragma: no cover
        raise ValueError(stmt.reduce)
    return LoweredUnit(list(unit.loops), line)
