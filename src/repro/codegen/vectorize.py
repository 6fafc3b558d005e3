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
  axis index is affine in it with positive coefficient and it occurs in
  at most one axis per buffer;
* several chosen variables may index one axis (``s*oy + ky``,
  ``c*121 + 11*ky + kx``) of a statement that unrolls windows (im2col's
  gather, col2im's scatter) or takes their max or min (a max pool): that
  reference becomes one strided view with a dimension per variable (the
  prelude's ``_window``), and a max over it is taken from a contiguous
  copy with the window dims leading. On the target their map onto the
  axis must be one-to-one (the mixed-radix check); a window variable
  that overlaps the output variable striding past it is split into
  stride phases, ``w = s*q + r`` — ``q`` a Python loop, ``r``
  vectorized — so each element is still written in the per-offset
  order (:func:`_sharing` lists what keeps one variable per axis);
* a variable absent from the assignment target may only be chosen when
  the statement is a reduction (``+=`` / ``max=`` / ``min=``), becoming a
  ``sum``/``max``/``min`` over that result axis;
* the product of chosen extents is capped so reductions cannot allocate
  unbounded temporaries — over the cap, outer reduction loops remain
  scalar.

Every other buffer reference is padded with ``None`` (newaxis) entries
and transposed to loop order, so all operands carry the full chosen
rank in loop order; broadcasting then aligns them exactly, and
reduction axes are positions in that rank.
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
    mul,
    sub,
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


def _choose_vars(unit: LoopUnit, overlapping: Optional[set]
                 ) -> Tuple[List[str], List[str]]:
    """Greedy selection of vectorizable loop variables. ``overlapping``
    (:func:`_sharing`) is None where one chosen variable at most may
    index an axis, else the variables that must stay loops.

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
        if size * sp.extent > VECTOR_TEMP_CAP or v in (overlapping or ()):
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
                # no other already-chosen var may share this axis, unless
                # the reference becomes one strided view
                if overlapping is None and free_vars(ix) & set(chosen):
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


def _sharing(unit: LoopUnit) -> Tuple[LoopUnit, Optional[set]]:
    """May several chosen variables index one axis of ``unit``'s
    references? Returns the unit — its overlapping window variables
    split into stride phases — and the variables that must stay loops
    (:func:`_overlapping`), or None where they may not:

    * a sum over loop variables (average pooling): its per-offset order
      is part of its bits;
    * a statement that neither unrolls a window (:func:`_unrolls`) nor
      takes its max or min (a max pool's backward): NumPy would iterate
      its window offset, the unit stride of every operand, innermost —
      a k-element row at a time, 1.5x slower than k*k offset calls;
    * a target whose overlapping windows do not split (stride 1): it
      keeps its one-variable-per-axis lowering and its order.
    """
    stmt = unit.stmt
    if not isinstance(stmt.target, Index):
        return unit, None
    loop = set(unit.loop_vars())
    axes = [[free_vars(ix) & loop for ix in ref.indices]
            for ref in _indices_of(stmt)]
    if all(len(vs) < 2 for ref_axes in axes for vs in ref_axes):
        return unit, None  # no axis to share
    reduced = loop - free_vars(stmt.target)
    if (stmt.reduce not in ("max", "min") if reduced
            else not _unrolls(axes)):
        return unit, None
    overlapping = _overlapping(unit)
    if not overlapping:
        return unit, overlapping
    split = _split_phases(unit, overlapping)
    if split is None:
        return unit, None
    return split, _overlapping(split)


def _unrolls(axes: List[List[set]]) -> bool:
    """Does the statement move windows between a layout that holds
    variables on one axis and one that holds them apart — im2col's
    gather (``4*oy + ky`` into a row of its own), col2im's scatter? Every
    pair of loop variables sharing an axis somewhere is on two axes of
    another reference, which keeps the output position on a unit-stride
    axis of its own: the axis NumPy then iterates innermost. ``axes``
    holds each reference's loop variables, axis by axis."""

    def apart(ref_axes, u, v):
        at_u = [i for i, vs in enumerate(ref_axes) if u in vs]
        at_v = [i for i, vs in enumerate(ref_axes) if v in vs]
        return at_u and at_v and at_u != at_v

    pairs = {(u, v) for ref_axes in axes for vs in ref_axes
             for u in vs for v in vs if u < v}
    return all(any(apart(ref_axes, u, v) for ref_axes in axes)
               for u, v in pairs)


def _mixed_radix(terms: List[Tuple[int, int]]) -> bool:
    """Is ``sum(coeff * var)`` one-to-one over ``(coeff, extent)`` terms?
    It is when, by increasing coefficient, each coefficient steps past
    every value the smaller terms reach together."""
    span = 0
    for coeff, extent in sorted(terms):
        if coeff <= span:
            return False
        span += coeff * (extent - 1)
    return True


def _overlapping(unit: LoopUnit) -> set:
    """Target variables that must stay Python loops: on each target
    axis, the loop variables past the longest run whose map onto the
    axis is one-to-one — output positions first, then window offsets,
    each innermost first. Each array operation then writes an element
    at most once, and an element's writes come one per window offset,
    in the order of the per-offset loop."""
    pos = {sp.var: (sp.role == "window", -i)
           for i, sp in enumerate(unit.loops)}
    extent = {sp.var: sp.extent for sp in unit.loops}
    out = set()
    for ix in unit.stmt.target.indices:
        run = sorted(free_vars(ix) & pos.keys(), key=pos.get)
        terms = []
        for n, v in enumerate(run):
            try:
                terms.append((extract_affine(ix, v)[0], extent[v]))
            except NonAffine:
                terms.append((0, extent[v]))
            if not _mixed_radix(terms):
                out.update(run[n:])
                break
    return out


def _phase_stride(ix: Expr, sp: LoopSpec, beside: set) -> int:
    """How many steps of window loop ``sp`` the smallest stride of the
    loop variables ``beside`` it on target axis ``ix`` spans (``s`` of
    ``s*oy + w``); 0 when that does not cut its window into phases."""
    try:
        coeff = extract_affine(ix, sp.var)[0]
        stride = min(extract_affine(ix, v)[0] for v in beside)
    except (NonAffine, ValueError):
        return 0
    if coeff <= 0 or stride % coeff or not 1 < stride // coeff < sp.extent:
        return 0
    return stride // coeff


def _split_phases(unit: LoopUnit, overlapping: set) -> Optional[LoopUnit]:
    """Split each overlapping window variable ``w`` by the stride ``s``
    of the variables beside it: ``w = s*q + r``, the phase ``q`` a
    Python loop, the remainder ``r`` (below ``s``, one-to-one beside
    them) vectorized — ``ceil(k/s)`` array operations per axis instead
    of ``k``, in the per-offset order. None unless every overlapping
    variable splits."""
    target = unit.stmt.target
    loops, bindings = [], {}
    for sp in unit.loops:
        if sp.var not in overlapping:
            loops.append(sp)
            continue
        axes = _axes_with_var(target, sp.var)
        ix = target.indices[axes[0]]
        beside = free_vars(ix) & set(unit.loop_vars()) - overlapping
        s = _phase_stride(ix, sp, beside)
        if not (s and len(axes) == 1 and isinstance(sp.start, Const)):
            return None
        q, r = Var(f"{sp.var}_q"), Var(f"{sp.var}_r")
        phases = -(-sp.extent // s)
        stop = Const(s) if sp.extent % s == 0 else Call(
            "min", (Const(s), sub(Const(sp.extent), mul(s, q))))
        loops += [LoopSpec(q.name, Const(0), Const(phases), phases, sp.role),
                  LoopSpec(r.name, Const(0), stop, s, sp.role)]
        bindings[sp.var] = add(sp.start, add(mul(s, q), r))
    return LoopUnit(loops, substitute_stmt(unit.stmt, bindings), unit.tags)


def _windowed(ref: Index, dims: List[str]) -> bool:
    """Do several of ``dims`` index one axis of ``ref``?"""
    return any(len(set(dims) & free_vars(ix)) > 1 for ix in ref.indices)


def _window_view(ref: Index, dims: List[str],
                 loops: Dict[str, LoopSpec]) -> Optional[str]:
    """``ref`` as one strided view with a dimension per variable of
    ``dims`` (a length-1 one where it does not occur) — the prelude's
    ``_window`` — when several of them index one axis; else None."""
    if not _windowed(ref, dims):
        return None
    first = list(ref.indices)
    shape, steps = [], []
    for v in dims:
        axes = _axes_with_var(ref, v)
        if not axes:
            shape.append("1")
            steps.append((0, 0))
            continue
        coeff, rest = extract_affine(first[axes[0]], v)
        first[axes[0]] = add(rest, mul(coeff, loops[v].start))
        shape.append(_scalar_expr(sub(loops[v].stop, loops[v].start)))
        steps.append((axes[0], coeff))
    return (f"_window({ref.buffer}, {_tuple(map(_scalar_expr, first))}, "
            f"{_tuple(shape)}, {tuple(steps)})")


def _tuple(items) -> str:
    items = list(items)
    return f"({', '.join(items)}{',' * (len(items) == 1)})"


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
    view = _window_view(ref, chosen, loops)
    if view is not None:
        return view
    parts: List[str] = []
    axis_vars: List[str] = []  # chosen vars in the order their axes appear
    for ix in ref.indices:
        ix_vars = free_vars(ix)
        vars_here = [v for v in chosen if v in ix_vars]
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
    tvars = free_vars(ref)
    kept = [v for v in chosen if v in tvars]
    view = _window_view(ref, kept, loops)
    if view is not None:
        return f"{view}[...]", kept
    parts: List[str] = []
    axis_vars: List[str] = []
    for ix in ref.indices:
        ix_vars = free_vars(ix)
        vars_here = [v for v in chosen if v in ix_vars]
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


def _scalar_expr(e: Expr) -> str:
    return render(e, render_plain_index, vector=False)


def _plain_ix(ref: Index) -> str:
    inner = ", ".join(_scalar_render(i) for i in ref.indices)
    return f"{ref.buffer}[{inner}]" if ref.indices else ref.buffer


def lower_unit_vector(unit: LoopUnit) -> LoweredUnit:
    """Vectorize one unit; remaining loops stay scalar."""
    unit = _drop_unit_extent_loops(unit)
    if not isinstance(unit.stmt, Assign):
        raise TypeError("lower_unit_vector expects Assign units")
    unit, overlapping = _sharing(unit)
    chosen, reduction = _choose_vars(unit, overlapping)
    stmt = unit.stmt
    loops = {sp.var: sp for sp in unit.loops}
    scalar_loops = [sp for sp in unit.loops if sp.var not in chosen]
    kept = [v for v in chosen if v not in reduction]
    # NumPy reduces a window's stride-1 axis one k-element inner loop at
    # a time (a max pool 20x slower than its k*k maximum calls); copied
    # C-contiguous with the window dims leading, it reduces whole rows
    windowed = stmt.reduce in ("max", "min") and bool(reduction) and any(
        _windowed(ref, chosen) for ref in _indices_of(stmt))
    order = reduction + kept if windowed else chosen

    def vec_ix(ref: Index) -> str:
        return render_vector_index(ref, order, loops, _scalar_render)

    # a chosen loop variable read as a value (a label test, a dropout
    # mask's neuron index) is spelled as a broadcast arange
    aranges = {v: f"_np.arange({_scalar_render(loops[v].start)}, "
                  f"{_scalar_render(loops[v].stop)})"
                  f"[{', '.join(':' if u == v else 'None' for u in order)}]"
               for v in chosen}
    rhs = render(stmt.value, vec_ix, vector=True, names=aranges)
    has_arrays = any(isinstance(e, Index) for e in walk_exprs(stmt.value))
    red_axes = tuple(order.index(v) for v in reduction)

    if isinstance(stmt.target, Index):
        tgt, tgt_axis_vars = render_target_index(
            stmt.target, chosen, loops, _scalar_render
        )
    else:
        tgt, tgt_axis_vars = stmt.target.name, []

    def reduce_and_align(expr: str, how: str) -> str:
        """Apply the reduction over red_axes and transpose the result to
        the target's own axis order when it differs from loop order."""
        if windowed:
            expr = f"_np.ascontiguousarray({expr})"
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
