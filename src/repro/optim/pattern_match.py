"""Library-kernel pattern matching (§5.4.1).

Latte pattern-matches synthesized loop nests against matrix
multiplication and replaces them with a library GEMM call (the paper uses
MKL ``sgemm``; we lower to BLAS-backed ``np.matmul``). A unit matches
when it is a multiply-accumulate::

    for v0, v1, ... :
        C[...] += A[...] * B[...]

where every buffer axis is either a constant or exactly one loop
variable. The loop variables then classify as:

* contraction (K): appear in A and/or B but not in C;
* free (M/N): appear in C and at least one operand.

The generalized contraction is encoded as einsum subscripts computed at
compile time, e.g. the convolution of Fig. 9 becomes
``'niyx,ic->ncyx'`` — the flattened ``gemm('T','N', h*w, n_filters,
n_inputs, ...)`` call of §5.4.1 over the same data.
"""

from __future__ import annotations

import string
from typing import List, Optional

from repro.ir import Assign, BinOp, Const, Gemm, Index, SliceExpr, Var
from repro.synthesis.units import LoopUnit, Section


def _pure_axes(ref: Index) -> Optional[List[Optional[str]]]:
    """Per-axis: variable name for pure ``Var`` axes, None for consts;
    overall None when any axis is neither."""
    out: List[Optional[str]] = []
    for ix in ref.indices:
        if isinstance(ix, Var):
            out.append(ix.name)
        elif isinstance(ix, Const):
            out.append(None)
        else:
            return None
    return out


def match_gemm(unit: LoopUnit) -> Optional[LoopUnit]:
    """Return a Gemm unit replacing ``unit``, or None when no match."""
    stmt = unit.stmt
    if not (isinstance(stmt, Assign) and stmt.reduce == "add"):
        return None
    if not (
        isinstance(stmt.value, BinOp)
        and stmt.value.op == "*"
        and isinstance(stmt.value.left, Index)
        and isinstance(stmt.value.right, Index)
        and isinstance(stmt.target, Index)
    ):
        return None
    a_ref, b_ref = stmt.value.left, stmt.value.right
    c_ref = stmt.target
    axes = {r: _pure_axes(ref) for r, ref in
            (("a", a_ref), ("b", b_ref), ("c", c_ref))}
    if any(v is None for v in axes.values()):
        return None

    loop_vars = unit.loop_vars()
    var_set = set(loop_vars)
    present = {r: [v for v in ax if v in var_set] for r, ax in axes.items()}
    # a loop var appearing twice in one ref cannot be a clean subscript
    for r in present.values():
        if len(r) != len(set(r)):
            return None
    all_present = set(present["a"]) | set(present["b"]) | set(present["c"])
    if set(loop_vars) - all_present:
        return None  # dead loop variable — not a contraction
    if set(present["c"]) - (set(present["a"]) | set(present["b"])):
        return None  # output var produced by neither operand

    letters = {}
    pool = iter(string.ascii_lowercase)
    for v in loop_vars:
        letters[v] = next(pool)

    def subs(r):
        return "".join(letters[v] for v in present[r])

    subscripts = f"{subs('a')},{subs('b')}->{subs('c')}"

    loops = {sp.var: sp for sp in unit.loops}
    var_axes: dict = {}

    def slice_ref(ref: Index, key: str) -> Index:
        new = []
        for axis, ix in enumerate(ref.indices):
            if isinstance(ix, Var) and ix.name in var_set:
                sp = loops[ix.name]
                new.append(SliceExpr(sp.start, sp.stop))
                var_axes.setdefault(ix.name, []).append((key, axis))
            else:
                new.append(ix)
        return Index(ref.buffer, tuple(new))

    a_s = slice_ref(a_ref, "a")
    b_s = slice_ref(b_ref, "b")
    c_s = slice_ref(c_ref, "c")

    contraction = [v for v in loop_vars if v not in present["c"]]
    m_vars = [v for v in present["c"] if v in present["a"] and v not in present["b"]]
    n_vars = [v for v in present["c"] if v in present["b"] and v not in present["a"]]

    def extent_prod(vs):
        p = 1
        for v in vs:
            p *= loops[v].extent
        return p

    gemm = Gemm(
        a_s,
        b_s,
        c_s,
        subscripts,
        accumulate=True,
        note=f"{unit.tags.ensemble} {unit.tags.direction} matmul",
        mnk=(
            str(extent_prod(m_vars)),
            str(extent_prod(n_vars)),
            str(extent_prod(contraction)),
        ),
        var_axes=var_axes,
        var_loops=dict(loops),
    )
    return LoopUnit([], gemm, unit.tags)


def run(sections: List[Section]) -> None:
    """Apply GEMM pattern matching to every unit of every section."""
    for sec in sections:
        sec.units = [
            (match_gemm(u) or u) if isinstance(u.stmt, Assign) else u
            for u in sec.units
        ]
