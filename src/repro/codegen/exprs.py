"""Shared expression rendering and affine-form extraction for codegen."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir import (
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    Index,
    NewAxis,
    SliceExpr,
    UnaryOp,
    Var,
    add,
    free_vars,
    mul,
)


class NonAffine(ValueError):
    """An index expression is not affine in the requested variable."""


def extract_affine(e: Expr, var: str) -> Tuple[int, Expr]:
    """Decompose ``e`` as ``coeff * var + rest`` with integer ``coeff``.

    ``rest`` may reference other variables. Raises :class:`NonAffine` when
    the decomposition does not exist (the variable under a nonlinear
    operator or multiplied by a non-constant).
    """
    if isinstance(e, Var):
        return (1, Const(0)) if e.name == var else (0, e)
    if isinstance(e, Const):
        return 0, e
    if isinstance(e, BinOp):
        if e.op == "+":
            cl, rl = extract_affine(e.left, var)
            cr, rr = extract_affine(e.right, var)
            return cl + cr, add(rl, rr)
        if e.op == "-":
            cl, rl = extract_affine(e.left, var)
            cr, rr = extract_affine(e.right, var)
            if isinstance(rr, Const) and rr.value == 0:
                return cl - cr, rl
            if isinstance(rr, Const) and isinstance(rl, Const):
                return cl - cr, Const(rl.value - rr.value)
            return cl - cr, BinOp("-", rl, rr)
        if e.op == "*":
            lv, rv = var in free_vars(e.left), var in free_vars(e.right)
            if lv and rv:
                raise NonAffine(f"{var} appears quadratically")
            if not lv and not rv:
                return 0, e
            scale, part = (e.right, e.left) if lv else (e.left, e.right)
            if not isinstance(scale, Const):
                raise NonAffine(f"{var} scaled by non-constant")
            c, r = extract_affine(part, var)
            return c * int(scale.value), mul(scale, r)
    if isinstance(e, UnaryOp) and e.op == "-":
        c, r = extract_affine(e.operand, var)
        return -c, UnaryOp("-", r)
    if var in free_vars(e):
        raise NonAffine(f"{var} under unsupported operator")
    return 0, e


#: splitmix64's output mix (Steele, Lea & Flood, OOPSLA 2014)
_MIX = ("z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9",
        "z = (z ^ (z >> 27)) * 0x94D049BB133111EB",
        "z = z ^ (z >> 31)")

#: the hash behind the ``dropout`` intrinsic's keep test: splitmix64
#: over the ensemble's constant ``salt``, the time step ``t``, the
#: forward's ``key`` and the neuron's flat ``index``, one statement a
#: line in unsigned 64-bit arithmetic. The lines are valid Python over
#: NumPy ``uint64`` arrays and valid C over ``unsigned long long``; the
#: NumPy prelude and the C header both print them, so the two backends
#: keep the same neurons
DROPOUT_HASH = ("z = salt * 0x9E3779B97F4A7C15 + t", *_MIX,
                "z = z ^ key", *_MIX,
                "z = z + (index + 1) * 0x9E3779B97F4A7C15", *_MIX)

_VEC_FUNCS = {
    "max": "_np.maximum",
    "min": "_np.minimum",
    "exp": "_np.exp",
    "log": "_np.log",
    "sqrt": "_np.sqrt",
    "tanh": "_np.tanh",
    "abs": "_np.abs",
    "where": "_np.where",
    "sigmoid": "_sigmoid",
    "dropout": "_dropout",
}

_SCALAR_FUNCS = {
    "max": "max",
    "min": "min",
    "exp": "_math.exp",
    "log": "_math.log",
    "sqrt": "_math.sqrt",
    "tanh": "_math.tanh",
    "abs": "abs",
    "where": "_where",
    "sigmoid": "_scalar_sigmoid",
    "dropout": "_dropout",
}


def render(e: Expr, index_renderer, vector: bool,
           names: Optional[Dict[str, str]] = None) -> str:
    """Render an expression to Python source.

    ``index_renderer(Index) -> str`` decides how buffer accesses print
    (scalar subscripts vs slice tuples); ``names`` respells variables
    read as values, outside any buffer access.
    """
    if isinstance(e, SliceExpr):
        step = ""
        if not (isinstance(e.step, Const) and e.step.value == 1):
            step = f":{render(e.step, index_renderer, vector, names)}"
        return (f"{render(e.start, index_renderer, vector, names)}:"
                f"{render(e.stop, index_renderer, vector, names)}{step}")
    if isinstance(e, NewAxis):
        return "None"
    if isinstance(e, Const):
        v = e.value
        if v == float("inf"):
            return "_inf"
        if v == float("-inf"):
            return "(-_inf)"
        return repr(v)
    if isinstance(e, Var):
        return (names or {}).get(e.name, e.name)
    if isinstance(e, Index):
        return index_renderer(e)
    if isinstance(e, (BinOp, Compare)):
        return (f"({render(e.left, index_renderer, vector, names)} {e.op} "
                f"{render(e.right, index_renderer, vector, names)})")
    if isinstance(e, UnaryOp):
        return f"({e.op}{render(e.operand, index_renderer, vector, names)})"
    if isinstance(e, Call):
        table = _VEC_FUNCS if vector else _SCALAR_FUNCS
        if e.func not in table:
            raise ValueError(f"unknown intrinsic {e.func!r}")
        # dropout also reads the forward's key and time step off ``rt``
        args = ["rt"] * (e.func == "dropout") + [
            render(a, index_renderer, vector, names) for a in e.args]
        return f"{table[e.func]}({', '.join(args)})"
    raise TypeError(f"cannot render {type(e).__name__}")


def render_plain_index(ix: Index) -> str:
    """Scalar buffer access ``buf[i, j]``."""
    parts = ", ".join(
        render(i, render_plain_index, vector=False) for i in ix.indices
    )
    return f"{ix.buffer}[{parts}]" if ix.indices else ix.buffer
