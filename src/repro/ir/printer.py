"""IR pretty-printer.

``to_pseudo`` renders a loop-oriented, Python-like text used in error
messages and tests. The C the paper presents (Figures 9-12) is the
native program itself, printed by
:func:`repro.codegen.c_backend.emit_native_program`.
"""

from __future__ import annotations

from repro.ir.nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    Expr,
    ExternOp,
    For,
    Gemm,
    Index,
    NewAxis,
    SliceExpr,
    Stmt,
    UnaryOp,
    Var,
)

_REDUCE_OPS = {"add": "+=", "mul": "*=", "max": "max=", "min": "min="}


def expr_str(e: Expr) -> str:
    """Render an expression as compact pseudo-code."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, NewAxis):
        return "None"
    if isinstance(e, SliceExpr):
        step = expr_str(e.step)
        core = f"{expr_str(e.start)}:{expr_str(e.stop)}"
        return core if step == "1" else f"{core}:{step}"
    if isinstance(e, Index):
        return f"{e.buffer}[{', '.join(expr_str(i) for i in e.indices)}]"
    if isinstance(e, BinOp):
        return f"({expr_str(e.left)} {e.op} {expr_str(e.right)})"
    if isinstance(e, UnaryOp):
        return f"({e.op}{expr_str(e.operand)})"
    if isinstance(e, Compare):
        return f"({expr_str(e.left)} {e.op} {expr_str(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(expr_str(a) for a in e.args)})"
    raise TypeError(f"unknown expression node: {type(e).__name__}")


def to_pseudo(stmt: Stmt, indent: int = 0) -> str:
    """Render a statement tree as indented pseudo-code."""
    pad = "  " * indent
    if isinstance(stmt, Assign):
        op = "=" if stmt.reduce is None else _REDUCE_OPS[stmt.reduce]
        return f"{pad}{expr_str(stmt.target)} {op} {expr_str(stmt.value)}"
    if isinstance(stmt, For):
        rng = f"range({expr_str(stmt.start)}, {expr_str(stmt.stop)}"
        if not (isinstance(stmt.step, Const) and stmt.step.value == 1):
            rng += f", {expr_str(stmt.step)}"
        rng += ")"
        bits = [f"{pad}for {stmt.var} in {rng}:"]
        for s in stmt.body:
            bits.append(to_pseudo(s, indent + 1))
        return "\n".join(bits)
    if isinstance(stmt, Gemm):
        op = "+=" if stmt.accumulate else "="
        note = f"  # {stmt.note}" if stmt.note else ""
        return (
            f"{pad}{expr_str(stmt.c)} {op} "
            f"einsum('{stmt.subscripts}', {expr_str(stmt.a)}, {expr_str(stmt.b)})"
            f"{note}"
        )
    if isinstance(stmt, Block):
        label = f"{pad}# block: {stmt.label}\n" if stmt.label else ""
        return label + "\n".join(to_pseudo(s, indent) for s in stmt.stmts)
    if isinstance(stmt, ExternOp):
        return f"{pad}{stmt.fn_key}({', '.join(_extern_args(stmt))})"
    raise TypeError(f"unknown statement node: {type(stmt).__name__}")


def _extern_args(stmt: ExternOp) -> list:
    """Outputs first, then the read-only inputs — the argument order of
    the DSL's ``forward_fn(out, ins, ...)`` callbacks."""
    return list(stmt.writes) + [b for b in stmt.reads if b not in stmt.writes]
