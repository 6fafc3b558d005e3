"""IR pretty-printers.

``to_pseudo`` renders a loop-oriented, Python-like text used in error
messages and tests. ``to_c`` renders the C++-with-OpenMP view of the
optimized IR — the form in which the paper presents synthesized code
(Figures 9, 10 and 12); it exists for inspection and golden tests, the
executable backend is :mod:`repro.codegen.python_backend`.
"""

from __future__ import annotations

from repro.ir.nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    CommCall,
    Compare,
    Const,
    Expr,
    ExternOp,
    For,
    FusionBarrier,
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
        bits = []
        if stmt.parallel:
            sched = f", schedule={stmt.schedule}" if stmt.schedule else ""
            coll = f", collapse={stmt.collapse}" if stmt.collapse else ""
            bits.append(f"{pad}# parallel{coll}{sched}")
        rng = f"range({expr_str(stmt.start)}, {expr_str(stmt.stop)}"
        if not (isinstance(stmt.step, Const) and stmt.step.value == 1):
            rng += f", {expr_str(stmt.step)}"
        rng += ")"
        bits.append(f"{pad}for {stmt.var} in {rng}:")
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
    if isinstance(stmt, FusionBarrier):
        return f"{pad}# fusion barrier"
    if isinstance(stmt, CommCall):
        return f"{pad}async_grad_reduce({stmt.ensemble!r}, {list(stmt.params)})"
    if isinstance(stmt, ExternOp):
        return f"{pad}{stmt.fn_key}({', '.join(_extern_args(stmt))})"
    raise TypeError(f"unknown statement node: {type(stmt).__name__}")


def _extern_args(stmt: ExternOp) -> list:
    """Outputs first, then the read-only inputs — the argument order of
    the DSL's ``forward_fn(out, ins, ...)`` callbacks."""
    return list(stmt.writes) + [b for b in stmt.reads if b not in stmt.writes]


def _c_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, SliceExpr):
        return f"{_c_expr(e.start)}:{_c_expr(e.stop)}"
    if isinstance(e, Index):
        return f"{e.buffer}[{']['.join(_c_expr(i) for i in e.indices)}]"
    if isinstance(e, BinOp):
        return f"({_c_expr(e.left)} {e.op} {_c_expr(e.right)})"
    if isinstance(e, UnaryOp):
        return f"({e.op}{_c_expr(e.operand)})"
    if isinstance(e, Compare):
        return f"({_c_expr(e.left)} {e.op} {_c_expr(e.right)})"
    if isinstance(e, Call):
        fn = {"max": "fmaxf", "min": "fminf", "where": "WHERE"}.get(e.func, e.func + "f")
        return f"{fn}({', '.join(_c_expr(a) for a in e.args)})"
    if isinstance(e, NewAxis):
        return "/*newaxis*/"
    raise TypeError(type(e).__name__)


def to_c(stmt: Stmt, indent: int = 0) -> str:
    """Render a statement tree as C++-with-OpenMP pseudo source.

    This mirrors the presentation of Figures 9-12: explicit ``for`` loops,
    ``#pragma omp for collapse(N) schedule(static, 1)`` on parallel loops,
    and the simplified ``gemm(transA, transB, m, n, k, A, B, C)`` call for
    pattern-matched kernels.
    """
    pad = "  " * indent
    if isinstance(stmt, Assign):
        if stmt.reduce is None:
            return f"{pad}{_c_expr(stmt.target)} = {_c_expr(stmt.value)};"
        if stmt.reduce == "add":
            return f"{pad}{_c_expr(stmt.target)} += {_c_expr(stmt.value)};"
        if stmt.reduce == "mul":
            return f"{pad}{_c_expr(stmt.target)} *= {_c_expr(stmt.value)};"
        fn = "fmaxf" if stmt.reduce == "max" else "fminf"
        t = _c_expr(stmt.target)
        return f"{pad}{t} = {fn}({t}, {_c_expr(stmt.value)});"
    if isinstance(stmt, For):
        bits = []
        if stmt.parallel:
            clause = ""
            if stmt.collapse:
                clause += f" collapse({stmt.collapse})"
            if stmt.schedule:
                clause += f" schedule({stmt.schedule})"
            bits.append(f"{pad}#pragma omp for{clause}")
        step = _c_expr(stmt.step)
        incr = f"{stmt.var}++" if step == "1" else f"{stmt.var} += {step}"
        bits.append(
            f"{pad}for (int {stmt.var} = {_c_expr(stmt.start)}; "
            f"{stmt.var} < {_c_expr(stmt.stop)}; {incr}) {{"
        )
        for s in stmt.body:
            bits.append(to_c(s, indent + 1))
        bits.append(f"{pad}}}")
        return "\n".join(bits)
    if isinstance(stmt, Gemm):
        m, n, k = stmt.mnk
        note = f"  // {stmt.note}" if stmt.note else ""
        return (
            f"{pad}gemm('T', 'N', {m}, {n}, {k}, "
            f"{stmt.a.buffer}, {stmt.b.buffer}, {stmt.c.buffer});{note}"
        )
    if isinstance(stmt, Block):
        label = f"{pad}// {stmt.label}\n" if stmt.label else ""
        return label + "\n".join(to_c(s, indent) for s in stmt.stmts)
    if isinstance(stmt, FusionBarrier):
        return f"{pad}// fusion barrier"
    if isinstance(stmt, CommCall):
        return (
            f"{pad}latte_iallreduce(\"{stmt.ensemble}\", "
            f"{{{', '.join(stmt.params)}}});  // async MPI_Iallreduce"
        )
    if isinstance(stmt, ExternOp):
        return f"{pad}{stmt.fn_key}({', '.join(_extern_args(stmt))});"
    raise TypeError(f"unknown statement node: {type(stmt).__name__}")
