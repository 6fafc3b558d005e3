"""Intermediate representation for the Latte compiler.

The paper uses "a superset of the internal Julia AST" (§5) as its IR. Here
we define a small, explicit loop-and-expression IR. Neuron ``forward`` /
``backward`` bodies written in Python are parsed into expression nodes by
:mod:`repro.analysis.frontend`; synthesis (:mod:`repro.synthesis`) wraps
them in loop nests; the optimization passes (:mod:`repro.optim`) rewrite
the nests; and the code generators (:mod:`repro.codegen`) lower them to
executable NumPy source or to the C++/OpenMP rendering shown in the
paper's Figures 9-12.

Conventions
-----------
* All loops are half-open ``[start, stop)`` with unit step unless a
  ``step`` is given — 0-based, unlike the paper's 1-based Julia loops.
* ``Index`` indices are ordered exactly as the underlying buffer's axes.
* Reductions are normalized into ``Assign(..., reduce='add'|'max'|...)``
  rather than explicit read-modify-write expressions; this is what makes
  the vectorizer and the GEMM pattern matcher simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple, Union


class Node:
    """Base class for all IR nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: Union[int, float]


@dataclass(frozen=True)
class Var(Expr):
    """A scalar variable (loop index or named compile-time constant)."""

    name: str


@dataclass(frozen=True)
class SliceExpr(Expr):
    """A strided slice ``start:stop:step`` — introduced by the vectorizer
    and by buffer bindings; never produced directly by the frontend."""

    start: Expr
    stop: Expr
    step: Expr = Const(1)


#: Marker used inside Index for a full-axis slice (``:``).
FULL_SLICE = SliceExpr(Const(0), Var("__end__"), Const(1))


@dataclass(frozen=True)
class NewAxis(Expr):
    """``None`` inside an index tuple — inserts a broadcast axis."""


@dataclass(frozen=True)
class Index(Expr):
    """Element or slice access ``buffer[i0, i1, ...]``.

    ``buffer`` is the name of an entry in the runtime buffer table.
    """

    buffer: str
    indices: Tuple[Expr, ...]


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic: ``+ - * / // % **``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary arithmetic (currently only negation)."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison: ``== != < <= > >=`` (used with ``where``)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Intrinsic call.

    Supported intrinsics: ``max min exp log sqrt tanh sigmoid abs where``.
    ``max``/``min`` are binary elementwise; reductions over loop variables
    are expressed via ``Assign.reduce`` instead.
    """

    func: str
    args: Tuple[Expr, ...]


INTRINSICS = frozenset(
    {"max", "min", "exp", "log", "sqrt", "tanh", "sigmoid", "abs", "where"}
)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statement nodes."""

    __slots__ = ()


@dataclass
class Assign(Stmt):
    """``target = value`` or a reduction ``target ⊕= value``.

    ``reduce`` is one of ``None`` (plain store), ``'add'``, ``'mul'``,
    ``'max'``, ``'min'``.
    """

    target: Union[Index, Var]
    value: Expr
    reduce: Optional[str] = None


@dataclass
class TileInfo:
    """Metadata attached to a tiled loop (§5.4.1).

    ``dep_distance`` is the input dependence distance along the tiled
    dimension, used by the fusion pass to scale producer tile sizes
    (Fig. 11: a pooling tile of 2x2 needs a 2x-larger producer tile).
    """

    dim_name: str
    tile_size: int
    dep_distance: int = 1


@dataclass
class For(Stmt):
    """A counted loop ``for var in range(start, stop, step)``.

    ``parallel`` marks the loop for the parallelization pass (rendered as
    an OpenMP pragma by the C backend, Fig. 12); ``collapse`` counts how
    many immediately-nested loops are collapsed with it. ``tile`` carries
    tiling metadata when this is the *outer* (tile-index) loop produced by
    the tiling pass.
    """

    var: str
    start: Expr
    stop: Expr
    body: list
    step: Expr = field(default_factory=lambda: Const(1))
    parallel: bool = False
    collapse: int = 0
    schedule: Optional[str] = None
    tile: Optional[TileInfo] = None

    def extent(self) -> Optional[int]:
        """Constant trip count if statically known, else ``None``."""
        if (
            isinstance(self.start, Const)
            and isinstance(self.stop, Const)
            and isinstance(self.step, Const)
        ):
            return max(
                0, -(-(self.stop.value - self.start.value) // self.step.value)
            )
        return None


@dataclass
class Gemm(Stmt):
    """A library-kernel call produced by the pattern matcher (§5.4.1).

    Represents ``C[out ⊕]= contract(A, B)`` where the contraction and free
    dimensions are described by einsum-style subscripts computed at
    pattern-match time. The Python backend lowers this to
    ``np.matmul`` on views of the operands (BLAS-backed, standing in
    for MKL's ``sgemm``; ``np.tensordot``/``np.einsum`` for what a
    batched product cannot express); the C backend prints the paper's
    simplified ``gemm(tA, tB, m, n, k, A, B, C)`` call and runs one
    sgemm on the operands in place.
    """

    a: Index
    b: Index
    c: Index
    subscripts: str
    accumulate: bool = True
    #: human-readable comment for emitted code, e.g. the matched layer
    note: str = ""
    #: (m, n, k) expression strings for the C rendering
    mnk: Tuple[str, str, str] = ("m", "n", "k")
    #: loop variable -> [(ref, axis)] with ref in 'a'|'b'|'c' — records
    #: which full-slice axes each consumed loop variable became, so the
    #: tiling pass can re-split one of them (Fig. 10's tiled gemm)
    var_axes: dict = field(default_factory=dict)
    #: loop variable -> consumed LoopSpec (extents for M/N/K bookkeeping)
    var_loops: dict = field(default_factory=dict)


@dataclass
class FusionBarrier(Stmt):
    """Prevents cross-layer fusion across this point (§5.5) — inserted
    around NormalizationEnsembles and other unfuseable constructs.
    Removed before final lowering."""


@dataclass
class CommCall(Stmt):
    """Runtime call initiating asynchronous gradient reduction for one
    ensemble's parameters (§5.3 'Distributed Memory Communication').

    Lowered to a call into the distributed runtime when training
    data-parallel; a no-op in single-node execution.
    """

    ensemble: str
    params: Tuple[str, ...]


@dataclass
class ExternOp(Stmt):
    """Call into a Python-level kernel (NormalizationEnsemble array ops,
    loss layers, gathers, fake-quant). ``fn_key`` names a callable in
    the task closure table. ``reads`` and ``writes`` are the only
    buffer-table names the callable looks up: it may read the former,
    and fully defines or accumulates into the latter (an accumulation
    target is listed in both, like the target of a reduction)."""

    fn_key: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()


@dataclass
class Block(Stmt):
    """A flat statement sequence (used as a pass boundary container)."""

    stmts: list
    label: str = ""


# ---------------------------------------------------------------------------
# Construction / rewriting helpers
# ---------------------------------------------------------------------------


def const(v) -> Expr:
    """Wrap a Python number as a Const (idempotent on Exprs)."""
    if isinstance(v, Expr):
        return v
    return Const(v)


def add(a: Expr, b: Expr) -> Expr:
    """Build ``a + b`` with constant folding."""
    a, b = const(a), const(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and a.value == 0:
        return b
    return BinOp("+", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    """Build ``a * b`` with constant folding."""
    a, b = const(a), const(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(b, Const) and b.value == 1:
        return a
    if isinstance(a, Const) and a.value == 1:
        return b
    if (isinstance(a, Const) and a.value == 0) or (
        isinstance(b, Const) and b.value == 0
    ):
        return Const(0)
    return BinOp("*", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    """Build ``a - b`` with constant folding."""
    a, b = const(a), const(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    return BinOp("-", a, b)


def map_expr(fn: Callable[[Expr], Optional[Expr]], expr: Expr) -> Expr:
    """Bottom-up expression rewrite.

    ``fn`` is applied to every sub-expression after its children have been
    rewritten; returning ``None`` keeps the (child-rewritten) node.
    """
    if isinstance(expr, Index):
        new = Index(expr.buffer, tuple(map_expr(fn, i) for i in expr.indices))
    elif isinstance(expr, BinOp):
        new = BinOp(expr.op, map_expr(fn, expr.left), map_expr(fn, expr.right))
    elif isinstance(expr, UnaryOp):
        new = UnaryOp(expr.op, map_expr(fn, expr.operand))
    elif isinstance(expr, Compare):
        new = Compare(expr.op, map_expr(fn, expr.left), map_expr(fn, expr.right))
    elif isinstance(expr, Call):
        new = Call(expr.func, tuple(map_expr(fn, a) for a in expr.args))
    elif isinstance(expr, SliceExpr):
        new = SliceExpr(
            map_expr(fn, expr.start), map_expr(fn, expr.stop), map_expr(fn, expr.step)
        )
    else:
        new = expr
    replacement = fn(new)
    return new if replacement is None else replacement


def substitute(expr: Expr, bindings: dict) -> Expr:
    """Replace ``Var(name)`` occurrences per ``bindings`` (name → Expr)."""

    def rewrite(e: Expr):
        if isinstance(e, Var) and e.name in bindings:
            return const(bindings[e.name])
        return None

    return map_expr(rewrite, expr)


def substitute_stmt(stmt: Stmt, bindings: dict) -> Stmt:
    """Structurally copy ``stmt`` substituting variables per ``bindings``."""
    return transform_exprs(stmt, lambda e: substitute(e, bindings))


def transform_exprs(stmt: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Structurally copy a statement applying ``fn`` to every expression."""
    if isinstance(stmt, Assign):
        return Assign(fn(stmt.target), fn(stmt.value), stmt.reduce)
    if isinstance(stmt, For):
        return For(
            stmt.var,
            fn(stmt.start),
            fn(stmt.stop),
            [transform_exprs(s, fn) for s in stmt.body],
            step=fn(stmt.step),
            parallel=stmt.parallel,
            collapse=stmt.collapse,
            schedule=stmt.schedule,
            tile=stmt.tile,
        )
    if isinstance(stmt, Gemm):
        # var_axes/var_loops key on matched loop-variable names, which no
        # expression rewrite renames (fusion only renames tile vars), so
        # the match metadata survives structural copies
        return Gemm(
            fn(stmt.a),
            fn(stmt.b),
            fn(stmt.c),
            stmt.subscripts,
            stmt.accumulate,
            stmt.note,
            stmt.mnk,
            var_axes=stmt.var_axes,
            var_loops=stmt.var_loops,
        )
    if isinstance(stmt, Block):
        return Block([transform_exprs(s, fn) for s in stmt.stmts], stmt.label)
    if isinstance(stmt, (FusionBarrier, CommCall, ExternOp)):
        return stmt
    raise TypeError(f"unknown statement node: {type(stmt).__name__}")


def walk_exprs(node) -> list:
    """All expression nodes (recursively) inside an expression or statement."""
    out = []

    def visit_expr(e: Expr):
        out.append(e)
        if isinstance(e, Index):
            for i in e.indices:
                visit_expr(i)
        elif isinstance(e, BinOp):
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, UnaryOp):
            visit_expr(e.operand)
        elif isinstance(e, Compare):
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, Call):
            for a in e.args:
                visit_expr(a)
        elif isinstance(e, SliceExpr):
            visit_expr(e.start)
            visit_expr(e.stop)
            visit_expr(e.step)

    def visit_stmt(s: Stmt):
        if isinstance(s, Assign):
            visit_expr(s.target)
            visit_expr(s.value)
        elif isinstance(s, For):
            visit_expr(s.start)
            visit_expr(s.stop)
            visit_expr(s.step)
            for child in s.body:
                visit_stmt(child)
        elif isinstance(s, Gemm):
            visit_expr(s.a)
            visit_expr(s.b)
            visit_expr(s.c)
        elif isinstance(s, Block):
            for child in s.stmts:
                visit_stmt(child)

    if isinstance(node, Expr):
        visit_expr(node)
    else:
        visit_stmt(node)
    return out


def free_vars(node) -> set:
    """Names of all ``Var`` nodes appearing in ``node``."""
    return {e.name for e in walk_exprs(node) if isinstance(e, Var)}


def _leaf_stmts(stmt: Stmt):
    """The statements under any ``For``/``Block`` nesting of ``stmt``."""
    if isinstance(stmt, (For, Block)):
        for child in (stmt.body if isinstance(stmt, For) else stmt.stmts):
            yield from _leaf_stmts(child)
    else:
        yield stmt


def _index_buffers(expr) -> set:
    return {e.buffer for e in walk_exprs(expr) if isinstance(e, Index)}


def buffers_read(stmt: Stmt) -> set:
    """Buffer names read by a statement."""
    out = set()
    for s in _leaf_stmts(stmt):
        if isinstance(s, Assign):
            out |= _index_buffers(s.value)
            if isinstance(s.target, Index):
                if s.reduce is not None:
                    out.add(s.target.buffer)
                # index expressions of the target are reads too
                for i in s.target.indices:
                    out |= _index_buffers(i)
        elif isinstance(s, Gemm):
            out.update((s.a.buffer, s.b.buffer))
            if s.accumulate:
                out.add(s.c.buffer)
        elif isinstance(s, ExternOp):
            out.update(s.reads)
    return out


def buffers_written(stmt: Stmt) -> set:
    """Buffer names written by a statement."""
    out = set()
    for s in _leaf_stmts(stmt):
        if isinstance(s, Assign) and isinstance(s.target, Index):
            out.add(s.target.buffer)
        elif isinstance(s, Gemm):
            out.add(s.c.buffer)
        elif isinstance(s, ExternOp):
            out.update(s.writes)
    return out


def write_target_vars(stmt: Stmt) -> Optional[set]:
    """Loop variables the write target of an ``Assign``/``Gemm`` is
    scalar-indexed by: iterations of such a loop write disjoint
    elements. ``None`` when the target is not a buffer reference or is
    indexed through another buffer (rows may collide)."""
    target = stmt.c if isinstance(stmt, Gemm) else getattr(stmt, "target", None)
    if not isinstance(target, Index):
        return None
    out: set = set()
    for ix in target.indices:
        if any(isinstance(e, Index) for e in walk_exprs(ix)):
            return None
        out |= free_vars(ix)
    return out


def clone(stmt: Stmt) -> Stmt:
    """Deep structural copy of a statement tree (expressions are frozen
    dataclasses and may be shared)."""
    return transform_exprs(stmt, lambda e: e)
