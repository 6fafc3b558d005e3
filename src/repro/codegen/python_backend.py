"""Executable Python/NumPy backend.

Emits one Python function per schedule item (fused group), compiles the
whole module with ``compile()``/``exec``, and returns callables bound to
the runtime buffer table. This is the Python analogue of the paper's
pipeline where ParallelAccelerator.jl emits C++ that ICC compiles (§5.5):
our generated source is plain NumPy, with vectorization already performed
at the IR level by :mod:`repro.codegen.vectorize` and GEMMs lowered to
BLAS-backed ``np.einsum``.

The generated source is retained on the compiled program
(``CompiledProgram.source``) for inspection and testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.codegen.exprs import render, render_plain_index
from repro.codegen.vectorize import lower_unit_scalar, lower_unit_vector
from repro.ir import (
    CommCall,
    Expr,
    ExternOp,
    Gemm,
    Index,
    SliceExpr,
    Var,
)
from repro.synthesis.access import StepAccess, record, unit_accesses
from repro.synthesis.lower import BATCH_VAR
from repro.synthesis.units import FusedGroup, LoopSpec, LoopUnit, ShardInfo

#: batch-bound parameters of shard-parameterized step functions
SHARD_LO, SHARD_HI = "_b0", "_b1"


@dataclass
class Step:
    """One executable step of the compiled program."""

    name: str
    kind: str  # 'task' | 'comm'
    fn: Optional[Callable] = None
    comm: Optional[CommCall] = None
    recurrent_reads: frozenset = frozenset()
    label: str = ""
    #: the step's def/use record — the same one the passes scheduled it
    #: by (:mod:`repro.synthesis.access`); feeds the tracer's
    #: bytes-touched accounting, the numerics watchdog's blame and
    #: calibration's observation set
    access: StepAccess = StepAccess()
    #: multiply-add FLOPs of pattern-matched GEMMs in this step (2*M*N*K
    #: per Gemm, derived from the matched loop extents)
    flops: int = 0
    #: True when the step function takes ``(_b0, _b1)`` batch bounds and
    #: may be split into concurrent batch shards (see repro.optim.parallel)
    shardable: bool = False
    #: buffer name -> 'add' | 'store': batch-invariant accumulation
    #: targets the executor must privatize per shard and tree-reduce
    private_accums: Dict[str, str] = field(default_factory=dict)

    @property
    def reads(self) -> frozenset:
        """Base buffers this step reads."""
        return self.access.reads

    @property
    def writes(self) -> frozenset:
        """Base buffers this step writes."""
        return self.access.writes


@dataclass
class CompiledProgram:
    """Compiled forward/backward step lists plus the emitted source."""

    forward: List[Step]
    backward: List[Step]
    source: str
    closures: Dict[str, Callable]
    #: paper-style C++/OpenMP *rendering* of the schedule
    #: (repro.codegen.c_backend.render_items) — inspection only, never
    #: compiled; None on a cache thaw, which rebuilds steps but no
    #: schedule to render
    c_source: Optional[str] = None
    #: executable C program (backend='c'): the source actually compiled
    #: to a shared object, per-native-step buffer-argument order, and
    #: for each step that shares an earlier twin's kernel the name of
    #: that kernel — together the rebuild recipe the compile cache stores
    c_exec_source: str = ""
    c_steps: Dict[str, List[str]] = field(default_factory=dict)
    c_symbols: Dict[str, str] = field(default_factory=dict)
    #: step name -> reason it kept its Python fn under backend='c'
    c_skipped: Dict[str, str] = field(default_factory=dict)


def _scalar_expr(e: Expr) -> str:
    return render(e, render_plain_index, vector=True)


def _gemm_flops(gemm: Gemm) -> int:
    """2*M*N*K of a pattern-matched Gemm; 0 when extents are symbolic."""
    try:
        m, n, k = (int(x) for x in gemm.mnk)
    except (TypeError, ValueError):
        return 0
    return 2 * m * n * k


def _gemm_rhs(subscripts: str, a: str, b: str) -> str:
    """Lower a Gemm's einsum subscripts to a BLAS-backed call.

    Pure two-operand contractions (every output label comes from exactly
    one operand) become ``np.tensordot`` with compile-time axis lists and
    an output transpose view — this is the library-GEMM of §5.4.1, and
    measurably faster than generic einsum. Anything else (e.g. a label
    shared by both operands and the output) falls back to einsum.
    """
    ins, out = subscripts.split("->")
    a_subs, b_subs = ins.split(",")
    contracted = [ch for ch in a_subs if ch in b_subs and ch not in out]
    a_free = [ch for ch in a_subs if ch not in contracted]
    b_free = [ch for ch in b_subs if ch not in contracted]
    res = a_free + b_free
    pure = (
        sorted(res) == sorted(out)
        and all(ch not in b_subs or ch in contracted for ch in a_subs)
    )
    if not pure:
        return f"_np.einsum({subscripts!r}, {a}, {b}, optimize=True)"
    ax_a = tuple(a_subs.index(ch) for ch in contracted)
    ax_b = tuple(b_subs.index(ch) for ch in contracted)
    expr = f"_np.tensordot({a}, {b}, axes=({ax_a}, {ax_b}))"
    perm = tuple(res.index(ch) for ch in out)
    if perm != tuple(range(len(perm))):
        expr += f".transpose({perm})"
    return expr


def _emit_unit(unit: LoopUnit, vectorize: bool, indent: int, lines: List[str]):
    pad = "    " * indent
    stmt = unit.stmt
    if isinstance(stmt, ExternOp):
        lines.append(f"{pad}_CL[{stmt.fn_key!r}](B, rt)")
        return
    if isinstance(stmt, Gemm):
        for sp in unit.loops:
            lines.append(
                f"{pad}for {sp.var} in range({_scalar_expr(sp.start)}, "
                f"{_scalar_expr(sp.stop)}):"
            )
            pad += "    "
        a = render_plain_index(stmt.a)
        b = render_plain_index(stmt.b)
        c = render_plain_index(stmt.c)
        op = "+=" if stmt.accumulate else "="
        note = f"  # {stmt.note}" if stmt.note else ""
        rhs = _gemm_rhs(stmt.subscripts, a, b)
        lines.append(f"{pad}{c} {op} {rhs}{note}")
        return
    lowered = (lower_unit_vector if vectorize else lower_unit_scalar)(unit)
    for sp in lowered.scalar_loops:
        lines.append(
            f"{pad}for {sp.var} in range({_scalar_expr(sp.start)}, "
            f"{_scalar_expr(sp.stop)}):"
        )
        pad += "    "
    lines.append(f"{pad}{lowered.line}")


def _shard_unit(unit: LoopUnit) -> LoopUnit:
    """Rebuild a unit with its batch extent parameterized by
    ``(_b0, _b1)`` — batch loops get the shard bounds, and Gemm axes the
    pattern matcher consumed from the batch loop become partial slices
    (the same re-splitting mechanism the tiling pass uses). Originals are
    left untouched so the C rendering still shows full-batch loops.
    """
    loops = [
        dc_replace(sp, start=Var(SHARD_LO), stop=Var(SHARD_HI))
        if sp.role == "batch"
        else sp
        for sp in unit.loops
    ]
    stmt = unit.stmt
    if isinstance(stmt, Gemm) and BATCH_VAR in stmt.var_axes:
        shard_slice = SliceExpr(Var(SHARD_LO), Var(SHARD_HI))
        refs = {"a": stmt.a, "b": stmt.b, "c": stmt.c}
        for key, axis in stmt.var_axes[BATCH_VAR]:
            ref = refs[key]
            indices = list(ref.indices)
            indices[axis] = shard_slice
            refs[key] = Index(ref.buffer, tuple(indices))
        stmt = dc_replace(stmt, a=refs["a"], b=refs["b"], c=refs["c"])
    return LoopUnit(loops, stmt, unit.tags)


def _emit_group(
    group: FusedGroup, name: str, vectorize: bool, lines: List[str],
    shard: Optional[ShardInfo] = None,
) -> None:
    if shard is not None:
        lines.append(
            f"def {name}(B, rt, {SHARD_LO}=0, {SHARD_HI}={shard.batch}):"
        )
        units = [_shard_unit(u) for u in group.units]
    else:
        lines.append(f"def {name}(B, rt):")
        units = group.units
    # externs receive the whole buffer dict; everything else binds the
    # names its statement spells as locals
    buffers = {
        name
        for u in units if not isinstance(u.stmt, ExternOp)
        for name, _kind in unit_accesses(u)
    }
    for b in sorted(buffers):
        lines.append(f"    {b} = B[{b!r}]")
    indent = 1
    if group.tile_loop is not None:
        sp = group.tile_loop
        lines.append(
            f"    for {sp.var} in range({_scalar_expr(sp.start)}, "
            f"{_scalar_expr(sp.stop)}):  # tile loop"
        )
        indent = 2
    body_start = len(lines)
    for u in units:
        _emit_unit(u, vectorize, indent, lines)
    if len(lines) == body_start and indent == 1 and not buffers:
        lines.append("    pass")


_PRELUDE = '''\
"""Latte-generated program. Machine-written; see repro.codegen."""
import math as _math
import numpy as _np

_inf = float("inf")


def _sigmoid(x):
    return 1.0 / (1.0 + _np.exp(-x))


def _scalar_sigmoid(x):
    return 1.0 / (1.0 + _math.exp(-x))


def _where(c, a, b):
    return a if c else b

'''


def exec_program(source: str, closures: Dict[str, Callable]) -> Dict:
    """Execute generated program source and return its namespace.

    The only free name the emitted code references is ``_CL`` (the
    runtime-closure table). Shared by the cold compile below and by the
    compile cache's thaw path (``repro.cache.freeze``), which re-binds
    cached source to freshly rebuilt closures.
    """
    namespace: Dict[str, object] = {"_CL": closures}
    code = compile(source, "<latte-generated>", "exec")
    exec(code, namespace)
    return namespace


def compile_items(
    fwd_items, bwd_items, closures, vectorize: bool, plan
) -> CompiledProgram:
    """Emit and compile the whole program; every step keeps the
    def/use record of the schedule item it was generated from."""
    lines: List[str] = []
    steps: Dict[str, List[Step]] = {"f": [], "b": []}
    counter = 0
    for tag, items in (("f", fwd_items), ("b", bwd_items)):
        for item in items:
            if isinstance(item, CommCall):
                steps[tag].append(
                    Step(
                        name=f"comm_{item.ensemble}",
                        kind="comm",
                        comm=item,
                        label=f"async_grad_reduce({item.ensemble})",
                        access=record(plan, item),
                    )
                )
                continue
            name = f"_step_{tag}{counter}"
            counter += 1
            lines.append(f"# --- {tag} {item.label}")
            shard = item.shard if isinstance(item, FusedGroup) else None
            _emit_group(item, name, vectorize, lines, shard)
            lines.append("")
            steps[tag].append(
                Step(
                    name=name,
                    kind="task",
                    recurrent_reads=item.recurrent_reads,
                    label=item.label,
                    access=record(plan, item),
                    flops=sum(_gemm_flops(u.stmt) for u in item.units
                              if isinstance(u.stmt, Gemm)),
                    shardable=shard is not None,
                    private_accums=(
                        dict(shard.private_accums) if shard else {}
                    ),
                )
            )
    source = _PRELUDE + "\n".join(lines)
    namespace = exec_program(source, closures)
    for tag in ("f", "b"):
        for step in steps[tag]:
            if step.kind == "task":
                step.fn = namespace[step.name]
    return CompiledProgram(steps["f"], steps["b"], source, closures)
