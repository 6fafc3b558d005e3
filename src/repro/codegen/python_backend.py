"""Executable Python/NumPy backend.

Emits one Python function per schedule item (fused group), compiles the
whole module with ``compile()``/``exec``, and returns callables bound to
the runtime buffer table. This is the Python analogue of the paper's
pipeline where ParallelAccelerator.jl emits C++ that ICC compiles (§5.5):
our generated source is plain NumPy, with vectorization already performed
at the IR level by :mod:`repro.codegen.vectorize` and GEMMs lowered to
BLAS-backed ``np.matmul`` on reshaped views of the operands, written
straight into the output (``np.tensordot``/``np.einsum`` for the letter
structures a batched matrix product cannot express).

The generated source is retained on the compiled program
(``CompiledProgram.source``) for inspection and testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.exprs import render, render_plain_index
from repro.codegen.vectorize import lower_unit_scalar, lower_unit_vector
from repro.ir import (
    BinOp,
    Call,
    CommCall,
    Const,
    Expr,
    ExternOp,
    Gemm,
    Index,
    SliceExpr,
    Var,
    add,
    map_expr,
    mul,
    substitute_stmt,
    transform_exprs,
)
from repro.synthesis.access import StepAccess, record, unit_accesses
from repro.synthesis.lower import BATCH_VAR
from repro.synthesis.units import FusedGroup, LoopSpec, LoopUnit

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
    #: the ``(forward, backward)`` schedule items the steps were
    #: generated from — what ``CompiledNet.c_source`` emits the native
    #: program from on the NumPy backend; None on a cache thaw, which
    #: rebuilds steps but no schedule
    schedule: Optional[Tuple[list, list]] = None
    #: executable C program (backend='c'): the source actually compiled
    #: to a shared object, per-native-step buffer-argument order, for
    #: each step that shares an earlier twin's kernel the name of that
    #: kernel, and the in-kernel thread count the kernels were emitted
    #: for (parallel regions only above 1) — together the rebuild
    #: recipe the compile cache stores
    c_exec_source: str = ""
    c_steps: Dict[str, List[str]] = field(default_factory=dict)
    c_symbols: Dict[str, str] = field(default_factory=dict)
    c_omp: int = 1
    #: step name -> reason it kept its Python fn under backend='c'
    c_skipped: Dict[str, str] = field(default_factory=dict)


def _scalar_expr(e: Expr) -> str:
    return render(e, render_plain_index, vector=False)


def _gemm_flops(gemm: Gemm) -> int:
    """2*M*N*K of a pattern-matched Gemm; 0 when extents are symbolic."""
    try:
        m, n, k = (int(x) for x in gemm.mnk)
    except (TypeError, ValueError):
        return 0
    return 2 * m * n * k


def _gemm_rhs(subscripts: str, a: str, b: str) -> str:
    """The fallback Gemm lowering, for letter structures
    :func:`_gemm_matmul` declines.

    Pure two-operand contractions (every output label comes from exactly
    one operand) become ``np.tensordot`` with compile-time axis lists and
    an output transpose view. Anything else (e.g. a label shared by both
    operands and the output) falls back to einsum.
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


def _gemm_matmul(stmt: Gemm, shapes) -> Optional[str]:
    """Lower a Gemm to one ``np.matmul`` on in-place views, or None.

    Letters of extent 1 (a one-image tile's batch letter) are pinned to
    their index. The rest must split, in every operand's axis order,
    into contiguous blocks ``A: [M][K]``, ``B: [K][N]``, ``C: [M][N]``
    (either operand transposed) — optionally all behind the batch
    letter, which ``matmul`` broadcasts, so ``[n][c][y][x]`` storage is
    multiplied image by image where it lies instead of being transposed
    into one wide matrix and back. A block of several letters is one
    reshaped axis; that is a view (``out=`` must not be handed a copy)
    because every letter after the block's first spans its whole buffer
    axis, checked here against the allocated ``shapes``.
    """
    refs = {"a": stmt.a, "b": stmt.b, "c": stmt.c}
    axes: Dict[str, Dict[str, int]] = {"a": {}, "b": {}, "c": {}}
    for var, entries in stmt.var_axes.items():
        for key, axis in entries:
            if var in axes[key]:
                return None  # a diagonal: one letter on two axes
            axes[key][var] = axis
    extent = {v: sp.extent for v, sp in stmt.var_loops.items()}
    pinned = {v for v in extent if extent[v] == 1}
    order = {key: [v for v in sorted(axes[key], key=axes[key].get)
                   if v not in pinned] for key in refs}

    def views(batch, ka, kb):
        in_a, in_b, in_c = (set(order[key]) - {batch}
                            for key in (ka, kb, "c"))
        m = [v for v in order["c"] if v in in_a - in_b]
        n = [v for v in order["c"] if v in in_b - in_a]
        k = [v for v in order[ka] if v in in_b - in_c]
        if not (m and n and k) or len(m + n) != len(in_c) \
                or len(m + k) != len(in_a) or len(k + n) != len(in_b):
            return None
        out = {}
        for key, (rows, cols) in ((ka, (m, k)), (kb, (k, n)), ("c", (m, n))):
            lead = [batch] if batch in order[key] else []
            rest = order[key][len(lead):]
            flip = rest == cols + rows and key != "c"
            if order[key][:len(lead)] != lead or not (
                    flip or rest == rows + cols):
                return None
            view = _block_view(refs[key], axes[key], pinned, lead,
                               (cols, rows) if flip else (rows, cols),
                               extent, shapes)
            if view is None:
                return None
            out[key] = view + (
                (".swapaxes(-1, -2)" if lead else ".T") if flip else "")
        return out[ka], out[kb], out["c"]

    # a batch letter among the rows would make a row shard's result
    # depend on the shard's height (BLAS picks kernels by shape): it is
    # broadcast over, image by image, or the Gemm is left to tensordot,
    # whose operand order keeps it on the side BLAS is indifferent to
    batch = BATCH_VAR if BATCH_VAR in order["a"] + order["b"] else None
    found = next(filter(None, (
        views(batch, ka, kb) for ka, kb in (("a", "b"), ("b", "a"))
    )), None) if batch is None or batch in order["c"] else None
    if found is None:
        return None
    a, b, c = found
    if stmt.accumulate:
        return f"{c} += _np.matmul({a}, {b})"
    return f"_np.matmul({a}, {b}, out={c})"


def _block_view(ref: Index, axis_of, pinned, lead, pair, extent,
                shapes) -> Optional[str]:
    """``ref`` as a ``[lead][pair[0]][pair[1]]`` array: pinned letters
    indexed at their start, each block merged into one axis. None when
    a block's letters are not adjacent whole axes."""
    shape = shapes.get(ref.buffer)
    if shape is None or len(shape) != len(ref.indices):
        return None
    dims = []
    for block in pair:
        for prev, var in zip(block, block[1:]):
            sl = ref.indices[axis_of[var]]
            if axis_of[var] != axis_of[prev] + 1 or sl != SliceExpr(
                    Const(0), Const(shape[axis_of[var]])):
                return None
        size = 1
        for var in block:
            size *= extent[var]
        dims.append(size)
    by_axis = {axis: var for var, axis in axis_of.items()}
    indices = tuple(
        ix.start if by_axis.get(axis) in pinned else ix
        for axis, ix in enumerate(ref.indices))
    view = render_plain_index(Index(ref.buffer, indices))
    if any(len(block) > 1 for block in pair):
        view += f".reshape({', '.join(['-1'] * len(lead) + list(map(str, dims)))})"
    return view


def _emit_unit(unit: LoopUnit, vectorize: bool, indent: int,
               lines: List[str], shapes):
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
        note = f"  # {stmt.note}" if stmt.note else ""
        line = _gemm_matmul(stmt, shapes)
        if line is None:
            a = render_plain_index(stmt.a)
            b = render_plain_index(stmt.b)
            c = render_plain_index(stmt.c)
            op = "+=" if stmt.accumulate else "="
            line = f"{c} {op} {_gemm_rhs(stmt.subscripts, a, b)}"
        lines.append(f"{pad}{line}{note}")
        return
    lowered = (lower_unit_vector if vectorize else lower_unit_scalar)(unit)
    for sp in lowered.scalar_loops:
        lines.append(
            f"{pad}for {sp.var} in range({_scalar_expr(sp.start)}, "
            f"{_scalar_expr(sp.stop)}):"
        )
        pad += "    "
    lines.append(f"{pad}{lowered.line}")


def _shard_range(start: Expr, stop: Expr):
    """A batch range cut to the shard's ``[_b0, _b1)``: an untiled one
    is the whole batch, a tile's is clipped."""
    lo, hi = Var(SHARD_LO), Var(SHARD_HI)
    if isinstance(start, Const):
        return lo, hi
    return Call("max", (start, lo)), Call("min", (stop, hi))


def _tile_rows(unit: LoopUnit) -> int:
    """Batch rows per tile of a batch-tiled unit."""
    sp = getattr(unit.stmt, "var_loops", {}).get(BATCH_VAR)
    return (sp or unit.find_loop(BATCH_VAR)).extent


def _shard_tiles(sp: LoopSpec, rows: int) -> LoopSpec:
    """The batch tile loop over the tiles that meet ``[_b0, _b1)``."""
    return dc_replace(
        sp, start=BinOp("//", Var(SHARD_LO), Const(rows)),
        stop=BinOp("//", add(Var(SHARD_HI), rows - 1), Const(rows)))


def _shard_unit(unit: LoopUnit) -> LoopUnit:
    """Rebuild a unit with its batch extent parameterized by
    ``(_b0, _b1)`` — batch loops get the shard bounds, and Gemm axes the
    pattern matcher consumed from the batch loop become partial slices
    (the same re-splitting mechanism the tiling pass uses); a
    batch-tiled unit runs the tiles that meet the shard, each clipped to
    it. Originals are left untouched: the native C emitter reads the
    same schedule.
    """
    loops = []
    for sp in unit.loops:
        if sp.role == "batch":
            lo, hi = _shard_range(sp.start, sp.stop)
            sp = dc_replace(sp, start=lo, stop=hi)
        elif sp.role == "tile":
            sp = _shard_tiles(sp, _tile_rows(unit))
        loops.append(sp)
    stmt = unit.stmt
    if isinstance(stmt, Gemm) and BATCH_VAR in stmt.var_axes:
        refs = {"a": stmt.a, "b": stmt.b, "c": stmt.c}
        for key, axis in stmt.var_axes[BATCH_VAR]:
            ref = refs[key]
            indices = list(ref.indices)
            indices[axis] = SliceExpr(*_shard_range(
                indices[axis].start, indices[axis].stop))
            refs[key] = Index(ref.buffer, tuple(indices))
        stmt = dc_replace(stmt, a=refs["a"], b=refs["b"], c=refs["c"])
    return LoopUnit(loops, stmt, unit.tags)


def _contract_unit(unit: LoopUnit, names, tile: LoopSpec) -> LoopUnit:
    """Respell a unit of a batch-tiled group for the contracted buffers
    ``names`` it touches: their lead index counts from the tile's first
    row. A loop nest's batch loop is rebased to run over the tile's own
    rows (every other buffer is then indexed ``first + _n``); a Gemm's
    slices of them are shifted."""
    if not names & {name for name, _kind in unit_accesses(unit)}:
        return unit
    rows, n = _tile_rows(unit), Var(BATCH_VAR)
    first = mul(rows, Var(tile.var))
    fold = {first: Const(0), add(n, first): n,
            mul(rows, add(Var(tile.var), 1)): Const(rows)}

    def local(e: Expr) -> Expr:
        if isinstance(e, SliceExpr):
            return SliceExpr(local(e.start), local(e.stop), e.step)
        return fold.get(e) or BinOp("-", e, first)

    def respell(e):
        if isinstance(e, Index) and e.buffer in names:
            return Index(e.buffer, (local(e.indices[0]),) + e.indices[1:])
        return None

    loops, stmt = unit.loops, unit.stmt
    if unit.find_loop(BATCH_VAR) is not None:
        loops = [dc_replace(sp, start=local(sp.start), stop=local(sp.stop))
                 if sp.var == BATCH_VAR else sp for sp in loops]
        stmt = substitute_stmt(stmt, {BATCH_VAR: add(n, first)})
    stmt = transform_exprs(stmt, lambda e: map_expr(respell, e))
    return LoopUnit(loops, stmt, unit.tags)


def lowered_units(group: FusedGroup):
    """``(tile loop, units)`` of a group as both code generators emit
    it: batch bounds parameterized by the shard when the group is
    sharded, contracted buffers indexed tile-locally."""
    tile, units = group.tile_loop, group.units
    if group.shard is not None:
        units = [_shard_unit(u) for u in units]
        if tile is not None:
            tile = _shard_tiles(tile, _tile_rows(units[0]))
    if group.contracted:
        names = set(group.contracted)
        units = [_contract_unit(u, names, tile) for u in units]
    return tile, units


def _emit_group(
    group: FusedGroup, name: str, vectorize: bool, lines: List[str],
    shapes,
) -> None:
    shard = group.shard
    if shard is not None:
        lines.append(
            f"def {name}(B, rt, {SHARD_LO}=0, {SHARD_HI}={shard.batch}):"
        )
    else:
        lines.append(f"def {name}(B, rt):")
    tile, units = lowered_units(group)
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
    if tile is not None:
        sp = tile
        lines.append(
            f"    for {sp.var} in range({_scalar_expr(sp.start)}, "
            f"{_scalar_expr(sp.stop)}):  # tile loop"
        )
        indent = 2
    body_start = len(lines)
    for u in units:
        _emit_unit(u, vectorize, indent, lines, shapes)
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
    from repro.codegen.c_backend import env_shape

    shapes = {name: env_shape(plan, spec, plan.time_steps)
              for name, spec in plan.buffers.items()}
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
            _emit_group(item, name, vectorize, lines, shapes)
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
    return CompiledProgram(steps["f"], steps["b"], source, closures,
                           schedule=(fwd_items, bwd_items))
