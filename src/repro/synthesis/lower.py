"""Synthesis: lowering a network to loop units (§5.3).

For every ensemble (in topological order) and both directions this module
produces a :class:`~repro.synthesis.units.Section` holding:

* **pad units** — a zero-fill of the padded buffer plus the copy of
  the source into its interior, when a window mapping reaches out of
  bounds;
* **copy units** — gather loop nests moving each source's output values
  into the sink's input buffer, with dimensions dropped per
  shared-variable analysis (so e.g. a convolution's im2col copy runs once
  per spatial position, not once per output channel);
* **compute units** — the neuron function body wrapped in loops over the
  batch and the ensemble's dimensions, with abstract ``self.*``
  references rewritten to concrete struct-of-arrays accesses (the AoS→SoA
  transformation of §5.3 / Fig. 8);
* **scatter units** — the reverse copies accumulating input gradients
  back into source gradient buffers during back-propagation.

No unit marks §5.3's asynchronous gradient reductions ('Distributed
Memory Communication'): each is issued once the last backward step that
writes an ensemble's parameter gradients has run, a point
:func:`repro.runtime.distributed.reduction_points` reads off the
compiled backward schedule.

The loop-unit (fission) form is legal because neurons within an ensemble
are independent by the DSL's semantics (§5.4.3).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.analysis.frontend import parse_neuron_function
from repro.core.ensemble import (
    DataEnsemble,
    LossEnsemble,
    NormalizationEnsemble,
)
from repro.core.ensemble import VEC, Dim
from repro.ir import (
    Assign,
    Call,
    Const,
    ExternOp,
    For,
    Index,
    Stmt,
    Var,
    add,
    mul,
    substitute,
    transform_exprs,
)
from repro.synthesis.plan import BufferPlan, ConnPlan
from repro.synthesis.units import LoopSpec, LoopUnit, Section, UnitTags

BATCH_VAR = "_n"
#: the tile loop of a unit the tiling pass split along the batch
BATCH_TILE_VAR = f"{BATCH_VAR}_t"


class SynthesisError(ValueError):
    """Raised when a network cannot be lowered (DSL misuse detected at
    compile time rather than run time)."""


@dataclass
class Program:
    """The synthesized program: ordered sections plus runtime closures."""

    forward: List[Section]
    backward: List[Section]
    closures: Dict[str, Callable]
    plan: BufferPlan


class ExternFn(NamedTuple):
    """A runtime closure plus the only buffer names it looks up — the
    ``reads``/``writes`` its :class:`~repro.ir.ExternOp` declares. The
    factories below build both from the same tuples, so the planner's
    view of an extern step is what the callback can actually touch."""

    fn: Callable
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()


def extern_unit(key: str, ext: ExternFn, closures, tags: UnitTags) -> LoopUnit:
    """Register ``ext.fn`` under ``key`` and wrap its declaration in a
    loop-less unit."""
    closures[key] = ext.fn
    return LoopUnit([], ExternOp(key, ext.reads, ext.writes), tags)


def _extern_sections(ens, stem: str, externs, closures) -> List[Section]:
    """``ens``'s forward and backward sections, each holding the one
    extern unit of ``externs`` (forward, backward) — or nothing where
    that is ``None``."""
    sections = []
    for direction, ext in zip(("forward", "backward"), externs):
        sec = Section(ens.name, direction)
        if ext is not None:
            sec.units.append(extern_unit(
                f"{ens.name}.{stem}_{direction}", ext, closures,
                UnitTags(ensemble=ens.name, kind="extern",
                         direction=direction),
            ))
        sections.append(sec)
    return sections


def dim_var(ens_name: str, k: int) -> str:
    return f"{ens_name}_d{k}"


def synthesize(net, plan: BufferPlan, options) -> Program:
    """Lower every ensemble of ``net`` into forward/backward sections."""
    closures: Dict[str, Callable] = {}
    order = net.topological_order()
    fwd: List[Section] = []
    bwd: List[Section] = []
    batch = net.batch_size
    for ens in order:
        if ens.name in plan.facts:
            f_sec, b_sec = _lower_ensemble(ens, plan, options, closures)
        elif isinstance(ens, NormalizationEnsemble):
            f_sec, b_sec = _extern_sections(
                ens, "norm", make_norm_closures(ens, plan), closures)
        elif isinstance(ens, (DataEnsemble, LossEnsemble)):
            # a data ensemble is fed, a loss is not planned forward-only
            f_sec = Section(ens.name, "forward")
            b_sec = Section(ens.name, "backward")
        else:  # pragma: no cover
            raise TypeError(type(ens).__name__)
        fwd.append(f_sec)
        bwd.append(b_sec)
    bwd.reverse()
    if options.mode == "inference":
        # forward-only program: backward sections survive as named
        # placeholders (passes index sections by ensemble) but carry no
        # units or externs
        bwd = [Section(sec.ensemble, "backward") for sec in bwd]
    for sec in fwd + bwd:
        for unit in sec.units:
            for sp in unit.loops:
                if sp.role == "batch":
                    sp.extent = batch
                    sp.stop = Const(batch)
    return Program(fwd, bwd, closures, plan)


# ---------------------------------------------------------------------------
# Synthesized (neuron) ensembles
# ---------------------------------------------------------------------------


def _lower_ensemble(ens, plan, options, closures):
    facts = plan.facts[ens.name]
    fwd = Section(ens.name, "forward")
    bwd = Section(ens.name, "backward")

    fwd_recurrent = set()  # buffers this section reads at t-1
    # 1. pads + copies (forward), scatters + unpads (backward)
    for j, cf in enumerate(facts.connections):
        cplan = plan.conn_plans[(ens.name, j)]
        conn = ens.inputs[j]
        if cplan.mode in ("inplace", "alias"):
            continue
        if cplan.mode == "gather":
            _make_gather(ens, j, cf, cplan, closures, fwd, bwd)
            if conn.recurrent:
                fwd_recurrent.add(cplan.src_value)
            continue
        if cplan.padded_value:
            fwd.units.extend(_pad_units(ens, j, cplan, plan))
        fwd.units.append(_copy_unit(ens, j, cf, cplan, "forward"))
        # backward: scatter into the (padded) source gradient first, then
        # copy the interior back out of the padding
        bwd.units.append(_copy_unit(ens, j, cf, cplan, "backward"))
        if cplan.padded_value:
            bwd.units.append(_unpad_unit(ens, j, cf, cplan))
        if conn.recurrent:
            fwd_recurrent.add(cplan.padded_value or cplan.src_value)

    # 2. compute units
    mode = options.mode
    fwd.units.extend(_compute_units(ens, facts, plan, "forward", mode))
    if ens.neuron_type.has_backward():
        # backward compute precedes the scatters that consume its writes
        bwd.units[:0] = _compute_units(ens, facts, plan, "backward", mode)

    _check_recurrent_conflicts(ens, plan, fwd_recurrent)
    return fwd, bwd


def _check_recurrent_conflicts(ens, plan, recurrent_bufs):
    """A section cannot read one buffer at both t and t-1."""
    for j, _cf in enumerate(plan.facts[ens.name].connections):
        conn = ens.inputs[j]
        cplan = plan.conn_plans[(ens.name, j)]
        if not conn.recurrent and cplan.src_value in recurrent_bufs:
            raise SynthesisError(
                f"ensemble {ens.name!r} reads {conn.source.name!r} through "
                f"both recurrent and non-recurrent connections; split it "
                f"into two ensembles"
            )


# -- copies -----------------------------------------------------------------


def _window_vars(ens, j, info):
    """Loop variables for window dimensions (None where length == 1)."""
    out = []
    for d, wd in enumerate(info.dims):
        out.append(f"{ens.name}_c{j}w{d}" if wd.length > 1 else None)
    return out


def _kflat_expr(info, wvars):
    """Row-major flat window index from per-dimension window offsets."""
    expr = Const(0)
    for (wd, wv) in zip(info.dims, wvars):
        term = Var(wv) if wv is not None else Const(0)
        expr = add(mul(expr, wd.length), term)
    return expr


def _src_index(ens, info, cplan, wvars):
    """Per-source-dimension index expressions of the gather."""
    idx = []
    for d, wd in enumerate(info.dims):
        pad = cplan.pad_before[d] if cplan.pad_before else 0
        e = Const(wd.offset + pad)
        for i, c in enumerate(wd.coeffs):
            if c != 0:
                e = add(e, mul(c, Var(dim_var(ens.name, i))))
        if wvars[d] is not None:
            e = add(e, Var(wvars[d]))
        idx.append(e)
    return tuple(idx)


def _copy_unit(ens, j, cf, cplan: ConnPlan, direction) -> LoopUnit:
    info = cf.mapping
    wvars = _window_vars(ens, j, info)
    kflat = _kflat_expr(info, wvars)
    kept = info.kept_sink_dims
    kept_vars = [dim_var(ens.name, k) for k in kept]
    src_val = cplan.padded_value or cplan.src_value
    src_grd = cplan.padded_grad or cplan.src_grad
    sidx = _src_index(ens, info, cplan, wvars)

    loops = [LoopSpec.simple(BATCH_VAR, -1, role="batch")]
    for d, wv in enumerate(wvars):
        if wv is not None:
            loops.append(LoopSpec.simple(wv, info.dims[d].length, role="window"))
    for k, kv in zip(kept, kept_vars):
        loops.append(LoopSpec.simple(kv, ens.shape[k], role="dim", dim_index=k))

    buf_idx = (Var(BATCH_VAR), kflat) + tuple(Var(v) for v in kept_vars)
    if direction == "forward":
        stmt = Assign(
            Index(cplan.in_buf, buf_idx),
            Index(src_val, (Var(BATCH_VAR),) + sidx),
        )
        kind = "copy"
    else:
        stmt = Assign(
            Index(src_grd, (Var(BATCH_VAR),) + sidx),
            Index(cplan.grad_in_buf, buf_idx),
            reduce="add",
        )
        kind = "scatter"
    source = src_val if direction == "forward" else src_grd
    return LoopUnit(
        loops,
        stmt,
        UnitTags(
            ensemble=ens.name,
            kind=kind,
            direction=direction,
            conn=info,
            conn_index=j,
            copy_source=source,
            recurrent_src=source if cplan.recurrent else None,
        ),
    )


def _pad_units(ens, j, cplan, plan) -> List[LoopUnit]:
    """Zero-fill the padded buffer, then copy the source into its
    interior: the border is written every step, so the buffer is
    defined before use like any other and may share storage."""
    src = ens.inputs[j].source
    pvars = [f"{ens.name}_c{j}p{d}" for d in range(len(src.shape))]
    n = Var(BATCH_VAR)

    def unit(extents, stmt, kind):
        loops = [LoopSpec.simple(BATCH_VAR, -1, role="batch")] + [
            LoopSpec.simple(v, s, role="dim") for v, s in zip(pvars, extents)
        ]
        return LoopUnit(loops, stmt, UnitTags(ensemble=ens.name, kind=kind,
                                              direction="forward"))

    fill = Assign(
        Index(cplan.padded_value, (n,) + tuple(Var(v) for v in pvars)),
        Const(0.0))
    copy = Assign(
        Index(cplan.padded_value,
              (n,) + tuple(add(Var(v), pb)
                           for v, pb in zip(pvars, cplan.pad_before))),
        Index(cplan.src_value, (n,) + tuple(Var(v) for v in pvars)),
    )
    return [unit(plan.buffers[cplan.padded_value].shape, fill, "pad_fill"),
            unit(src.shape, copy, "pad")]


def _unpad_unit(ens, j, cf, cplan) -> LoopUnit:
    src = ens.inputs[j].source
    pvars = [f"{ens.name}_c{j}u{d}" for d in range(len(src.shape))]
    loops = [LoopSpec.simple(BATCH_VAR, -1, role="batch")] + [
        LoopSpec.simple(v, s, role="dim") for v, s in zip(pvars, src.shape)
    ]
    stmt = Assign(
        Index(cplan.src_grad, (Var(BATCH_VAR),) + tuple(Var(v) for v in pvars)),
        Index(
            cplan.padded_grad,
            (Var(BATCH_VAR),)
            + tuple(add(Var(v), pb) for v, pb in zip(pvars, cplan.pad_before)),
        ),
        reduce="add",
    )
    return LoopUnit(
        loops, stmt, UnitTags(ensemble=ens.name, kind="unpad", direction="backward")
    )


def make_gather_closures(idx, in_buf, grad_in, src_value, src_grad):
    """(forward, backward) :class:`ExternFn` pair for one
    materialized-index gather: forward defines ``in_buf`` from
    ``src_value``, backward accumulates ``grad_in`` into ``src_grad``.

    Module-level so the compile cache can rebuild the pair at thaw time
    from the stored index array + buffer names (see ``repro.cache``)
    without re-running shared-variable analysis.
    """

    def gather_fwd(bufs, rt, idx=idx, in_buf=in_buf, src=src_value):
        flat = bufs[src].reshape(bufs[src].shape[0], -1)
        gathered = flat[:, idx]  # (B, *sink, K)
        bufs[in_buf][...] = np.moveaxis(gathered, -1, 1)

    def gather_bwd(bufs, rt, idx=idx, grad_in=grad_in, src=src_grad):
        flat = bufs[src].reshape(bufs[src].shape[0], -1)
        g = np.moveaxis(bufs[grad_in], 1, -1)  # (B, *sink, K)
        for b in range(flat.shape[0]):
            np.add.at(flat[b], idx, g[b])

    return (ExternFn(gather_fwd, reads=(src_value,), writes=(in_buf,)),
            ExternFn(gather_bwd, reads=(grad_in, src_grad),
                     writes=(src_grad,)))


def _make_gather(ens, j, cf, cplan, closures, fwd, bwd):
    """Non-affine mappings: materialized index arrays + runtime gather."""
    info = cf.mapping
    src_v, src_g = cplan.src_value, cplan.src_grad
    gather_fwd, gather_bwd = make_gather_closures(
        info.gather_indices, cplan.in_buf, cplan.grad_in_buf, src_v, src_g
    )
    recurrent = ens.inputs[j].recurrent
    for sec, kind, stem, ext, src in (
            (fwd, "copy", "gather", gather_fwd, src_v),
            (bwd, "scatter", "scatter", gather_bwd, src_g)):
        sec.units.append(extern_unit(
            f"{ens.name}.{stem}{j}", ext, closures,
            UnitTags(ensemble=ens.name, kind=kind, direction=sec.direction,
                     conn=info, conn_index=j,
                     recurrent_src=src if recurrent else None),
        ))


# -- compute ------------------------------------------------------------------


def _compute_units(ens, facts, plan, direction, mode) -> List[LoopUnit]:
    fn_ir = parse_neuron_function(ens.neuron_type, direction)
    rewriter = _RefRewriter(ens, facts, plan, direction, mode)
    base_loops = [LoopSpec.simple(BATCH_VAR, -1, role="batch")] + [
        LoopSpec.simple(dim_var(ens.name, k), ens.shape[k], role="dim", dim_index=k)
        for k in range(ens.ndim)
    ]
    units: List[LoopUnit] = []
    _flatten(fn_ir.body, base_loops, ens, rewriter, units, direction)

    # zero-fill the value buffer when the first write accumulates
    if direction == "forward":
        vbuf = plan.value_buf(ens.name)
        for u in units:
            tgt = u.stmt.target if isinstance(u.stmt, Assign) else None
            if isinstance(tgt, Index) and tgt.buffer == vbuf:
                if u.stmt.reduce is not None:
                    fill = LoopUnit(
                        list(base_loops),
                        Assign(
                            Index(
                                vbuf,
                                (Var(BATCH_VAR),)
                                + tuple(
                                    Var(dim_var(ens.name, k))
                                    for k in range(ens.ndim)
                                ),
                            ),
                            Const(0.0),
                        ),
                        UnitTags(ensemble=ens.name, kind="fill",
                                 direction="forward"),
                    )
                    units.insert(0, fill)
                break
    return units


def _flatten(stmts, loops, ens, rewriter, out, direction):
    for s in stmts:
        if isinstance(s, For):
            start = rewriter.expr(s.start)
            stop = rewriter.expr(s.stop)
            if not (isinstance(start, Const) and isinstance(stop, Const)):
                raise SynthesisError(
                    f"{ens.name}: loop bounds must be compile-time constants"
                )
            var = f"{ens.name}__{s.var}"
            rewriter.renames[s.var] = var
            spec = LoopSpec(var, start, stop, int(stop.value - start.value),
                            role="user")
            _flatten(s.body, loops + [spec], ens, rewriter, out, direction)
            del rewriter.renames[s.var]
        elif isinstance(s, Assign):
            stmt = rewriter.assign(s)
            if stmt.reduce is None and stmt.target == stmt.value:
                continue  # in place and folded: dropout at inference
            out.append(
                LoopUnit(
                    list(loops),
                    stmt,
                    UnitTags(ensemble=ens.name, kind="compute",
                             direction=direction),
                )
            )
        else:  # pragma: no cover - frontend restricts statements
            raise SynthesisError(f"unexpected statement {type(s).__name__}")


class _RefRewriter:
    """Rewrites abstract ``$``-references into concrete buffer indices."""

    def __init__(self, ens, facts, plan, direction, mode):
        self.ens = ens
        self.facts = facts
        self.plan = plan
        self.direction = direction
        self.mode = mode
        self.renames: Dict[str, str] = {}
        self.self_coords = (Var(BATCH_VAR),) + tuple(
            Var(dim_var(ens.name, k)) for k in range(ens.ndim)
        )

    # expression rewriting ------------------------------------------------

    def expr(self, e):
        return transform_exprs(Assign(Var("_"), e), self._map).value

    def assign(self, s: Assign) -> Assign:
        new = transform_exprs(s, self._map)
        # in-place backward rewrite: grad_inputs += f(grad,...) on an
        # aliased gradient buffer becomes grad = f(grad,...)
        if (
            self.direction == "backward"
            and self.ens.name in self.plan.inplace
            and isinstance(s.target, Index)
            and s.target.buffer.startswith("$grad_inputs:")
            and new.reduce == "add"
        ):
            return Assign(new.target, new.value, reduce=None)
        return new

    def _map(self, e):
        from repro.ir import map_expr

        def rewrite(node):
            if isinstance(node, Var):
                if node.name in self.renames:
                    return Var(self.renames[node.name])
                if node.name.startswith("$len:"):
                    j = int(node.name.split(":")[1])
                    return Const(self._conn_info(j).window_size)
            if isinstance(node, Index) and node.buffer.startswith("$"):
                return self._ref(node)
            if isinstance(node, Call) and node.func == "dropout":
                return self._dropout(*node.args)
            return None

        return map_expr(rewrite, e)

    def _dropout(self, x):
        """``dropout(x)`` with the neuron's batch-leading flat index and
        the ensemble's keep ratio (``DropoutLayer`` sets it) and salt (a
        hash of its name); ``x`` itself in a forward-only program, which
        runs in eval semantics."""
        if self.mode == "inference":
            return x
        index = Const(0)
        for var, extent in zip(self.self_coords, (1,) + self.ens.shape):
            index = add(mul(index, extent), var)
        return Call("dropout", (x, index, Const(self.ens.keep),
                                Const(zlib.crc32(self.ens.name.encode()))))

    def _conn_info(self, j):
        if j >= len(self.facts.connections):
            raise SynthesisError(
                f"{self.ens.name}: neuron references inputs[{j}] but only "
                f"{len(self.facts.connections)} connections exist"
            )
        return self.facts.connections[j].mapping

    def _ref(self, node: Index):
        name = node.buffer
        ens = self.ens
        plan = self.plan
        if name == "$value":
            return Index(plan.value_buf(ens.name), self.self_coords)
        if name == "$grad":
            if isinstance(ens, LossEnsemble):
                raise SynthesisError(
                    f"{ens.name}: a loss ensemble has no gradient to read; "
                    f"its backward seeds back-propagation")
            return Index(plan.grad_buf(ens.name), self.self_coords)
        if name.startswith("$inputs:") or name.startswith("$grad_inputs:"):
            is_grad = name.startswith("$grad_inputs:")
            j = int(name.split(":")[1])
            info = self._conn_info(j)
            cplan = plan.conn_plans[(ens.name, j)]
            if len(node.indices) != 1:
                raise SynthesisError(
                    f"{ens.name}: inputs[{j}] takes one flat subscript"
                )
            sub = node.indices[0]
            if cplan.mode == "inplace":
                # one-to-one, K == 1: the subscript must be the constant 0
                base = plan.grad_buf(ens.name) if is_grad else plan.value_buf(ens.name)
                return Index(base, self.self_coords)
            buf = cplan.grad_in_buf if is_grad else cplan.in_buf
            if cplan.mode == "alias":
                return Index(buf, (Var(BATCH_VAR), sub))
            kept = (
                info.kept_sink_dims
                if cplan.mode == "copy"
                else tuple(range(ens.ndim))
            )
            coords = (Var(BATCH_VAR), sub) + tuple(
                Var(dim_var(ens.name, k)) for k in kept
            )
            return Index(buf, coords)
        if name.startswith("$field:"):
            fname = name.split(":", 1)[1]
            binding = ens.field_bindings[fname]
            subs = list(node.indices)
            coords = []
            if binding.batch:
                coords.append(Var(BATCH_VAR))
            for p in binding.pattern:
                if p is VEC:
                    if not subs:
                        raise SynthesisError(
                            f"{ens.name}.{fname}: not enough subscripts for "
                            f"field pattern {binding.pattern}"
                        )
                    coords.append(subs.pop(0))
                elif isinstance(p, Dim):
                    coords.append(Var(dim_var(ens.name, p.index)))
                else:
                    coords.append(Const(int(p)))
            if subs:
                raise SynthesisError(
                    f"{ens.name}.{fname}: too many subscripts for field "
                    f"pattern {binding.pattern}"
                )
            return Index(plan.field_buf(ens.name, fname), tuple(coords))
        raise SynthesisError(f"unknown abstract reference {name!r}")


# ---------------------------------------------------------------------------
# Extern ensembles (normalization)
# ---------------------------------------------------------------------------


def make_norm_closures(ens, plan):
    """(forward, backward-or-None) :class:`ExternFn` pair for a
    NormalizationEnsemble: forward defines the output from ``ins``;
    backward reads ``out_grad``, ``ins`` and ``out`` and accumulates
    into ``in_grads`` (the contract table in docs/DSL.md).

    Bound to the *live* ensemble object (its ``forward_fn``/
    ``backward_fn``/``state``) and to names that are pure functions of
    the topology, so the compile cache rebuilds them from a freshly
    constructed net.
    """
    vbuf, gbuf = plan.value_buf(ens.name), plan.grad_buf(ens.name)
    src_vals = tuple(plan.value_buf(c.source.name) for c in ens.inputs)
    src_grads = tuple(plan.grad_buf(c.source.name) for c in ens.inputs)

    def fwd_fn(bufs, rt):
        ens.state["training"] = rt.training
        ens.state["t"] = rt.current_t
        ens.forward_fn(bufs[vbuf], [bufs[s] for s in src_vals], ens.state)

    bwd = None
    if ens.backward_fn is not None:
        def bwd_fn(bufs, rt):
            ens.state["t"] = rt.current_t
            ens.backward_fn(
                [bufs[s] for s in src_grads],
                bufs[gbuf],
                [bufs[s] for s in src_vals],
                bufs[vbuf],
                ens.state,
            )

        bwd = ExternFn(bwd_fn, reads=(gbuf,) + src_vals + (vbuf,) + src_grads,
                       writes=src_grads)
    return ExternFn(fwd_fn, reads=src_vals, writes=(vbuf,)), bwd
