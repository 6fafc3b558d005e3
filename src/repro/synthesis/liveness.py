"""Whole-program buffer liveness and arena planning.

The paper's §5.2 shares memory *pairwise* — an alias here, a dropped
copy there. This module extends that to whole-program reuse, the way
compiler-infrastructure successors to Latte (DLVM, DeepDSL) treat
preallocation: given the final scheduled forward/backward step lists it

1. takes, for every base (non-alias) buffer, its **live interval** over
   the linearized program points ``[fwd item 0 .. fwd item F-1,
   bwd item 0 .. bwd item B-1]`` from the program's def/use view
   (:class:`~repro.synthesis.access.ProgramView`),
2. decides which buffers are **pool candidates** — excluded are
   parameter fields (user-owned arrays), field buffers written by opaque
   ``pre_forward`` closures, privatized accumulators, recurrent-read
   sources (their previous-time-step slices outlive the linear model),
   and everything in the ``keep_alive`` set (user-inspectable
   ``value()``/``grad()`` arrays), and
3. assigns the candidates to shared **slabs** of a single arena by
   first-fit interval-graph coloring (largest first), so buffers whose
   intervals never overlap occupy the same bytes — and dissolves any
   slab that, after alignment, is larger than its members would be on
   their own, so a plan is never larger than no plan.

A candidate is admitted only when its contents are fully (re)defined
before every read of an iteration:

* its first access in program order is a write that covers the buffer
  (synthesized copy/compute/fill nests always span the full extents,
  and an extern step's declared outputs are fully defined by contract —
  docs/DSL.md), or
* it is a gradient-role buffer the executor used to blanket-zero before
  each backward pass; the planner instead schedules a **zero def**
  immediately before the buffer's first touching backward step (recorded
  in :attr:`MemoryPlan.zero_defs`, materialized by the executor's
  pre-bound step programs). Deferring the zero is what frees the slab
  for forward-phase tenants and lets disjoint backward gradients chain
  through the same bytes.

For time-unrolled networks (``time_steps > 1``) the linear model is
unsound *within* a phase — item ``i`` at time ``t+1`` executes after
item ``j > i`` at time ``t`` — so sharing is restricted to pairs whose
accesses fall in strictly different phases (forward-only with
backward-only); every slice of the forward tenant is dead once the
backward phase begins.

Ahead of tiling, :func:`regather_staging` rewrites the synthesized
units so that no staging copy (im2col) is held from its forward GEMM to
its backward one: the copy is run again right before its backward
reader, into a buffer of its own, and the arena is the largest such
buffer — one batch tile of it, once fusion has contracted it — instead
of the sum of all of them.

The result is a :class:`MemoryPlan` stored on the
:class:`~repro.synthesis.plan.BufferPlan`; ``repro.runtime.buffers``
materializes it as offset views into one arena allocation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.ensemble import DataEnsemble, LossEnsemble
from repro.ir import Index, map_expr, transform_exprs
from repro.synthesis.access import (
    Interval,
    ProgramView,
    unit_rw,
    unnamed_buffers,
)
from repro.synthesis.plan import BufferPlan, BufferSpec
from repro.synthesis.units import FusedGroup, LoopUnit

#: arena slab alignment in bytes — 64 bytes, one cache line; the
#: runtime aligns the arena's base to it (``np.zeros`` alone gives 16),
#: so every pooled buffer starts on a line. Also guarantees every slab
#: offset is a multiple of any member's itemsize, so typed views
#: (``arena[off:off+n].view(dtype)``) are always legal
ALIGN_BYTES = 64

#: gradient-role buffers eligible for a scheduled zero def
GRAD_ROLES = ("grad", "grad_input", "padded_grad")

#: unit kinds :func:`regather_staging` clones into the backward section
REMATERIALIZING = ("pad_fill", "pad", "regather")


@dataclass
class Slab:
    """One shared region of the arena."""

    offset: int  # bytes from arena start (64-byte aligned)
    nbytes: int  # size in bytes (max over members, any dtype)
    members: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Rematerialized:
    """One staging copy re-gathered in backward instead of retained."""

    buffer: str  # the backward staging buffer the re-copy defines
    source: str  # base buffer it is gathered (or padded) from, both times
    label: str  # the re-gather unit, ``<ensemble>.regather``
    nbytes: int
    #: the padded buffer re-padded ahead of the re-gather ('' if the
    #: copy gathers from an unpadded source)
    padded: str = ""


@dataclass
class MemoryPlan:
    """Arena layout + bookkeeping produced by :func:`plan_memory`.

    All offsets and sizes are **bytes** — buffers of different dtypes
    (fp32/fp16/int8 after the precision pass) share one ``uint8`` arena
    through typed views, so element counts would be ambiguous.
    """

    #: base buffer name -> byte offset into the arena
    offsets: Dict[str, int] = field(default_factory=dict)
    #: total arena size in bytes
    arena_bytes: int = 0
    slabs: List[Slab] = field(default_factory=list)
    #: base buffers sharing arena storage (not individually allocated)
    pooled: frozenset = frozenset()
    #: buffer -> (phase, item_index): zero the full array right before
    #: this step on the first-executed time step of the phase, replacing
    #: the executor's blanket pre-backward zeroing for pooled buffers
    zero_defs: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: every base buffer's live interval (kept ones too, for reporting)
    intervals: Dict[str, Interval] = field(default_factory=dict)
    #: bytes of non-parameter buffers without pooling / with pooling
    naive_bytes: int = 0
    planned_bytes: int = 0
    #: why each non-candidate buffer was kept (reporting/tests)
    kept_reasons: Dict[str, str] = field(default_factory=dict)
    #: forward staging buffer -> its backward re-gather
    #: (:func:`regather_staging`), and the staging buffers still
    #: live across the phase boundary -> why they were declined
    rematerialized: Dict[str, Rematerialized] = field(default_factory=dict)
    declined: Dict[str, str] = field(default_factory=dict)

    @property
    def saved_bytes(self) -> int:
        return self.naive_bytes - self.planned_bytes

    @property
    def reuse_fraction(self) -> float:
        """Fraction of naive non-parameter bytes eliminated by reuse."""
        if not self.naive_bytes:
            return 0.0
        return self.saved_bytes / self.naive_bytes

    def stats(self) -> Dict[str, object]:
        return {
            "buffers_pooled": len(self.pooled),
            "slabs": len(self.slabs),
            "arena_bytes": self.arena_bytes,
            "naive_bytes": self.naive_bytes,
            "planned_bytes": self.planned_bytes,
            "saved_bytes": self.saved_bytes,
            "reuse_pct": round(100.0 * self.reuse_fraction, 2),
            "copies_rematerialized": len(self.rematerialized),
            "bytes_rematerialized": sum(
                r.nbytes for r in self.rematerialized.values()),
        }


def full_shape(plan: BufferPlan, spec: BufferSpec) -> Tuple[int, ...]:
    """Allocated shape of a buffer including batch/time lead axes
    (mirrors ``repro.runtime.buffers.allocate``)."""
    lead: Tuple[int, ...] = ()
    if spec.batched and spec.array is None:
        lead = (spec.tile or plan.batch_size,)
        if plan.time_steps > 1:
            lead = (plan.time_steps, plan.batch_size)
    return lead + tuple(spec.shape)


def buffer_elems(plan: BufferPlan, spec: BufferSpec) -> int:
    n = 1
    for d in full_shape(plan, spec):
        n *= d
    return n


def buffer_nbytes(plan: BufferPlan, spec: BufferSpec) -> int:
    """Allocated size in bytes, honoring the spec's storage dtype."""
    return buffer_elems(plan, spec) * spec.itemsize


def _mandatory_keep_ensembles(net) -> Set[str]:
    """Ensembles whose value/grad arrays outlive the program contract:
    data inputs (fed/inspected outside the step lists), network sinks
    (the user reads outputs / seeds output gradients), and ensembles
    feeding a loss (inspected as ``value('head')`` by convention)."""
    keep: Set[str] = set()
    has_consumer = {c.source.name for c in net.connections}
    for ens in net.ensembles.values():
        if isinstance(ens, DataEnsemble):
            keep.add(ens.name)
        elif isinstance(ens, LossEnsemble):
            for c in ens.inputs:
                keep.add(c.source.name)
        elif ens.name not in has_consumer:
            keep.add(ens.name)
    return keep


def kept_buffers(net, plan: BufferPlan,
                 keep_alive: Optional[Iterable[str]] = None) -> Set[str]:
    """Value/grad base buffers ``keep_alive`` (plus the mandatory
    ensembles) keeps individually allocated; see :func:`plan_memory`."""
    keep_ens = _mandatory_keep_ensembles(net)
    if keep_alive is None:
        keep_ens |= set(net.ensembles)
    else:
        keep_ens |= {str(e) for e in keep_alive}
    unknown = keep_ens - set(net.ensembles)
    if unknown:
        raise KeyError(
            f"keep_alive names unknown ensembles: {sorted(unknown)}"
        )
    return {plan.resolve_alias(name) for e in keep_ens
            for name in (plan.value_buf(e), plan.grad_buf(e))
            if name in plan.buffers}


# ---------------------------------------------------------------------------
# Forward-only buffer pruning (inference compilation)
# ---------------------------------------------------------------------------


def prune_unused_buffers(plan: BufferPlan, fwd_items, bwd_items) -> Dict[str, int]:
    """Drop buffer-table entries no scheduled item names.

    Used by inference compilation: with the backward program empty, the
    gradient/accumulator half of the table (``*_grad``, ``*_grad_inputs``,
    padded-gradient staging) is dead weight that would otherwise be
    allocated — or worse, admitted to the arena and distort its layout.

    Kept regardless of references:

    * parameter/field storage (``spec.array`` set, or ``role ==
      'field'``) — user-owned arrays plus batch fields written by opaque
      ``pre_forward`` closures that declare no buffer list (e.g. the
      dropout mask);
    * both buffers of every :class:`~repro.synthesis.plan.ParamInfo`, so
      ``parameters()`` / ``clear_param_grads`` stay well-formed;
    * the full alias chain beneath any surviving buffer, and every alias
      of a surviving base — still its ensemble's name for it when fusion
      respelled a contracted group to the base.

    Returns counters for the compile report (``buffers_pruned`` and the
    allocated ``bytes_pruned`` they would have occupied).
    """
    dropped = unnamed_buffers(plan, fwd_items, bwd_items)
    dropped -= {n for n, spec in plan.buffers.items()
                if spec.array is not None or spec.role == "field"}
    dropped -= {n for p in plan.params for n in (p.value_buf, p.grad_buf)}
    dropped -= {n for n in dropped if plan.buffers[n].alias_of is not None
                and plan.resolve_alias(n) not in dropped}
    # every surviving alias needs the whole chain beneath it allocated
    for name in set(plan.buffers) - dropped:
        while (name := plan.buffers[name].alias_of) is not None:
            dropped.discard(name)
    pruned_bytes = 0
    for name in dropped:
        spec = plan.buffers.pop(name)
        if spec.alias_of is None and spec.array is None:
            pruned_bytes += buffer_nbytes(plan, spec)
    return {"buffers_pruned": len(dropped), "bytes_pruned": pruned_bytes}


# ---------------------------------------------------------------------------
# Memory-aware backward scheduling
# ---------------------------------------------------------------------------


def reorder_backward(plan: BufferPlan, bwd_items: list) -> int:
    """Reorder the backward schedule in place to shrink live intervals.

    Stable, dependency-exact list scheduling: among the ready items,
    greedily pick the one that frees the most bytes (it is the last
    remaining toucher of large buffers) net of the bytes it births
    (buffers it touches first). The weight-gradient GEMM — the *last*
    reader of a conv layer's im2col buffer — is thereby hoisted above
    the data-gradient GEMM that *births* the equally-large grad-input
    buffer, making the two intervals disjoint so the planner can overlay
    them. Ties fall back to the original order.

    Only the relative order of provably independent items changes, and
    every step reads bit-identical operands in either order, so outputs
    are unchanged bitwise. Extern items (loss/norm closures with
    interpreter-visible side effects) and comm items are additionally
    kept in their original relative order. Time-unrolled schedules are
    left untouched — the linear dependence model does not cover
    cross-iteration recurrent carries. Returns the number of items that
    moved.
    """
    n = len(bwd_items)
    if plan.time_steps > 1 or n < 3:
        return 0
    view = ProgramView(plan, (), bwd_items)
    # a re-gather (and the re-pad ahead of it) not fused into its reader
    # is always ready and only births: it takes no part in the
    # scheduling and goes back in right before its reader
    late = {i for i, it in enumerate(bwd_items)
            if getattr(it, "units", None) and all(
                u.tags.kind in REMATERIALIZING for u in it.units)}
    touched = [frozenset() if i in late else rec.touched
               for i, rec in enumerate(view.records)]
    succs = [[j for j in range(i + 1, n) if view.depends(i, j)]
             for i in range(n)]
    indeg = [0] * n
    for i, later in enumerate(succs):
        for j in later if i not in late else ():
            indeg[j] += 1
    touchers = Counter(b for bases in touched for b in bases)
    seen_bases: Set[str] = set()
    nbytes = {
        b: buffer_nbytes(plan, plan.buffers[b])
        for b in touchers
        if plan.buffers[b].array is None
    }

    def score(i: int) -> int:
        freed = born = 0
        for b in touched[i]:
            size = nbytes.get(b)
            if size is None:
                continue  # parameter storage is permanent
            if touchers[b] == 1:
                freed += size
            if b not in seen_bases:
                born += size
        return freed - born

    order: List[int] = []
    ready = [i for i in range(n) if indeg[i] == 0 and i not in late]
    while ready:
        best = max(ready, key=lambda i: (score(i), -i))
        ready.remove(best)
        # the late items feeding ``best``, and the ones feeding those (a
        # successor is always a later point: one pass, last first)
        due: List[int] = []
        for i in sorted(late, reverse=True):
            if best in succs[i] or any(j in succs[i] for j in due):
                due.append(i)
        order.extend(reversed(due))
        late -= set(due)
        order.append(best)
        for b in touched[best]:
            touchers[b] -= 1
            seen_bases.add(b)
        for j in succs[best]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    assert len(order) == n  # the dep graph is acyclic by construction
    moved = sum(1 for pos, i in enumerate(order) if pos != i)
    if moved:
        bwd_items[:] = [bwd_items[i] for i in order]
    return moved


# ---------------------------------------------------------------------------
# Re-gathering of staging copies
# ---------------------------------------------------------------------------


def regather_staging(
    plan: BufferPlan, fwd: list, bwd: list, keep_bufs=frozenset()
) -> Tuple[Dict[str, Rematerialized], Dict[str, str]]:
    """Re-gather in backward every staging copy that is read again there.

    A conv layer's im2col buffer is written before its forward GEMM and
    read again by its weight-gradient GEMM, so a training step would
    hold all of them across the phase boundary and nothing could overlay
    (or contract) them. But a staging buffer is a cheap pure function of
    a source that is still alive: the forward copy *unit* is cloned into
    the backward section right before its first reader there, defining
    a fresh role-``input`` buffer that the backward readers are
    respelled to. A copy that gathers from a padded buffer takes its
    layer's pad (zero-fill + interior copy) along: the padded buffer is
    as cheap a function of the previous layer's value, so it is re-padded
    into a fresh ``<padded>_re`` ahead of the re-gather rather than held
    across the phases too. All of these buffers then live inside one
    layer's units, so tiling and fusion treat the clones like any other
    units and the planner overlays all of them in one slab.

    Runs on the synthesized sections, before tiling. ``keep_bufs`` are
    the value/grad bases the planner will keep out of the arena
    (:func:`kept_buffers`): gathering (or padding) again from a source
    it may pool extends that source's life, and a copy whose staging
    bytes exceed the bytes so extended by less than slab alignment can
    cost is declined. Returns ``(rematerialized, declined)`` keyed by
    forward staging buffer; reasons are ``'time-unrolled'``,
    ``'opaque'`` (a gather closure or extern reader looks the buffer up
    by name), ``'target-rewritten'``, ``'source-rewritten'`` and
    ``'no-saving'``.
    """
    done: Dict[str, Rematerialized] = {}
    declined: Dict[str, str] = {}
    fwd_units = [u for sec in fwd for u in sec.units]
    bwd_units = [u for sec in bwd for u in sec.units]
    view = ProgramView(plan, [FusedGroup([u]) for u in fwd_units],
                       [FusedGroup([u]) for u in bwd_units])
    n_fwd, records = view.n_forward, view.records

    def poolable(base: str) -> bool:
        spec = plan.buffers[base]
        return (spec.array is None and spec.role != "field"
                and base not in keep_bufs)

    for point, unit in enumerate(fwd_units):
        if unit.tags.kind != "copy":
            continue
        reads, (target,) = unit_rw(plan, unit)
        spec = plan.buffers[target]
        readers = [q for q in view.readers_after(point, target) if q >= n_fwd]
        if spec.role != "input" or not readers:
            continue
        first = readers[0]
        size = buffer_nbytes(plan, spec)
        # the layer's pad (fill + interior copy) is re-run too, so what
        # backward reads again is the pad's source, not the padded buffer
        pads = [p for p in range(point) if records[p].writes & reads
                and fwd_units[p].tags.kind in ("pad_fill", "pad")]
        padded = frozenset().union(*(records[p].writes for p in pads))
        sources = (reads - padded).union(*(records[p].reads for p in pads))
        extended = sum(
            buffer_nbytes(plan, plan.buffers[b]) for b in sources
            if poolable(b) and view.intervals[b].last < first)
        if plan.time_steps > 1:
            declined[target] = "time-unrolled"
        elif records[point].opaque or any(records[q].opaque for q in readers):
            declined[target] = "opaque"
        elif any(target in rec.writes
                 for q, rec in enumerate(records) if q != point):
            declined[target] = "target-rewritten"
        elif any(rec.writes & sources
                 for rec in records[min(pads, default=point) + 1:first]):
            declined[target] = "source-rewritten"
        elif size - extended < ALIGN_BYTES:
            declined[target] = "no-saving"
        else:
            renames = {b: plan.add(replace(plan.buffers[b], name=b + "_re"))
                       for b in [target, *sorted(padded)]}
            fresh = renames[target]
            for q in readers:
                reader = bwd_units[q - n_fwd]
                reader.stmt = respelled(reader.stmt, {target: fresh})
            originals = [(fwd_units[p], fwd_units[p].tags.kind) for p in pads]
            clones = [
                LoopUnit([replace(sp) for sp in u.loops],
                         respelled(u.stmt, renames),
                         replace(u.tags, kind=kind, direction="backward"))
                for u, kind in originals + [(unit, "regather")]]
            before = bwd_units[first - n_fwd]
            at = next((sec.units, i) for sec in bwd
                      for i, u in enumerate(sec.units) if u is before)
            at[0][at[1]:at[1]] = clones
            done[target] = Rematerialized(
                fresh, ", ".join(sorted(sources)),
                f"{unit.tags.ensemble}.regather", size,
                ", ".join(sorted(renames[b] for b in padded)))
    return done, declined


def respelled(stmt, renames: Dict[str, str]):
    """Structural copy of ``stmt`` naming buffer ``renames[b]`` for
    every ``b`` it spells that ``renames`` maps."""
    def rename(e):
        if isinstance(e, Index) and e.buffer in renames:
            return Index(renames[e.buffer], e.indices)
        return None

    return transform_exprs(stmt, lambda e: map_expr(rename, e))


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def plan_memory(
    net,
    plan: BufferPlan,
    fwd_items,
    bwd_items,
    keep_alive: Optional[Iterable[str]] = None,
) -> MemoryPlan:
    """Compute the arena layout for one compiled schedule.

    ``keep_alive`` lists ensembles whose value/grad buffers must stay
    individually allocated for post-run inspection. ``None`` (the
    default) keeps *every* ensemble inspectable — reuse then comes from
    the input/grad-input/padded staging buffers, which dominate
    footprint for convolutional nets (the im2col copies). Passing an
    explicit collection opts the remaining ensembles out of inspection
    and into the pool; data ensembles, network sinks, and loss feeders
    are always kept regardless.
    """
    mem = MemoryPlan()
    view = ProgramView(plan, fwd_items, bwd_items)
    intervals = mem.intervals = view.intervals

    keep_bufs = kept_buffers(net, plan, keep_alive)

    # (a contracted staging buffer's per-shard copies are scratch, not
    # partial sums of it: the buffer itself pools like any other)
    privatized = {
        plan.resolve_alias(n)
        for n in plan.private_accums
        if n in plan.buffers and not plan.buffers[n].tile
    }

    def keep_reason(base: str, spec: BufferSpec) -> Optional[str]:
        iv = intervals[base]
        if spec.array is not None:
            return "parameter"
        if spec.role == "field":
            return "field"  # written by opaque pre_forward closures
        if base in privatized:
            return "privatized"
        if base in view.recurrent:
            return "recurrent"
        if base in keep_bufs:
            return "keep_alive"
        if iv.dead:
            return None  # dead buffers pool freely
        if iv.first_kind == "w":
            return None  # defined before use every iteration
        if spec.role in GRAD_ROLES and spec.needs_zero:
            if iv.phases == {"backward"}:
                return None  # zero def scheduled below
            return "grad-outside-backward"
        return "live-in"  # first access reads state from a prior run

    candidates: List[str] = []
    for base, spec in plan.buffers.items():
        if spec.alias_of is not None:
            continue
        reason = keep_reason(base, spec)
        if reason is None:
            candidates.append(base)
        else:
            mem.kept_reasons[base] = reason

    # -- interval-graph coloring: first fit, largest first ------------------
    sizes = {b: buffer_nbytes(plan, plan.buffers[b]) for b in candidates}
    multiphase = plan.time_steps > 1

    def conflicts(a: str, b: str) -> bool:
        ia, ib = intervals[a], intervals[b]
        if ia.dead or ib.dead:
            return False
        if multiphase:
            # the linear model is only sound across the phase barrier
            return bool(ia.phases & ib.phases)
        return ia.overlaps(ib)

    slabs: List[Slab] = []
    for b in sorted(candidates, key=lambda b: (-sizes[b], b)):
        placed = None
        for slab in slabs:
            if all(not conflicts(b, m) for m in slab.members):
                placed = slab
                break
        if placed is None:
            placed = Slab(offset=0, nbytes=0)
            slabs.append(placed)
        placed.members.append(b)
        placed.nbytes = max(placed.nbytes, sizes[b])

    def aligned(nbytes: int) -> int:
        return -(-nbytes // ALIGN_BYTES) * ALIGN_BYTES

    # a slab that, once aligned, is larger than its members would be on
    # their own is dissolved: a lone small tenant (or, under the
    # phase-disjoint rule, a few of them) only pays the alignment, and
    # enough of those make the plan *larger* than no plan
    offset = 0
    for slab in slabs:
        if aligned(slab.nbytes) > sum(sizes[m] for m in slab.members):
            mem.kept_reasons.update((m, "no-saving") for m in slab.members)
            continue
        slab.offset = offset
        mem.slabs.append(slab)
        mem.offsets.update((m, offset) for m in slab.members)
        offset += aligned(slab.nbytes)
    mem.arena_bytes = offset
    mem.pooled = frozenset(mem.offsets)

    # schedule zero defs for pooled gradient buffers that used to rely
    # on the executor's blanket pre-backward zeroing
    for base in mem.offsets:
        spec = plan.buffers[base]
        iv = intervals[base]
        if (
            spec.role in GRAD_ROLES
            and spec.needs_zero
            and not iv.dead
            and iv.first_kind != "w"
        ):
            mem.zero_defs[base] = ("backward", view.first_backward[base])

    # -- accounting (non-parameter bytes) -----------------------------------
    naive = planned = 0
    for base, spec in plan.buffers.items():
        if spec.alias_of is not None or spec.array is not None:
            continue
        nbytes = buffer_nbytes(plan, spec)
        naive += nbytes
        if base not in mem.pooled:
            planned += nbytes
    mem.naive_bytes = naive
    mem.planned_bytes = planned + mem.arena_bytes
    return mem
