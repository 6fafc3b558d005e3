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
   parameter storage (values and gradients), the other field buffers
   (net-owned arrays and batch fields), privatized accumulators, recurrent-read
   sources (their previous-time-step slices outlive the linear model)
   and what the caller defines (data values, sinks' seeded gradients).
   What is kept for inspection — the contract (data, sinks, loss
   feeders) and the ``keep_alive`` set — is a rule about liveness: one
   a step defines is a candidate live to the program's last point,
   readable after the call that writes it until the next ``forward()``,
   placed after the others only where it saves bytes, and
3. places every candidate at a 64-byte-aligned **byte offset** of its
   own in a single arena, the best of three greedy orders by the plan's
   total (:data:`ORDERS`: by size, by breadth, by interval length; in
   each, :func:`place_offsets` puts every buffer in turn into the
   best-fitting gap among the buffers it is live together with), so
   buffers whose intervals never overlap occupy the same bytes, and a
   small buffer uses the free tail of a big one's bytes while the big
   one is dead — and takes out of the pool every run of buffers whose
   bytes chain together that, after alignment, is larger than its
   members would be on their own, so a plan is never larger than no
   plan.

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
  pre-bound step programs). Deferring the zero is what frees its bytes
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
of the sum of all of them. A value that backward reads again and that
cheap loop nests define (a pooling layer's max of a conv value that is
live anyway), or that a first layer's GEMM chain defines from the fed
data and parameters alone, is recomputed the same way instead of held
across the phases.

The result is a :class:`MemoryPlan` stored on the
:class:`~repro.synthesis.plan.BufferPlan`; ``repro.runtime.buffers``
materializes it as offset views into one arena allocation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from repro.core.ensemble import DataEnsemble, LossEnsemble
from repro.ir import Gemm, Index, map_expr, transform_exprs
from repro.synthesis.access import (
    Interval,
    ProgramView,
    StepAccess,
    record,
    unit_accesses,
    unit_rw,
    unnamed_buffers,
)
from repro.synthesis.plan import BufferPlan, BufferSpec
from repro.synthesis.units import FusedGroup, LoopUnit

#: arena offset alignment in bytes — 64 bytes, one cache line; the
#: runtime aligns the arena's base to it (``np.zeros`` alone gives 16),
#: so every pooled buffer starts on a line. Also guarantees every
#: offset is a multiple of any buffer's itemsize, so typed views
#: (``arena[off:off+n].view(dtype)``) are always legal
ALIGN_BYTES = 64

#: gradient-role buffers eligible for a scheduled zero def
GRAD_ROLES = ("grad", "grad_input", "padded_grad")

#: unit kinds :func:`regather_staging` clones into the backward section
REMATERIALIZING = ("pad_fill", "pad", "regather", "recompute")

#: the greedy orders :func:`plan_memory` lays the arena out in, keeping
#: the layout with the smallest plan (the earliest on a tie); ``size``
#: first, so no plan is larger than greedy by size alone
ORDERS = ("size", "breadth", "length")


@dataclass(frozen=True)
class Rematerialized:
    """One forward buffer defined again in backward instead of retained
    across the phases: a staging copy re-gathered, or a value
    recomputed (:func:`regather_staging`)."""

    buffer: str  # the backward buffer the re-run defines
    source: str  # base buffers it is computed from, both times
    #: the re-running units: ``<ensemble>.regather`` for a copy,
    #: ``<ensemble>.recompute`` (``+``-joined) for a value
    label: str
    nbytes: int
    #: the padded buffer re-padded ahead of the re-gather or a GEMM's
    #: recompute ('' if it gathers from an unpadded source, and for a
    #: value no GEMM defines)
    padded: str = ""

    @property
    def recomputed(self) -> bool:
        return self.label.endswith(".recompute")


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
    #: the bases ``value()``/``grad()`` answer for, by why
    #: (:func:`kept_buffers`: ``contract (…)`` or ``keep_alive``). One a
    #: step defines may pool: its interval runs to the program's last
    #: point, so it is readable after the call that writes it until the
    #: next ``forward()``
    inspected: Dict[str, str] = field(default_factory=dict)
    #: why each non-candidate buffer stays out of the arena: a layout
    #: reason (``caller-defined``, ``recurrent``, ``no-saving``, …)
    kept_reasons: Dict[str, str] = field(default_factory=dict)
    #: the program's forward and backward point counts
    points: Tuple[int, int] = (0, 0)
    #: forward staging buffer or value -> its backward re-gather or
    #: recompute (:func:`regather_staging`), and the ones still live
    #: across the phase boundary -> why they were declined
    rematerialized: Dict[str, Rematerialized] = field(default_factory=dict)
    declined: Dict[str, str] = field(default_factory=dict)
    #: the greedy order (one of :data:`ORDERS`) whose layout was kept
    order: str = ""
    #: the most pooled bytes live at one point (time-unrolled: in one
    #: phase), which no layout can go below
    live_bytes: int = 0

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
        """The pass counters; ``copies_rematerialized`` and
        ``bytes_rematerialized`` count every buffer no longer held
        across the phases, re-gathered copies and recomputed values;
        ``placement_slack`` is the arena's bytes above ``live_bytes``."""
        return {
            "buffers_pooled": len(self.pooled),
            "arena_bytes": self.arena_bytes,
            "live_bytes": self.live_bytes,
            "placement_slack": self.arena_bytes - self.live_bytes,
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
    if spec.batched:
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


def _contract_ensembles(net) -> Dict[str, str]:
    """Ensembles the program contract keeps inspectable after a run,
    by why: ``'data'`` (fed/inspected outside the step lists),
    ``'sink'`` (the user reads outputs / seeds output gradients; a loss
    is one, read as ``CompiledNet.loss``) and ``'loss feeder'``
    (inspected as ``value('head')`` by convention: its value only)."""
    keep: Dict[str, str] = {}
    has_consumer = {c.source.name for c in net.connections}
    for ens in net.ensembles.values():
        if isinstance(ens, DataEnsemble):
            keep[ens.name] = "data"
        elif ens.name not in has_consumer:
            keep[ens.name] = "sink"
        if isinstance(ens, LossEnsemble):
            for c in ens.inputs:
                keep.setdefault(c.source.name, "loss feeder")
    return keep


def kept_buffers(net, plan: BufferPlan,
                 keep_alive: Optional[Iterable[str]] = ()) -> Dict[str, str]:
    """Value/grad base buffers kept inspectable, by why:
    ``'contract (<data|sink|loss feeder>)'`` for the program contract's
    ensembles (also where another ensemble shares the base; a loss
    feeder's gradient is not inspectable), ``'keep_alive'`` for the
    others ``keep_alive`` names; see :func:`plan_memory`."""
    alive = [str(e) for e in keep_alive or ()]
    unknown = set(alive) - net.ensembles.keys()
    if unknown:
        raise KeyError(
            f"keep_alive names unknown ensembles: {sorted(unknown)}"
        )
    why = [(e, "keep_alive", True) for e in reversed(alive)]
    why += [(e, f"contract ({kind})", kind != "loss feeder")
            for e, kind in reversed(_contract_ensembles(net).items())]
    # the contract last, and its first ensemble last of all
    return {plan.resolve_alias(name): reason
            for e, reason, grad in why
            for name in (plan.value_buf(e), plan.grad_buf(e))[:1 + grad]
            if name in plan.buffers}


# ---------------------------------------------------------------------------
# Forward-only buffer pruning (inference compilation)
# ---------------------------------------------------------------------------


def prune_unused_buffers(plan: BufferPlan, fwd_items, bwd_items,
                         keep_bufs: Iterable[str]) -> Dict[str, int]:
    """Drop buffer-table entries no scheduled item names.

    Used by inference compilation: with the backward program empty, the
    gradient/accumulator half of the table (``*_grad``, ``*_grad_inputs``,
    padded-gradient staging) is dead weight that would otherwise be
    allocated — or worse, admitted to the arena and distort its layout.

    Kept regardless of references:

    * role-``'field'`` storage — parameter values, other net-owned
      arrays and batch fields; a parameter's gradient is not kept, so
      none is ever allocated;
    * the values among ``keep_bufs`` (:func:`kept_buffers`): a data
      ensemble is fed even where the program no longer reads it, as
      the label of a loss a forward-only compile leaves out;
    * the full alias chain beneath any surviving buffer, and every alias
      of a surviving base — still its ensemble's name for it when fusion
      respelled a contracted group to the base.

    Returns counters for the compile report (``buffers_pruned`` and the
    ``bytes_pruned`` a training compile allocates for them).
    """
    dropped = unnamed_buffers(plan, fwd_items, bwd_items)
    dropped -= {n for n, spec in plan.buffers.items() if spec.role == "field"
                or spec.role == "value" and n in keep_bufs}
    dropped -= {n for n in dropped if plan.buffers[n].alias_of is not None
                and plan.resolve_alias(n) not in dropped}
    # every surviving alias needs the whole chain beneath it allocated
    for name in set(plan.buffers) - dropped:
        while (name := plan.buffers[name].alias_of) is not None:
            dropped.discard(name)
    pruned_bytes = 0
    for name in dropped:
        spec = plan.buffers.pop(name)
        if spec.alias_of is None:
            pruned_bytes += buffer_nbytes(plan, spec)
    return {"buffers_pruned": len(dropped), "bytes_pruned": pruned_bytes}


def drop_unwritten_data_grads(net, plan: BufferPlan, fwd, bwd) -> None:
    """Drop the gradient of every data ensemble no step back-propagates
    into (a softmax loss's label), with every alias spelling it: it
    would only be zeroed before each backward and read back as zeros.
    ``grad()`` of such an ensemble raises."""
    unnamed = unnamed_buffers(plan, fwd, bwd)
    for ens in net.ensembles.values():
        base = plan.grad_buf(ens.name)
        if not isinstance(ens, DataEnsemble) or base not in plan.buffers:
            continue
        names = [n for n in plan.buffers if plan.resolve_alias(n) == base]
        if unnamed.issuperset(names):
            for name in names:
                del plan.buffers[name]


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
    are unchanged bitwise. Extern items (norm/gather closures with
    interpreter-visible side effects) are additionally kept in their
    original relative order. Time-unrolled schedules are
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
    # scheduling and goes back in right before its reader — unless it
    # reads what a scheduled item writes (a value recomputed there)
    late: Set[int] = set()
    for i, it in enumerate(bwd_items):
        if all(u.tags.kind in REMATERIALIZING for u in it.units) and not any(
                view.depends(j, i) for j in range(i) if j not in late):
            late.add(i)
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
        if not plan.buffers[b].is_param
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
    plan: BufferPlan, fwd: list, bwd: list, keep_bufs=frozenset(),
    batch_rows: Optional[Callable[[int, int], int]] = None,
) -> Tuple[Dict[str, Rematerialized], Dict[str, str]]:
    """Re-run in backward the cheap forward work backward reads again,
    instead of holding what it defined across the phases.

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
    units and the planner overlays all of them on the same bytes.

    A batched value that backward reads again is recomputed the same
    way when the units defining it are cheap loop nests — no extern,
    nothing recurrent: a pooling layer's init and max. They are cloned
    (kind ``recompute``) right before the value's first backward reader
    (and the inits ahead of it), into a fresh ``<value>_re`` that every
    backward reader is respelled to, through any in-place alias of the
    value too. Values go after the copies, so that a re-pad reads the
    recomputed value, and the latest defined first, so that a value
    recomputed from another one is itself a backward reader of it.

    A value a GEMM defines is recomputed with its whole forward chain —
    pad, im2col copy, GEMM, bias, in-place activation — whose staging
    buffers the clones write as fresh ``<buffer>_rc``, and only when
    every source of that chain is held for the whole step anyway (a fed
    data value, parameters): vgg's ``conv1_value``. The clone is the
    forward units' own statements, tiled alike (same tile count, same
    GEMM shapes), so it gives the forward value's exact bits; tiling
    then runs it tile by tile with the row-wise gradients that read it
    (:mod:`repro.optim.tiling`), so ``<value>_re`` contracts to a tile.
    Its staging counts against what it saves, at the tile
    ``batch_rows(batch, row_bytes)`` gives (the batch tiling will run;
    the whole batch when tiling is off).

    Runs on the synthesized sections, before tiling. ``keep_bufs`` are
    the inspected value/grad bases (:func:`kept_buffers`), live to the
    program's end pooled or not, and never recomputed: re-running work
    from any other source extends that source's life, and a buffer
    whose bytes exceed the bytes so extended (and the staging so born)
    by less than arena alignment can cost is declined. Returns
    ``(rematerialized, declined)`` keyed by forward buffer, every value
    backward reads again that is kept across the phases with its
    reason: ``'time-unrolled'``, ``'opaque'`` (a gather closure or
    extern reader looks the buffer up by name), ``'aliased'`` (a unit
    spells it through a reshaped alias), ``'target-rewritten'``,
    ``'source-rewritten'``, ``'no-saving'`` and, for a GEMM's value,
    ``'source-not-held (<buffer>)'`` naming a source that is not held.
    """
    done: Dict[str, Rematerialized] = {}
    declined: Dict[str, str] = {}
    fwd_units = [u for sec in fwd for u in sec.units]
    seen: Dict[int, tuple] = {}
    units, view = _unit_view(plan, fwd_units, bwd, seen)
    n_fwd = view.n_forward

    def poolable(base: str) -> bool:
        spec = plan.buffers[base]
        return (not spec.is_param and spec.role != "field"
                and base not in keep_bufs)

    def spellings(q: int, base: str) -> Set[str]:
        return {name for name, _kind in unit_accesses(units[q])
                if name in plan.buffers and plan.resolve_alias(name) == base}

    def why_not(target: str, sources: Set[str], definers: List[int],
                readers: List[int], births: int = 0) -> Optional[str]:
        """Why re-running the forward points ``definers`` ahead of the
        backward points ``readers`` may not replace holding ``target``
        (``None`` when it may)."""
        records, first = view.records, readers[0]
        if plan.time_steps > 1:
            return "time-unrolled"
        if any(records[q].opaque for q in definers + readers):
            return "opaque"
        if any(plan.buffers[name].alias_reshape is not None
               for q in definers + readers for name in spellings(q, target)):
            return "aliased"
        if (view.intervals[target].first_kind != "w"
                or any(target in rec.writes for q, rec in enumerate(records)
                       if q not in definers)):
            return "target-rewritten"
        if any(rec.writes & sources
               for rec in records[definers[0] + 1:first]):
            return "source-rewritten"
        extended = sum(
            buffer_nbytes(plan, plan.buffers[b]) for b in sources
            if poolable(b) and view.intervals[b].last < first)
        if (buffer_nbytes(plan, plan.buffers[target]) - extended - births
                < ALIGN_BYTES):
            return "no-saving"
        return None

    def staging_bytes(staged: Set[str]) -> int:
        """Bytes of a recompute's staging buffers at the batch tile
        their chain will run (the whole batch when it is not tiled)."""
        per_image = {b: buffer_nbytes(plan, plan.buffers[b])
                     // plan.batch_size for b in staged}
        largest = max(per_image.values(), default=0)
        rows = (batch_rows(plan.batch_size, largest) if batch_rows
                else plan.batch_size)
        return rows * sum(per_image.values())

    def backward_readers(point: int, base: str) -> List[int]:
        return [q for q in view.readers_after(point, base) if q >= n_fwd]

    for point, unit in enumerate(fwd_units):
        if unit.tags.kind != "copy":
            continue
        reads, (target,) = unit_rw(plan, unit)
        readers = backward_readers(point, target)
        if plan.buffers[target].role != "input" or not readers:
            continue
        # the layer's pad (fill + interior copy) is re-run too, so what
        # backward reads again is the pad's source, not the padded buffer
        pads = [p for p in range(point) if view.records[p].writes & reads
                and fwd_units[p].tags.kind in ("pad_fill", "pad")]
        padded = frozenset().union(*(view.records[p].writes for p in pads))
        sources = (reads - padded).union(
            *(view.records[p].reads for p in pads))
        reason = why_not(target, sources, pads + [point], readers)
        if reason is not None:
            declined[target] = reason
            continue
        renames = {b: b + "_re" for b in [target, *sorted(padded)]}
        _clone_backward(plan, bwd, [(fwd_units[p], fwd_units[p].tags.kind)
                                    for p in pads] + [(unit, "regather")],
                        renames, [units[q] for q in readers])
        done[target] = Rematerialized(
            renames[target], ", ".join(sorted(sources)),
            f"{unit.tags.ensemble}.regather",
            buffer_nbytes(plan, plan.buffers[target]),
            ", ".join(sorted(renames[b] for b in padded)))

    # a view that sees the clones: a re-pad, and each recompute, is a
    # backward reader of what it reads
    units, view = _unit_view(plan, fwd_units, bwd, seen)
    definers: Dict[str, List[int]] = {}
    for point, rec in enumerate(view.records[:n_fwd]):
        for base in rec.writes:
            definers.setdefault(base, []).append(point)
    for value in sorted(definers, key=lambda b: -definers[b][0]):
        spec, points = plan.buffers[value], definers[value]
        readers = backward_readers(points[0], value)
        if (spec.role != "value" or not spec.batched or value in keep_bufs
                or not readers):
            continue
        # a GEMM's value is recomputed with its layer's pad and im2col
        # copy, and only from what the step holds anyway
        gemm = any(isinstance(fwd_units[p].stmt, Gemm) for p in points)
        staged = (_staging_definers(plan, view, definers, points) if gemm
                  else [])
        chain = sorted(points + staged)
        written = frozenset().union(*(view.records[p].writes for p in chain))
        sources = set().union(
            *(view.records[p].reads for p in chain)) - written
        unheld = sorted(b for b in sources if poolable(b))
        reason = (f"source-not-held ({unheld[0]})" if gemm and unheld
                  else why_not(value, sources, chain, readers,
                               staging_bytes(written - {value})))
        if reason is not None:
            declined[value] = reason
            continue
        renames = {name: value + "_re" for q in chain + readers
                   for name in spellings(q, value) | {value}}
        renames.update((b, b + "_rc") for b in sorted(written - {value}))
        kinds = [fwd_units[p].tags.kind for p in chain]
        _clone_backward(plan, bwd,
                        [(fwd_units[p], kind if kind in ("pad_fill", "pad")
                          else "recompute") for p, kind in zip(chain, kinds)],
                        renames, [units[q] for q in readers])
        done[value] = Rematerialized(
            renames[value],
            ", ".join(sorted(b for b in sources
                             if not plan.buffers[b].is_param)),
            "+".join(dict.fromkeys(f"{fwd_units[p].tags.ensemble}.recompute"
                                   for p in points)),
            buffer_nbytes(plan, spec),
            ", ".join(sorted(renames[b] for b in written
                             if plan.buffers[b].role == "padded")))
        units, view = _unit_view(plan, fwd_units, bwd, seen)
    return done, declined


class _Point(NamedTuple):
    """One unit as a point of a :class:`ProgramView`."""

    units: List[LoopUnit]
    access: StepAccess


def _unit_view(plan: BufferPlan, fwd_units: List[LoopUnit], bwd: list,
               seen: Dict[int, tuple]) -> Tuple[List[LoopUnit], ProgramView]:
    """The program's units in point order, and its view with one point
    per unit. ``seen`` keeps each unit's record by the statement it was
    taken of, so only new and respelled units are walked again."""
    def point(unit: LoopUnit) -> _Point:
        stmt, rec = seen.get(id(unit), (None, None))
        if stmt is not unit.stmt:
            rec = record(plan, FusedGroup([unit]))
            seen[id(unit)] = (unit.stmt, rec)
        return _Point([unit], rec)

    bwd_units = [u for sec in bwd for u in sec.units]
    return fwd_units + bwd_units, ProgramView(
        plan, [point(u) for u in fwd_units], [point(u) for u in bwd_units])


def _staging_definers(plan: BufferPlan, view: ProgramView,
                       definers: Dict[str, List[int]],
                       points: List[int]) -> List[int]:
    """The forward points ahead of ``points`` that define the staging
    buffers they read: a GEMM's im2col copy and, ahead of that, its
    layer's pad (zero-fill and interior copy)."""
    staged: List[int] = []
    todo = set().union(*(view.records[p].reads for p in points))
    while todo:
        base = todo.pop()
        if plan.buffers[base].role not in ("input", "padded"):
            continue
        for p in definers.get(base, ()):
            if p < points[0] and p not in staged:
                staged.append(p)
                todo |= view.records[p].reads
    return staged


def _clone_backward(plan: BufferPlan, bwd: list, originals,
                    renames: Dict[str, str], readers: List[LoopUnit]) -> None:
    """Clone the forward ``(unit, kind)`` pairs ``originals``, tagged
    ``kind``, into the backward section right before ``readers[0]``,
    each spelling the fresh buffer ``renames[b]`` (``b``'s spec under a
    new name) for every ``b`` it spells that ``renames`` maps; the
    backward ``readers`` are respelled to read them."""
    for b, fresh in renames.items():
        if plan.buffers[b].alias_of is None:
            plan.add(replace(plan.buffers[b], name=fresh))
    for reader in readers:
        reader.stmt = respelled(reader.stmt, renames)
    clones = [
        LoopUnit([replace(sp) for sp in u.loops], respelled(u.stmt, renames),
                 replace(u.tags, kind=kind, direction="backward"))
        for u, kind in originals]
    at, i = next((sec.units, i) for sec in bwd
                 for i, u in enumerate(sec.units) if u is readers[0])
    # ahead of a recomputed pool's fill too, when its max reads them:
    # the fill stays next to the max
    while i and at[i - 1].tags.kind == "recompute" and not unit_rw(
            plan, at[i - 1])[0]:
        i -= 1
    at[i:i] = clones


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


def plan_memory(plan: BufferPlan, fwd_items, bwd_items,
                inspected: Dict[str, str]) -> MemoryPlan:
    """Compute the arena layout for one compiled schedule.

    ``inspected`` are the value/grad bases ``value()``/``grad()`` answer
    for (:func:`kept_buffers`): the program contract's — data
    ensembles, network sinks and loss feeders — and ``keep_alive``'s.
    One that a step of the program defines pools like any other
    candidate, with its interval extended to the program's last point
    (time-unrolled: into every later phase), so no later step reuses its
    bytes before the next ``forward()``. The ones the caller defines —
    data values (fed) and sinks' gradients (seeded through
    ``backward(seed_grads=)``), and any no step touches — stay whole.

    The arena is laid out once per greedy order of :data:`ORDERS`
    (:func:`_lay_out`), and the layout with the smallest
    ``planned_bytes`` is kept (``MemoryPlan.order``).
    """
    mem = MemoryPlan()
    mem.inspected = {b: why for b, why in inspected.items()
                     if b in plan.buffers}
    view = ProgramView(plan, fwd_items, bwd_items)
    intervals = mem.intervals = view.intervals
    mem.points = (view.n_forward, len(view.records) - view.n_forward)
    caller = _caller_defined(plan, mem.inspected)

    # (a contracted staging buffer's per-shard copies are scratch, not
    # partial sums of it: the buffer itself pools like any other)
    privatized = {
        plan.resolve_alias(n)
        for n in plan.private_accums
        if n in plan.buffers and not plan.buffers[n].tile
    }

    def keep_reason(base: str, spec: BufferSpec) -> Optional[str]:
        iv = intervals[base]
        if spec.is_param:
            return "parameter"
        if spec.role == "field":
            return "field"  # net-owned arrays and batch fields
        if base in privatized:
            return "privatized"
        if base in view.recurrent:
            return "recurrent"
        if base in caller or (iv.dead and base in mem.inspected):
            return "caller-defined"
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
    sizes = {b: buffer_nbytes(plan, plan.buffers[b]) for b in candidates}
    late = [b for b in candidates if b in mem.inspected]
    candidates = [b for b in candidates if b not in mem.inspected]
    # breadth is taken over the intervals the steps give, before the
    # inspected ones are held to the program's end
    keys = _greedy_orders(sizes, intervals, len(view.records))
    for base in late:
        live_to_end(intervals[base], view)
    multiphase = plan.time_steps > 1

    def conflicts(a: str, b: str) -> bool:
        ia, ib = intervals[a], intervals[b]
        if ia.dead or ib.dead:
            return False
        if multiphase:
            # the linear model is only sound across the phase barrier
            return bool(ia.phases & ib.phases)
        return ia.overlaps(ib)

    layouts = [(order, *_lay_out(candidates, late, sizes, conflicts,
                                 keys[order]))
               for order in ORDERS]
    # by the plan's total less the bytes no layout moves: the arena less
    # what it holds; ``min`` keeps the earliest order on a tie
    mem.order, offsets, top, kept = min(
        layouts, key=lambda l: l[2] - sum(sizes[b] for b in l[1]))
    mem.kept_reasons.update(kept)
    mem.offsets = offsets
    mem.arena_bytes = top
    mem.pooled = frozenset(offsets)
    # the floor any layout of them has: the most pooled bytes live
    # together (time-unrolled: touched in one phase)
    pooled = {b: sizes[b] for b in offsets}
    if multiphase:
        mem.live_bytes = max(
            sum(n for b, n in pooled.items() if phase in intervals[b].phases)
            for phase in ("forward", "backward"))
    else:
        mem.live_bytes = max(
            _live_at_points(pooled, intervals, len(view.records)), default=0)

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
        if spec.alias_of is not None or spec.is_param:
            continue
        nbytes = buffer_nbytes(plan, spec)
        naive += nbytes
        if base not in mem.pooled:
            planned += nbytes
    mem.naive_bytes = naive
    mem.planned_bytes = planned + mem.arena_bytes
    return mem


def _caller_defined(plan: BufferPlan, inspected: Dict[str, str]) -> Set[str]:
    """The inspected bases the caller defines, not a step: data values
    (fed by ``forward()``) and sinks' gradients (seeded by
    ``backward(seed_grads=)`` after the pre-backward zeroing, which a
    scheduled zero def would clobber)."""
    return {b for b, why in inspected.items()
            if (why, plan.buffers[b].role) in (("contract (data)", "value"),
                                               ("contract (sink)", "grad"))}


def live_to_end(iv: Interval, view: ProgramView) -> None:
    """Extend an inspected buffer's interval to the program's last point
    and, time-unrolled, into its last phase: no step after the one that
    writes it reuses its bytes, so it reads back after the call returns
    (:func:`repro.testing.oracle.arena_fault` checks this)."""
    last = len(view.records) - 1
    iv.last = last
    iv.phases.add(view.phase(last))


def _aligned(nbytes: int) -> int:
    return -(-nbytes // ALIGN_BYTES) * ALIGN_BYTES


def place_offsets(buffers: Iterable[str], sizes: Dict[str, int],
                  conflicts: Callable[[str, str], bool],
                  key: Callable[[str], tuple],
                  placed: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Byte offset of every buffer in one arena: a greedy placement for
    offset calculation (Pisarchyk & Lee 2020, arXiv:2001.03288).

    The buffers are placed in ``key`` order (a sort key of
    :func:`_greedy_orders`); each one goes into the smallest gap, at
    ``ALIGN_BYTES``, that fits it among the byte ranges of the
    already-placed buffers it ``conflicts`` with (``placed`` ones
    first), or above the highest of them when none does. Buffers that
    never conflict share bytes.
    """
    offsets: Dict[str, int] = dict(placed or {})
    for b in sorted(buffers, key=key):
        best, best_gap, end = None, None, 0
        for off, top in sorted((offsets[p], offsets[p] + sizes[p])
                               for p in offsets if conflicts(b, p)):
            gap = off - end
            if gap >= sizes[b] and (best_gap is None or gap < best_gap):
                best, best_gap = end, gap
            end = max(end, _aligned(top))
        offsets[b] = end if best is None else best
    return offsets


def _lay_out(candidates: List[str], late: List[str], sizes: Dict[str, int],
             conflicts: Callable[[str, str], bool],
             key: Callable[[str], tuple]
             ) -> Tuple[Dict[str, int], int, Dict[str, str]]:
    """One arena layout in the greedy order ``key``: ``(offsets, arena
    top, kept_reasons)``, the buffers it leaves out as ``no-saving``.

    A run of pooled buffers whose byte ranges chain together that, once
    aligned, is larger than its members would be on their own is taken
    out of the pool and the rest placed again: a lone small tenant (or,
    under the phase-disjoint rule, a few of them) only pays the
    alignment, and enough of those make the plan *larger* than no plan.
    The inspected ``late`` buffers go in last, each only where it grows
    the arena by less than its own bytes: live to the end, one placed
    among the others can push their tenants up, and the plan grow by
    more than keeping it whole (cnn_b keeping every ensemble: +64 B).
    """
    kept: Dict[str, str] = {}
    while True:
        offsets = place_offsets(candidates, sizes, conflicts, key)
        wasteful = [run for run, span in _byte_runs(offsets, sizes)
                    if span > sum(sizes[b] for b in run)]
        if not wasteful:
            break
        for run in wasteful:
            kept.update((b, "no-saving") for b in run)
        candidates = [b for b in candidates if b not in kept]
    top = max((offsets[b] + sizes[b] for b in offsets), default=0)
    for b in sorted(late, key=lambda b: (-sizes[b], b)):
        trial = place_offsets([b], sizes, conflicts, key, offsets)
        grown = max(top, trial[b] + sizes[b]) - top
        if grown < sizes[b]:
            offsets, top = trial, top + grown
        else:
            kept[b] = "no-saving"
    return offsets, top, kept


def _greedy_orders(sizes: Dict[str, int], intervals: Dict[str, Interval],
                   n_points: int) -> Dict[str, Callable[[str], tuple]]:
    """The sort key of each of :data:`ORDERS` over the ``sizes``
    buffers, each the largest first, ties by size and then by name:
    ``size`` alone, ``breadth`` (the most bytes of them live at any
    point of the buffer's interval; Pisarchyk & Lee's greedy by
    breadth) and ``length`` (the longest interval)."""
    live = _live_at_points(sizes, intervals, n_points)
    breadths = {b: max(live[intervals[b].first:intervals[b].last + 1],
                       default=0)  # a dead buffer's slice is empty
                for b in sizes}
    return {
        "size": lambda b: (-sizes[b], b),
        "breadth": lambda b: (-breadths[b], -sizes[b], b),
        "length": lambda b: (intervals[b].first - intervals[b].last,
                             -sizes[b], b),
    }


def _live_at_points(sizes: Dict[str, int], intervals: Dict[str, Interval],
                    n_points: int) -> List[int]:
    """Bytes of the ``sizes`` buffers live at each program point, in one
    sweep; at a batch-tiled group's point the buffers contracted to it
    count by their unit ranges, as :meth:`Interval.overlaps` does (the
    most bytes at any one unit)."""
    change = [0] * (n_points + 1)
    tiled: Dict[int, Counter] = {}
    for b, nbytes in sizes.items():
        iv = intervals[b]
        if iv.dead:
            continue
        if iv.units:
            at_unit = tiled.setdefault(iv.first, Counter())
            for u in range(iv.units[0], iv.units[1] + 1):
                at_unit[u] += nbytes
        else:
            change[iv.first] += nbytes
            change[iv.last + 1] -= nbytes
    live, total = [], 0
    for point in range(n_points):
        total += change[point]
        live.append(total + max(tiled.get(point, {}).values(), default=0))
    return live


def _byte_runs(offsets: Dict[str, int], sizes: Dict[str, int]
               ) -> Iterator[Tuple[List[str], int]]:
    """The arena split where no buffer's byte range crosses: each run
    of buffers whose ``[offset, offset + nbytes)`` ranges chain together,
    with the bytes it spans up to the next run's start (the arena's end
    for the last run)."""
    run: List[str] = []
    start = end = 0
    for b in sorted(offsets, key=lambda b: (offsets[b], b)):
        if run and offsets[b] >= end:
            yield run, offsets[b] - start
            run, start = [], offsets[b]
        run.append(b)
        end = max(end, offsets[b] + sizes[b])
    if run:
        yield run, end - start
