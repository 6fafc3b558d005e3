"""Who reads and writes what: the one def/use record of a schedule.

The paper's compiler makes its memory decisions from one analysis of
which computation touches which buffer (§5.2 shared-variable analysis,
§5.4 fusion legality). This module is that analysis for the scheduled
program, and the only place outside :mod:`repro.ir` that turns a
statement into buffer accesses:

* :func:`unit_accesses` — one unit's ordered ``(buffer, 'r'|'w')``
  accesses, from :func:`~repro.ir.buffers_read` /
  :func:`~repro.ir.buffers_written`; an extern step contributes exactly
  the ``reads``/``writes`` it declares;
* :func:`record` — one alias-folded :class:`StepAccess` per schedule
  item, which the item's compiled ``Step`` keeps;
* :class:`ProgramView` — the whole-program queries every pass asks:
  first/last access and its kind per base buffer, readers after a
  point, whether two items may swap, recurrent and extern-touched
  bases.

The schedule is straight-line — forward items then backward items, one
*point* each — so there is no CFG and no phi node: dominance is list
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.ir import CommCall, ExternOp, buffers_read, buffers_written

#: ``(buffer name, 'r' | 'w')``
Access = Tuple[str, str]


def unit_accesses(unit) -> List[Access]:
    """Accesses of one unit in execution order, named as the statement
    spells them (aliases unfolded).

    ``'r'`` covers plain reads, the target of a reduction, index arrays
    and an extern's declared reads; a statement's reads precede its
    writes, so a buffer whose first access is ``'w'`` is defined before
    any use.
    """
    return ([(b, "r") for b in sorted(buffers_read(unit.stmt))]
            + [(b, "w") for b in sorted(buffers_written(unit.stmt))])


def item_accesses(item) -> Iterator[Access]:
    """:func:`unit_accesses` over a schedule item's units; a comm call
    reads the gradients it reduces."""
    if isinstance(item, CommCall):
        return ((b, "r") for b in item.params)
    return (a for unit in item.units for a in unit_accesses(unit))


def _fold(plan, accesses) -> Iterator[Access]:
    """Resolve names to base buffers; names outside the plan drop out."""
    return ((plan.resolve_alias(name), kind) for name, kind in accesses
            if name in plan.buffers)


def unit_rw(plan, unit) -> Tuple[frozenset, frozenset]:
    """Base buffers one unit reads / writes."""
    rec = StepAccess(tuple(_fold(plan, unit_accesses(unit))))
    return rec.reads, rec.writes


def unnamed_buffers(plan, fwd_items, bwd_items) -> Set[str]:
    """Buffer-table names (aliases included) no scheduled item spells:
    no access at all, not even through the name's base."""
    named = {name for items in (fwd_items, bwd_items) for item in items
             for name, _kind in item_accesses(item)}
    return set(plan.buffers) - named


@dataclass(frozen=True)
class StepAccess:
    """Alias-folded def/use record of one schedule item — and of the
    compiled ``Step`` generated from it."""

    #: ``(base buffer, kind)`` in execution order
    accesses: Tuple[Access, ...] = ()
    #: an extern closure or a comm call: interpreter-visible state, so
    #: two opaque steps never change their relative order
    opaque: bool = False

    @cached_property
    def reads(self) -> frozenset:
        return frozenset(b for b, kind in self.accesses if kind == "r")

    @cached_property
    def writes(self) -> frozenset:
        return frozenset(b for b, kind in self.accesses if kind == "w")

    @property
    def touched(self) -> frozenset:
        return self.reads | self.writes


def record(plan, item) -> StepAccess:
    """The :class:`StepAccess` of one schedule item."""
    return StepAccess(
        tuple(_fold(plan, item_accesses(item))),
        isinstance(item, CommCall) or any(
            isinstance(u.stmt, ExternOp) for u in item.units),
    )


@dataclass
class Interval:
    """Live range of one base buffer over the linearized program."""

    buffer: str
    #: linear point of the first/last access (-1 when never touched)
    first: int = -1
    last: int = -1
    #: phases ('forward'/'backward') with at least one access
    phases: Set[str] = field(default_factory=set)
    #: kind of the first access: 'w' (defined before use), 'r' (read or
    #: read-modify-write of earlier contents), None (dead)
    first_kind: Optional[str] = None
    #: for a buffer contracted to a batch-tiled group (whose one point
    #: is ``first == last``): the first and last of that group's units
    #: touching it; ``None`` otherwise
    units: Optional[Tuple[int, int]] = None

    @property
    def dead(self) -> bool:
        return self.first < 0

    def overlaps(self, other: "Interval") -> bool:
        if self.dead or other.dead:
            return False
        if self.units and other.units and self.first == other.first:
            # contracted to one group: each tile iteration writes both
            # before reading them, so only their unit ranges can clash
            return (self.units[0] <= other.units[1]
                    and other.units[0] <= self.units[1])
        return self.first <= other.last and other.first <= self.last


class ProgramView:
    """Def/use queries over one scheduled program.

    ``fwd``/``bwd`` are the schedule's items — or the compiled steps
    generated from them, which kept their records
    (``ProgramView(cnet.plan, cnet.compiled.forward,
    cnet.compiled.backward)``). Points number the forward records
    ``0 .. F-1`` and the backward records ``F .. F+B-1``.
    """

    def __init__(self, plan, fwd, bwd):
        items = list(fwd) + list(bwd)
        self.records: List[StepAccess] = [
            getattr(it, "access", None) or record(plan, it) for it in items]
        self.n_forward = len(fwd)
        #: bases some step reads (or scatters into) at the previous
        #: time step
        self.recurrent = frozenset(
            plan.resolve_alias(n) for it in items
            for n in getattr(it, "recurrent_reads", ()) if n in plan.buffers)
        #: base buffer -> live interval; dead bases included
        self.intervals: Dict[str, Interval] = {}
        #: base buffer -> index *into the backward list* of the first
        #: backward item touching it
        self.first_backward: Dict[str, int] = {}
        for point, rec in enumerate(self.records):
            phase = self.phase(point)
            for base, kind in rec.accesses:
                iv = self.intervals.get(base)
                if iv is None:
                    iv = self.intervals[base] = Interval(
                        base, point, first_kind=kind)
                iv.last = point
                iv.phases.add(phase)
                if phase == "backward":
                    self.first_backward.setdefault(
                        base, point - self.n_forward)
        for name, spec in plan.buffers.items():
            if spec.alias_of is None:
                self.intervals.setdefault(name, Interval(name))
        # inside a group, a contracted buffer is live between the first
        # and the last unit touching it
        for item in items:
            contracted = getattr(item, "contracted", ())
            touched = [frozenset().union(*unit_rw(plan, unit))
                       for unit in item.units] if contracted else ()
            for base in contracted:
                touching = [i for i, bases in enumerate(touched)
                            if base in bases]
                self.intervals[base].units = (touching[0], touching[-1])

    def phase(self, point: int) -> str:
        return "forward" if point < self.n_forward else "backward"

    def readers_after(self, point: int, base: str) -> List[int]:
        """Points after ``point`` that read ``base`` — "who reads this
        region next?" is the first element."""
        return [p for p in range(point + 1, len(self.records))
                if base in self.records[p].reads]

    def depends(self, i: int, j: int) -> bool:
        """Must point ``j`` stay after point ``i < j``? True on a
        read-after-write, write-after-read or write-after-write of any
        base, and between two opaque steps."""
        a, b = self.records[i], self.records[j]
        return bool((a.writes & b.touched) or (a.reads & b.writes)
                    or (a.opaque and b.opaque))

    @cached_property
    def opaque_touched(self) -> frozenset:
        """Bases an extern closure (or comm call) reads or writes."""
        return frozenset().union(
            *(r.touched for r in self.records if r.opaque))
