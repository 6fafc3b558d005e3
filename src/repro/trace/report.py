"""Runtime profile aggregation and the paper-style printed table.

Turns the flat span stream of a :class:`~repro.trace.tracer.
RecordingTracer` into per-step and per-ensemble attributions: for each
(phase, step label) the number of executions, total/mean wall time, share
of the phase, bytes touched and GEMM FLOPs — the data behind the paper's
"where does the iteration go" breakdowns (Figs. 13-15).

Fused groups carry labels like ``conv1.compute+relu1.compute+pool1.copy``;
the per-ensemble rollup credits such a group's time to each member
ensemble in equal parts (noted in the table), since the runtime cannot
observe intra-group boundaries — that is precisely what fusion removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.trace.tracer import Span

#: span categories considered runtime execution phases by default
RUNTIME_PHASES = ("forward", "backward")


@dataclass
class ProfileRow:
    """Aggregate of all executions of one step within one phase."""

    phase: str
    name: str
    count: int = 0
    total: float = 0.0
    bytes: int = 0
    flops: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, span: Span) -> None:
        self.count += 1
        self.total += span.dur
        self.bytes += int(span.args.get("bytes", 0) or 0)
        self.flops += int(span.args.get("flops", 0) or 0)


@dataclass
class ProfileReport:
    """Per-step aggregation of a recorded trace."""

    rows: List[ProfileRow] = field(default_factory=list)
    phase_totals: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_spans(cls, spans: Iterable[Span],
                   phases: Optional[Sequence[str]] = None) -> "ProfileReport":
        phases = tuple(phases) if phases is not None else RUNTIME_PHASES
        keyed: Dict[Tuple[str, str], ProfileRow] = {}
        for span in spans:
            if span.cat not in phases:
                continue
            row = keyed.get((span.cat, span.name))
            if row is None:
                row = keyed[(span.cat, span.name)] = ProfileRow(
                    span.cat, span.name
                )
            row.add(span)
        rows = sorted(keyed.values(), key=lambda r: -r.total)
        totals: Dict[str, float] = {}
        for row in rows:
            totals[row.phase] = totals.get(row.phase, 0.0) + row.total
        return cls(rows, totals)

    @property
    def total(self) -> float:
        """Wall time attributed to named steps across all phases."""
        return sum(self.phase_totals.values())

    def by_ensemble(self) -> Dict[str, float]:
        """Total seconds credited per ensemble.

        A fused group's time is split equally across its distinct member
        ensembles (see module docstring).
        """
        out: Dict[str, float] = {}
        for row in self.rows:
            members = sorted({part.split(".", 1)[0]
                              for part in row.name.split("+")})
            share = row.total / len(members)
            for m in members:
                out[m] = out.get(m, 0.0) + share
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    # -- rendering -----------------------------------------------------------

    def table(self, max_rows: Optional[int] = None) -> str:
        """The paper-style printed breakdown."""
        lines: List[str] = []
        name_w = max([len(r.name) for r in self.rows] + [4])
        name_w = min(name_w, 56)
        header = (
            f"{'phase':9s} {'step':{name_w}s} {'count':>5s} "
            f"{'total(s)':>9s} {'mean(ms)':>9s} {'%phase':>6s} "
            f"{'MB':>8s} {'GFLOP':>7s}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        for r in shown:
            phase_total = self.phase_totals.get(r.phase, 0.0) or 1e-12
            lines.append(
                f"{r.phase:9s} {r.name[:name_w]:{name_w}s} {r.count:5d} "
                f"{r.total:9.4f} {r.mean * 1e3:9.3f} "
                f"{100 * r.total / phase_total:5.1f}% "
                f"{r.bytes / 1e6:8.1f} {r.flops / 1e9:7.2f}"
            )
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        for phase, total in self.phase_totals.items():
            lines.append(f"{phase:9s} total {total:.4f}s")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()


@dataclass
class MemoryReport:
    """Printed view of a compiled net's buffer-memory footprint: the
    arena planner's byte offsets and peak-bytes accounting (naive =
    every non-parameter buffer individually allocated, planned = after
    interval-based reuse)."""

    naive_bytes: int
    planned_bytes: int
    arena_bytes: int
    #: (offset_bytes, size_bytes, buffer name, (first, last) live
    #: point) per pooled buffer, by offset; a dead buffer lives at
    #: ``(-1, -1)``
    placements: List[Tuple[int, int, str, Tuple[int, int]]] = field(
        default_factory=list)
    #: buffer -> reason it was excluded from pooling (a layout reason)
    kept_reasons: Dict[str, str] = field(default_factory=dict)
    #: buffer ``value()``/``grad()`` answer for -> why (``contract
    #: (…)`` or ``keep_alive``), pooled or kept
    inspected: Dict[str, str] = field(default_factory=dict)
    #: staging buffer -> its backward re-gather (a ``liveness.
    #: Rematerialized``) / why it is retained across the phases instead
    rematerialized: Dict[str, object] = field(default_factory=dict)
    declined: Dict[str, str] = field(default_factory=dict)
    #: contracted staging buffer -> (allocated bytes, batch rows it
    #: holds, batch size, its group's label) / over-budget staging
    #: buffer whose chain could not be batch-tiled -> why
    contracted: Dict[str, Tuple[int, int, int, str]] = field(
        default_factory=dict)
    untiled: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_compiled(cls, cnet) -> "MemoryReport":
        stats = cnet.memory_stats()
        mem = cnet.plan.memory
        report = cls(stats["naive_bytes"], stats["planned_bytes"],
                     stats["arena_bytes"])
        if mem is not None:
            report.placements = sorted(
                (off, cnet.buffers[name].nbytes, name,
                 (mem.intervals[name].first, mem.intervals[name].last))
                for name, off in mem.offsets.items())
            report.kept_reasons = dict(mem.kept_reasons)
            report.inspected = dict(mem.inspected)
            report.rematerialized = dict(mem.rematerialized)
            report.declined = dict(mem.declined)
        plan = cnet.plan
        report.contracted = {
            name: (cnet.buffers[name].nbytes, plan.buffers[name].tile,
                   plan.batch_size, label)
            for name, label in plan.contracted.items()}
        report.untiled = dict(plan.untiled)
        return report

    @property
    def saved_bytes(self) -> int:
        return self.naive_bytes - self.planned_bytes

    @property
    def reuse_fraction(self) -> float:
        return self.saved_bytes / self.naive_bytes if self.naive_bytes else 0.0

    def decisions(self) -> List[str]:
        """One row per staging copy read again in backward: re-gathered
        there (bytes no longer retained, source, re-gather unit) or
        retained, with the reason; one per staging buffer contracted to
        its group's batch tile, one per chain left whole-batch, and one
        per inspected buffer in the arena, with its offset."""
        offsets = {name: off for off, _size, name, _live in self.placements}
        rows = [
            f"re-gathered {name}: {r.nbytes / 1024:.1f} KB from {r.source}"
            + (f" (re-padded into {r.padded})" if r.padded else "")
            + f" by {r.label}"
            for name, r in self.rematerialized.items()
        ]
        rows += [f"retained {name}: {reason}"
                 for name, reason in self.declined.items()]
        rows += [
            f"contracted {name}: {nbytes * batch / tile / 1024:.1f} KB → "
            f"{nbytes / 1024:.1f} KB, tile {tile} of {batch}, group {label}"
            for name, (nbytes, tile, batch, label) in self.contracted.items()
        ]
        rows += [f"whole-batch {name}: {reason}"
                 for name, reason in self.untiled.items()]
        rows += [f"inspected {name} at offset {offsets[name]}: readable "
                 f"until the next forward ({why})"
                 for name, why in self.inspected.items() if name in offsets]
        return rows

    def table(self) -> str:
        lines = [
            f"peak buffer bytes: {self.planned_bytes / 1e6:.2f} MB planned"
            f" vs {self.naive_bytes / 1e6:.2f} MB naive"
            f" ({100 * self.reuse_fraction:.1f}% reuse)",
        ]
        lines += self.decisions()
        if not self.placements:
            lines.append("no arena (memory planner off or nothing pooled)")
            return "\n".join(lines)
        lines.append(
            f"arena: {self.arena_bytes / 1e6:.2f} MB holding "
            f"{len(self.placements)} buffers"
        )
        header = f"{'offset':>10s} {'KB':>9s} {'live':>11s}  buffer"
        lines.append(header)
        lines.append("-" * len(header))
        for off, size, name, (first, last) in self.placements:
            live = "dead" if first < 0 else f"{first}..{last}"
            lines.append(f"{off:10d} {size / 1024:9.1f} {live:>11s}  {name}")
        if self.kept_reasons:
            counts: Dict[str, int] = {}
            for reason in self.kept_reasons.values():
                counts[reason] = counts.get(reason, 0) + 1
            kept = ", ".join(f"{r}: {n}" for r, n in sorted(counts.items()))
            lines.append(f"kept out of pool — {kept}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()
