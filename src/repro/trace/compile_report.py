"""Compiler-pass instrumentation records.

``optim.pipeline.compile_net`` wraps each optimization pass and records
what it did: wall time, loop-unit counts before/after, and pass-specific
rewrite counters ("matched 6 GEMMs", "fused 3 tile groups"). The result
is attached to the compiled network as ``CompiledNet.compile_report`` so
the rewrites that produced the program (``source``, and the native
program ``c_source``) are inspectable next to it —
the attribution DeepDSL/LazyTensor argue compiler-based DL stacks need.

Counting helpers here operate on the middle-end's ``Section``/unit lists
and the final schedule; they are read-only and cheap, so the report is
built unconditionally (compilation happens once, execution many times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir import CommCall, Gemm


@dataclass
class PassRecord:
    """One optimization pass's instrumentation record."""

    name: str
    enabled: bool
    wall_time: float = 0.0
    units_before: int = 0
    units_after: int = 0
    rewrites: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """Human summary, e.g. ``matched 6 GEMMs``."""
        if not self.enabled:
            return "disabled"
        if not self.rewrites:
            return "no rewrites"
        return ", ".join(
            f"{k.replace('_', ' ')}: {v}" for k, v in self.rewrites.items()
        )


@dataclass
class CompileReport:
    """Ordered pass records for one ``compile_net`` invocation."""

    records: List[PassRecord] = field(default_factory=list)
    total_time: float = 0.0
    #: wall-clock seconds of the whole ``compile_net`` call (passes plus
    #: synthesis and codegen), or of the cache thaw that replaced it —
    #: the number cold-vs-warm boot benchmarks compare
    compile_seconds: float = 0.0
    #: filled by the persistent compilation cache (repro.cache): the
    #: entry's content-hash key, whether this program was thawed from it
    #: (every pass skipped), and the entry's creation timestamp
    cache_key: Optional[str] = None
    cache_hit: bool = False
    cache_created: Optional[float] = None

    def add(self, record: PassRecord) -> PassRecord:
        self.records.append(record)
        self.total_time += record.wall_time
        return record

    def __getitem__(self, name: str) -> PassRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(r.name == name for r in self.records)

    def rewrite_count(self, pass_name: str, counter: Optional[str] = None) -> int:
        """Total rewrites of one pass (or one named counter of it)."""
        rec = self[pass_name]
        if counter is not None:
            return rec.rewrites.get(counter, 0)
        return sum(rec.rewrites.values())

    def table(self) -> str:
        header = (
            f"{'pass':14s} {'on':>3s} {'ms':>8s} {'units':>11s}  rewrites"
        )
        lines = [header, "-" * len(header)]
        for r in self.records:
            units = f"{r.units_before}->{r.units_after}" if r.enabled else "-"
            lines.append(
                f"{r.name:14s} {'yes' if r.enabled else 'no':>3s} "
                f"{r.wall_time * 1e3:8.2f} {units:>11s}  {r.describe()}"
            )
        total = f"compile total {self.total_time * 1e3:.2f}ms"
        if self.cache_hit:
            total += f" (warm cache hit {self.cache_key[:12]})"
        lines.append(total)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()


# ---------------------------------------------------------------------------
# Counting helpers over sections / schedules
# ---------------------------------------------------------------------------


def count_units(sections) -> int:
    return sum(len(sec.units) for sec in sections)


def count_gemms(sections) -> int:
    return sum(
        1 for sec in sections for u in sec.units if isinstance(u.stmt, Gemm)
    )


def count_kind(sections, kind: str) -> int:
    return sum(
        1 for sec in sections for u in sec.units if u.tags.kind == kind
    )


def count_tiled(sections) -> int:
    return sum(
        1
        for sec in sections
        for u in sec.units
        if u.loops and u.loops[0].role == "tile"
    )


def count_inlined(plan) -> int:
    return sum(1 for c in plan.conn_plans.values() if c.mode == "inlined")


def count_schedule(items) -> Dict[str, int]:
    """Schedule-level counters: total steps, fused groups, member units,
    and the batch-tiled chains that joined the group of the chain before
    them."""
    steps = fused = fused_units = joined = 0
    for item in items:
        if isinstance(item, CommCall):
            continue
        steps += 1
        if len(item.units) > 1:
            fused += 1
            fused_units += len(item.units)
            joined += len({u.tags.chain for u in item.units}) - 1
    return {"steps": steps, "fused_groups": fused,
            "fused_units": fused_units, "chains_joined": joined}
