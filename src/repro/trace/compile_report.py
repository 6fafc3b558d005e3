"""Compiler-pass instrumentation records.

``optim.pipeline.compile_net`` runs its passes in one loop and records
what each did: wall time, the units (loop units, or schedule steps once
fusion has built the schedule) before and after, and the counters the
pass returns ("matched 6 GEMMs", "fused 3 tile groups"). The result is
attached to the compiled network as ``CompiledNet.compile_report`` so
the rewrites that produced the program (``source``, and the native
program ``c_source``) are inspectable next to it — the attribution
DeepDSL/LazyTensor argue compiler-based DL stacks need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class PassRecord:
    """One optimization pass's instrumentation record: ``rewrites`` are
    program facts, which follow from the compiled program alone;
    ``env`` are environment facts (build seconds, job counts, a warm
    build directory), which the same program may read differently on
    another run or machine."""

    name: str
    enabled: bool
    wall_time: float = 0.0
    units_before: int = 0
    units_after: int = 0
    rewrites: Dict[str, int] = field(default_factory=dict)
    env: Dict[str, float] = field(default_factory=dict)

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
        total = f"compile total {self.compile_seconds * 1e3:.2f}ms"
        if self.cache_hit:
            total += f" (warm cache hit {self.cache_key[:12]})"
        lines.append(total)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()

