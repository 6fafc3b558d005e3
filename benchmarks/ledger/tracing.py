"""Bench-side spans: recorded from outside the program, around the
calls into each layer's public functions.

Spans are ``(id, parent_id, name, start, end, op)`` tuples kept in
memory; ``op`` is the identifier shared by every span of one training
step. A disabled recorder is the untraced stand-in: same calls, no
recording, so the measured path is identical minus the bookkeeping.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from stats import self_times


class Spans:
    """In-memory span recorder with a parent stack."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.rows: List[Tuple[int, Optional[int], str, float, float,
                              Optional[str]]] = []
        self._stack: List[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        """Time the block; yields the span's id (``None`` when
        disabled) for use as the parent of spans added inside it."""
        if not self.enabled:
            yield None
            return
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows.append((sid, parent, name, start, end, op))

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], op: Optional[str] = None) -> Optional[int]:
        """Record a span from timestamps the caller already took (the
        training step's boundaries), so the timed path itself carries
        no recording code. Returns the span id for use as a parent."""
        if not self.enabled:
            return None
        sid = self._next
        self._next += 1
        self.rows.append((sid, parent, name, start, end, op))
        return sid

    def self_time_table(self) -> Dict[str, float]:
        """Seconds of self time per span name (span minus the part its
        children cover)."""
        return self_times([r[:5] for r in self.rows])

    def write_chrome_trace(self, path: str) -> None:
        """Complete-event (``ph: X``) Chrome/Perfetto trace, one track,
        nesting by time; ``args.op`` carries the shared step/request id."""
        origin = min((r[3] for r in self.rows), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": sid, "parent": parent, "op": op}}
            for sid, parent, name, start, end, op in self.rows
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)

