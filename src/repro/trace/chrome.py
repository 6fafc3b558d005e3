"""Chrome trace-event JSON export.

Writes the recorded spans in the Trace Event Format accepted by
``chrome://tracing`` and Perfetto: one complete ('X') event per span,
timestamps in microseconds, one virtual thread per span category so
forward/backward/compile/simulator tracks render as separate rows.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.trace.tracer import Span

#: stable thread ordering for the known categories; unknown categories
#: are appended in first-seen order after these
_CAT_ORDER = (
    "forward",
    "backward",
    "train",
    "compile",
    "sim.compute",
    "sim.comm",
    "sim.transfer",
)


def to_trace_events(spans: Iterable[Span]) -> List[dict]:
    """Convert spans to a Trace Event Format event list.

    Spans carrying a ``shard`` arg (thread-parallel execution) get one
    virtual thread per (category, shard) — e.g. ``forward.s0`` /
    ``forward.s1`` — so shard overlap is visible as parallel rows.
    """
    tids: Dict[str, int] = {}

    def tid(track: str) -> int:
        if track not in tids:
            tids[track] = (
                _CAT_ORDER.index(track)
                if track in _CAT_ORDER
                else len(_CAT_ORDER) + len(tids)
            )
        return tids[track]

    events: List[dict] = []
    for span in spans:
        args = {k: v for k, v in span.args.items()}
        args["t"] = span.t
        shard = span.args.get("shard")
        track = span.cat if shard is None else f"{span.cat}.s{shard}"
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.dur * 1e6,
                "pid": 0,
                "tid": tid(track),
                "args": args,
            }
        )
    # thread-name metadata so the viewer labels each track by category
    for cat, t in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": t,
                "args": {"name": cat},
            }
        )
    return events


def export_chrome_trace(spans: Iterable[Span], path: str) -> str:
    """Write spans to ``path`` as Chrome trace JSON; returns the path."""
    payload = {
        "traceEvents": to_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as f:
        json.dump(payload, f)
    return path
