"""Tracer protocol and implementations.

The evaluation section of the paper is entirely about *where time goes*
— fusion wins (Fig. 13), GEMM wins, comm/compute overlap (Figs. 17-19) —
so the runtime carries an attribution layer: every executable step, every
compiler pass, and every simulator segment can emit a :class:`Span` onto
one shared timeline.

Design constraints:

* **zero overhead when disabled** — the default :class:`NullTracer` is a
  sentinel the executor checks once per ``forward()``/``backward()``
  call; the untraced hot loop is byte-for-byte the original one;
* **one timeline, many clocks** — runtime spans are measured with
  ``time.perf_counter`` relative to the tracer's first event, while the
  discrete-event simulators (:mod:`repro.runtime.distributed`,
  :mod:`repro.runtime.accelerator`) inject spans with explicit *virtual*
  timestamps via :meth:`Tracer.add_span`; categories keep the tracks
  apart in the Chrome viewer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Span:
    """One timed interval on the trace timeline."""

    name: str
    #: track: 'forward' | 'backward' | 'comm' | 'compile' | 'train' |
    #: 'sim.compute' | 'sim.comm' | 'sim.transfer' | ...
    cat: str
    start: float  # seconds, timeline-relative (wall or virtual)
    dur: float
    #: recurrent time step the span executed at (0 for feed-forward nets)
    t: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.dur


@dataclass
class Metric:
    """A named scalar sample (per-epoch loss, accuracy, ...)."""

    name: str
    value: float
    tags: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """No-op base tracer; also the protocol instrumented code targets.

    Instrumentation sites call :meth:`begin`/:meth:`end` (or the
    :meth:`span` context manager) around timed work, :meth:`add_span` for
    pre-measured/virtual intervals, and :meth:`metric` for scalars. All
    are no-ops here, and ``enabled`` is False so hot paths can skip
    instrumentation entirely.
    """

    enabled: bool = False

    def begin(self, name: str, cat: str, t: int = 0, **args):
        return None

    def end(self, token) -> None:
        pass

    @contextmanager
    def span(self, name: str, cat: str, t: int = 0, **args):
        token = self.begin(name, cat, t, **args)
        try:
            yield
        finally:
            self.end(token)

    def add_span(self, name: str, cat: str, start: float, dur: float,
                 t: int = 0, **args) -> None:
        pass

    def now(self) -> float:
        """Current timeline-relative timestamp (for callers measuring
        intervals themselves and reporting via :meth:`add_span` — e.g.
        the executor's per-shard spans)."""
        return 0.0

    def metric(self, name: str, value: float, **tags) -> None:
        pass


class NullTracer(Tracer):
    """The default tracer: records nothing, costs nothing."""


#: shared default instance attached to untraced networks
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Records spans and metrics for profiling and Chrome-trace export.

    Timestamps are normalized so the first recorded event starts at 0;
    this keeps wall-clock spans and export output small and stable.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        self.metrics: List[Metric] = []
        self._clock = clock
        self._origin: Optional[float] = None

    def _now(self) -> float:
        now = self._clock()
        if self._origin is None:
            self._origin = now
        return now - self._origin

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, cat: str, t: int = 0, **args) -> Tuple:
        return (name, cat, t, args, self._now())

    def end(self, token) -> None:
        name, cat, t, args, start = token
        self.spans.append(Span(name, cat, start, self._now() - start, t, args))

    def add_span(self, name: str, cat: str, start: float, dur: float,
                 t: int = 0, **args) -> None:
        self.spans.append(Span(name, cat, start, dur, t, args))

    def now(self) -> float:
        """Timeline-relative timestamp. Thread-safe once the origin is
        established (the executor pins it from the main thread before
        dispatching shards); only :meth:`add_span` from the owning thread
        may record the measured intervals."""
        return self._now()

    def metric(self, name: str, value: float, **tags) -> None:
        self.metrics.append(Metric(name, float(value), tags))

    def clear(self) -> None:
        self.spans.clear()
        self.metrics.clear()
        self._origin = None

    # -- queries ------------------------------------------------------------

    def spans_by_cat(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def metric_series(self, name: str, **tags) -> List[float]:
        """Values of every metric named ``name`` whose tags match all of
        ``tags`` (e.g. ``metric_series('lat', replica=0)`` isolates one
        replica's series instead of interleaving all of them). No tags
        selects the whole series, as before."""
        return [
            m.value for m in self.metrics
            if m.name == name
            and all(m.tags.get(k) == v for k, v in tags.items())
        ]

    def profile(self, phases: Optional[Tuple[str, ...]] = None):
        """Aggregate recorded spans into a :class:`~repro.trace.report.
        ProfileReport` (defaults to the runtime phases)."""
        from repro.trace.report import ProfileReport

        return ProfileReport.from_spans(self.spans, phases)

    def export_chrome_trace(self, path: str) -> str:
        """Write a ``chrome://tracing`` / Perfetto compatible JSON file."""
        from repro.trace.chrome import export_chrome_trace

        return export_chrome_trace(self.spans, path)
