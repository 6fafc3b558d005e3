"""Tracing and compiler-pass instrumentation.

Zero-overhead-when-disabled observability for the whole stack: attach a
:class:`RecordingTracer` via ``compile_net(..., tracer=...)`` (or
``net.init`` → ``CompiledNet.tracer``) and every runtime step, training
epoch, compiler pass, and simulator segment lands on one timeline —
aggregate it with :meth:`RecordingTracer.profile` or open it in
``chrome://tracing`` via :meth:`RecordingTracer.export_chrome_trace`.
"""

from repro.trace.chrome import export_chrome_trace, to_trace_events
from repro.trace.compile_report import CompileReport, PassRecord
from repro.trace.report import MemoryReport, ProfileReport, ProfileRow
from repro.trace.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    Span,
    Tracer,
)

__all__ = [
    "CompileReport",
    "MemoryReport",
    "NULL_TRACER",
    "NullTracer",
    "PassRecord",
    "ProfileReport",
    "ProfileRow",
    "RecordingTracer",
    "Span",
    "Tracer",
    "export_chrome_trace",
    "to_trace_events",
]
