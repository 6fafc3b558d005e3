"""Production telemetry: metrics, structured logging, and watchdogs.

The observability layer above :mod:`repro.trace`'s span timeline —
aggregate, scrapeable, and always-on-capable:

* :class:`MetricsRegistry` — thread-safe Counter/Gauge/Histogram
  families with fixed-bucket percentile math and a Prometheus text
  renderer (served as ``GET /metrics`` by the model server);
* :mod:`repro.telemetry.logging` — one-JSON-object-per-line structured
  logging over stdlib :mod:`logging`, plus request-ID generation;
* :class:`NumericsWatchdog` / :class:`TrainingMonitor` — runtime
  detection of NaN/Inf buffers (``Net.init(watchdog=NumericsWatchdog(
  every=N))``) and diverging training runs (``solve(..., monitor=...)``).

Everything follows the tracer's cost contract: the disabled path
(:data:`NULL_REGISTRY`, no watchdog, no logger) leaves hot loops
untouched. See docs/OBSERVABILITY.md.
"""

from repro.telemetry.logging import (
    JsonLogFormatter,
    configure_json_logging,
    get_logger,
    log_event,
    new_request_id,
)
from repro.telemetry.metrics import (
    Counter,
    FILL_BUCKETS,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    parse_prometheus_text,
    sample_value,
)
from repro.telemetry.watchdog import (
    DivergenceError,
    NumericsError,
    NumericsWatchdog,
    TrainingMonitor,
)

__all__ = [
    "Counter",
    "DivergenceError",
    "FILL_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullMetricsRegistry",
    "NumericsError",
    "NumericsWatchdog",
    "TrainingMonitor",
    "configure_json_logging",
    "get_logger",
    "log_event",
    "new_request_id",
    "parse_prometheus_text",
    "sample_value",
]
