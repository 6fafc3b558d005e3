"""A thread-safe metrics registry with a Prometheus text exposition.

The serving fleet's scrapeable surface: :class:`MetricsRegistry` holds
:class:`Counter` / :class:`Gauge` / :class:`Histogram` families keyed by
name, each family holding one child per label-value combination. The
design mirrors :mod:`repro.trace`'s tracer split:

* **near-zero cost when disabled** — :data:`NULL_REGISTRY` (a
  :class:`NullMetricsRegistry`) hands out a shared no-op metric whose
  ``inc``/``set``/``observe`` bodies are a bare ``pass``, so
  instrumented code never branches on an ``if registry`` at call sites;
* **bounded state** — histograms hold *fixed buckets* (cumulative
  counts + sum), never raw samples, so p50/p95/p99 come from bucket
  interpolation and memory stays O(buckets) no matter how many requests
  flow through (this is what structurally fixes the old
  ``ModelServer.stats()`` latency deque);
* **scrape-friendly** — :meth:`MetricsRegistry.render` emits the
  Prometheus text exposition format (``# HELP`` / ``# TYPE`` +
  cumulative ``_bucket{le=...}`` rows); :func:`parse_prometheus_text`
  is the matching minimal parser, used by CI to validate the format and
  by clients reading ``GET /metrics``.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "FILL_BUCKETS",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "parse_prometheus_text",
]

#: default request-latency buckets, seconds (Prometheus-style ladder;
#: the +Inf bucket is implicit)
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: batch-fill buckets: fraction of batch slots holding real requests
FILL_BUCKETS: Tuple[float, ...] = (
    0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(v: str) -> str:
    return v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


class _Metric:
    """Shared family machinery: label validation + per-child storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for ln in labelnames:
            if not _LABEL_RE.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        #: label-value tuple -> child state (subclass-defined)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name}: labels {sorted(labels)} != declared "
                f"{sorted(self.labelnames)}"
            )
        return tuple(str(labels[ln]) for ln in self.labelnames)

    def _label_str(self, key: Tuple[str, ...],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
        pairs = [(ln, lv) for ln, lv in zip(self.labelnames, key)]
        pairs.extend(extra)
        if not pairs:
            return ""
        inner = ",".join(
            f'{ln}="{_escape_label_value(lv)}"' for ln, lv in pairs
        )
        return "{" + inner + "}"

    def samples(self) -> List[Tuple[str, str, float]]:
        """(suffix, label-string, value) rows for :meth:`render`."""
        raise NotImplementedError

    def render(self) -> str:
        lines = [f"# HELP {self.name} {self.help or self.name}",
                 f"# TYPE {self.name} {self.kind}"]
        for suffix, labelstr, value in self.samples():
            lines.append(
                f"{self.name}{suffix}{labelstr} {_format_value(value)}"
            )
        return "\n".join(lines)


class Counter(_Metric):
    """A monotonically increasing total (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return float(sum(self._children.values()))

    def samples(self):
        with self._lock:
            items = sorted(self._children.items())
        return [("", self._label_str(k), v) for k, v in items]


class Gauge(_Metric):
    """A value that can go up and down — or a scrape-time callback."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=(), fn=None):
        super().__init__(name, help, labelnames)
        #: label-value tuple -> zero-arg callable, sampled at collect
        self._functions: Dict[Tuple[str, ...], Callable[[], float]] = {}
        if fn is not None:
            self.set_function(fn)

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Register a callback evaluated at scrape/collect time (e.g.
        live queue depth, checkpoint age)."""
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return float(self._children.get(key, 0.0))
        return float(fn())

    def samples(self):
        with self._lock:
            items = dict(self._children)
            fns = dict(self._functions)
        for key, fn in fns.items():
            items[key] = float(fn())
        return [("", self._label_str(k), v) for k, v in sorted(items.items())]


class _HistState:
    __slots__ = ("counts", "sum")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0


class Histogram(_Metric):
    """Fixed-bucket histogram: cumulative exposition, bounded state.

    Percentiles come from :meth:`quantile` — linear interpolation inside
    the bucket holding the target rank — never from a sample list, so
    recording a billion observations costs the same memory as ten.
    """

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(),
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help, labelnames)
        bs = tuple(sorted(float(b) for b in buckets))
        if not bs:
            raise ValueError("histogram needs at least one bucket bound")
        if bs != tuple(dict.fromkeys(bs)):
            raise ValueError("duplicate bucket bounds")
        if bs and bs[-1] == math.inf:
            bs = bs[:-1]  # +Inf is implicit
        self.buckets = bs

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = _HistState(len(self.buckets))
            state.counts[idx] += 1
            state.sum += value

    def count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            state = self._children.get(key)
            return sum(state.counts) if state else 0

    def sum(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            state = self._children.get(key)
            return float(state.sum) if state else 0.0

    def total_count(self) -> int:
        with self._lock:
            return sum(sum(s.counts) for s in self._children.values())

    def quantile(self, q: float, **labels) -> float:
        """Approximate the ``q`` quantile (0..1) from bucket counts.

        Linear interpolation between the bucket's bounds; observations
        in the +Inf bucket clamp to the last finite bound. Returns 0.0
        with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        key = self._key(labels)
        with self._lock:
            state = self._children.get(key)
            counts = list(state.counts) if state else None
        if not counts:
            return 0.0
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cum = 0.0
        for i, c in enumerate(counts):
            prev_cum = cum
            cum += c
            if cum >= rank and c > 0:
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = (self.buckets[i] if i < len(self.buckets)
                      else self.buckets[-1])
                if hi <= lo:
                    return hi
                frac = (rank - prev_cum) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.buckets[-1]

    def mean(self, **labels) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def samples(self):
        with self._lock:
            items = sorted(
                (k, list(s.counts), s.sum)
                for k, s in self._children.items()
            )
        rows = []
        for key, counts, total_sum in items:
            cum = 0
            for bound, c in zip(self.buckets, counts):
                cum += c
                rows.append((
                    "_bucket",
                    self._label_str(key, (("le", _format_value(bound)),)),
                    cum,
                ))
            cum += counts[-1]
            rows.append((
                "_bucket", self._label_str(key, (("le", "+Inf"),)), cum
            ))
            rows.append(("_sum", self._label_str(key), total_sum))
            rows.append(("_count", self._label_str(key), cum))
        return rows


class MetricsRegistry:
    """Get-or-create home for metric families; renders one scrape page.

    ``counter``/``gauge``/``histogram`` are idempotent per name — a
    second call with the same name returns the existing family (and
    raises if the kind or label set disagrees), so independent modules
    can share one registry without coordination.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"{name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.labelnames != tuple(labels):
                    raise ValueError(
                        f"{name!r} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labels)}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (), fn=None) -> Gauge:
        g = self._get_or_create(Gauge, name, help, labels)
        if fn is not None:
            g.set_function(fn)
        return g

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[n] for n in sorted(self._metrics)]

    def render(self) -> str:
        """The Prometheus text exposition page (``GET /metrics`` body)."""
        parts = [m.render() for m in self.collect()]
        return "\n".join(parts) + ("\n" if parts else "")

    def snapshot(self) -> Dict[str, dict]:
        """JSON-friendly dump: per family, kind + every sample row —
        the perf ledger diffs two of these per serving window."""
        out: Dict[str, dict] = {}
        for m in self.collect():
            out[m.name] = {
                "kind": m.kind,
                "help": m.help,
                "samples": {
                    f"{m.name}{suffix}{labelstr}": value
                    for suffix, labelstr, value in m.samples()
                },
            }
        return out


class _NullMetric:
    """Shared no-op child: every mutation is a bare ``pass``."""

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def set_function(self, fn, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels) -> int:
        return 0

    def total_count(self) -> int:
        return 0

    def sum(self, **labels) -> float:
        return 0.0

    def mean(self, **labels) -> float:
        return 0.0

    def quantile(self, q: float, **labels) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """The disabled path, mirroring :class:`~repro.trace.NullTracer`:
    records nothing, allocates nothing, and every handed-out metric is
    the same shared no-op object."""

    enabled = False

    def counter(self, name, help="", labels=()):
        return _NULL_METRIC

    def gauge(self, name, help="", labels=(), fn=None):
        return _NULL_METRIC

    def histogram(self, name, help="", labels=(), buckets=LATENCY_BUCKETS):
        return _NULL_METRIC

    def get(self, name):
        return None

    def collect(self):
        return []

    def render(self) -> str:
        return ""

    def snapshot(self) -> Dict[str, dict]:
        return {}


#: shared default disabled registry
NULL_REGISTRY = NullMetricsRegistry()


# ---------------------------------------------------------------------------
# Prometheus text-format parsing (CI validation + scrape clients)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"'
    r"\s*(?:,|$)"
)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        m = _LABEL_PAIR_RE.match(text, pos)
        if m is None:
            raise ValueError(f"malformed label section: {text!r}")
        raw = m.group("value")
        labels[m.group("name")] = (
            raw.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
        )
        pos = m.end()
    return labels


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse a text-exposition page into ``{family: {"type": ...,
    "samples": [(name, labels, value), ...]}}``.

    Raises :class:`ValueError` on any line that is neither a comment,
    blank, nor a well-formed sample — the server tests use this to
    validate that ``GET /metrics`` speaks the format.
    """
    families: Dict[str, dict] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] or sample_name
            if sample_name.endswith(suffix) and base in families:
                return base
        return sample_name

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                fam = families.setdefault(
                    parts[2], {"type": "untyped", "help": "", "samples": []}
                )
                if parts[1] == "TYPE":
                    fam["type"] = parts[3] if len(parts) > 3 else "untyped"
                else:
                    fam["help"] = parts[3] if len(parts) > 3 else ""
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        labels = _parse_labels(m.group("labels") or "")
        value = _parse_value(m.group("value"))
        fam = families.setdefault(
            family_of(m.group("name")),
            {"type": "untyped", "help": "", "samples": []},
        )
        fam["samples"].append((m.group("name"), labels, value))
    return families


def sample_value(families: Dict[str, dict], name: str,
                 **labels) -> Optional[float]:
    """Convenience lookup into :func:`parse_prometheus_text` output:
    the value of the first sample named ``name`` whose labels are a
    superset of ``labels`` (``None`` if absent)."""
    want = {k: str(v) for k, v in labels.items()}
    for fam in families.values():
        for sname, slabels, value in fam["samples"]:
            if sname == name and all(
                slabels.get(k) == v for k, v in want.items()
            ):
                return value
    return None
