"""The ledger's own arithmetic: pure functions, no repro imports.

Everything a reported number passes through on its way from raw samples
to the JSON lives here so ``test_ledger.py`` can pin it without
compiling a network.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: metric and workload names (the BENCHMARK.json contract: starts with a
#: letter or digit, then letters, digits, ``_``, ``.``, ``-``; <= 64)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def geomean(xs: Iterable[float]) -> float:
    """Geometric mean of positive values (the per-model average the
    compilers sheet asks for: ratios to a baseline average correctly)."""
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError(f"geomean needs positive values, got {xs}")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(xs: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


#: candidate tail percentiles, highest first
_TAILS = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def tail_percentile(xs: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile (at most p99) that still has at least ten
    samples beyond it, and its value: p99 needs 1000 samples, p95 200,
    p90 100. Falls back to the median when even p75 is unsupported, so
    the result is always a measured number."""
    n = len(xs)
    for q in _TAILS:
        if n * (100.0 - q) / 100.0 >= 10:
            return q, percentile(xs, q)
    return 50.0, percentile(xs, 50.0)


def spread(values: Sequence[float]) -> float:
    """Quartile spread as a share of the median — the steadiness
    measure the driver applies to ten runs of one metric."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- open-loop load generation ------------------------------------------------


def poisson_schedule(rng, rate: float, duration: float) -> List[float]:
    """Due times (seconds from window start) of a Poisson arrival
    process at ``rate`` per second, truncated to ``duration``."""
    out: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return out
        out.append(t)


def due_latency(due: float, enqueued_at: float, latency: float) -> float:
    """Open-loop request latency timed from the instant the request was
    *due*: the generator's lateness plus the server's own
    admission-to-completion time. A stalled generator therefore counts
    against the requests it delayed instead of hiding them."""
    return (enqueued_at - due) + latency


def run_schedule(schedule: Sequence[float], submit: Callable[[int], object],
                 clock: Callable[[], float],
                 sleep: Callable[[float], None]
                 ) -> Tuple[float, List[Tuple[float, object]], List[float]]:
    """Drive one open-loop window: submit request ``k`` when
    ``schedule[k]`` is due, never waiting for replies. Returns
    ``(t0, [(due, handle)], lateness)`` on ``clock``'s timeline (``t0``
    is 10 ms after the call, so the first request is not born late); a
    request is late by however long after its due time the generator
    got to it."""
    t0 = clock() + 0.01
    sent: List[Tuple[float, object]] = []
    late: List[float] = []
    for k, offset in enumerate(schedule):
        due = t0 + offset
        remaining = due - clock()
        if remaining > 0:
            sleep(remaining)
        late.append(max(0.0, clock() - due))
        sent.append((due, submit(k)))
    return t0, sent, late


# -- spans ---------------------------------------------------------------------


def self_times(spans: Sequence[Tuple[int, Optional[int], str, float, float]]
               ) -> Dict[str, float]:
    """Per-name self time of ``(id, parent_id, name, start, end)``
    spans: each span's duration minus the part of its interval its
    direct children cover (overlapping children are merged first)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for sid, _parent, name, start, end in spans:
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


# -- metrics-registry windows --------------------------------------------------


def registry_delta(before: Dict[str, dict],
                   after: Dict[str, dict]) -> Dict[str, float]:
    """Sample-wise ``after - before`` of two
    ``MetricsRegistry.snapshot()`` dumps, flattened to
    ``{sample_name: delta}`` — what one load window added to the
    server's counters and histogram sums."""
    out: Dict[str, float] = {}
    for family, body in after.items():
        old = before.get(family, {}).get("samples", {})
        for sample, value in body["samples"].items():
            out[sample] = float(value) - float(old.get(sample, 0.0))
    return out


def delta_sum(delta: Dict[str, float], name: str, **labels: str) -> float:
    """Sum of the samples of family member ``name`` whose label set
    contains every ``labels`` pair; labels not named (``replica``,
    ``precision``) collapse."""
    total = 0.0
    for sample, value in delta.items():
        base, _, rest = sample.partition("{")
        if base == name and all(f'{k}="{v}"' in rest
                                for k, v in labels.items()):
            total += value
    return total


# -- the result line -----------------------------------------------------------


def validate_result(obj: dict, units: Dict[str, str]) -> None:
    """Raise ``ValueError`` unless ``obj`` is the driver's result
    object: exactly ``correct``/``attempted``/``failed``/``metrics``,
    and exactly the metrics named in ``units`` with those units."""
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(obj)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError(f"{key} must be a whole number")
    if obj["attempted"] < 1 or obj["failed"] < 0:
        raise ValueError("attempted >= 1 and failed >= 0 required")
    metrics = obj["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise ValueError(f"metrics missing {missing} extra {extra}")
    for name, body in metrics.items():
        if set(body) != {"value", "unit"}:
            raise ValueError(f"{name}: keys {sorted(body)}")
        value = body["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name}: value {value!r} is not a number")
        if not math.isfinite(value):
            raise ValueError(f"{name}: value {value!r} is not finite")
        if body["unit"] != units[name]:
            raise ValueError(
                f"{name}: unit {body['unit']!r} != {units[name]!r}")
