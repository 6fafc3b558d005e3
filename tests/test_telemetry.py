"""The telemetry core (:mod:`repro.telemetry`): metric families and
their bucket math, the Prometheus text renderer and its matching
parser, the disabled-path null registry, and structured JSON logging
with request IDs."""

import io
import json
import logging
import math
import threading

import pytest

from repro.telemetry import (
    FILL_BUCKETS,
    JsonLogFormatter,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    configure_json_logging,
    log_event,
    new_request_id,
    parse_prometheus_text,
    sample_value,
)


class TestCounter:
    def test_inc_and_value_per_label(self):
        r = MetricsRegistry()
        c = r.counter("req_total", "requests", labels=("outcome",))
        c.inc(outcome="served")
        c.inc(2, outcome="served")
        c.inc(outcome="shed")
        assert c.value(outcome="served") == 3
        assert c.value(outcome="shed") == 1
        assert c.value(outcome="never") == 0
        assert c.total() == 4

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_label_set_must_match_declaration(self):
        c = MetricsRegistry().counter("x_total", labels=("a",))
        with pytest.raises(ValueError, match="labels"):
            c.inc(b="1")
        with pytest.raises(ValueError, match="labels"):
            c.inc()  # missing declared label

    def test_invalid_names_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError, match="metric name"):
            r.counter("bad-name")
        with pytest.raises(ValueError, match="label name"):
            r.counter("ok_total", labels=("bad-label",))

    def test_thread_safety_no_lost_increments(self):
        c = MetricsRegistry().counter("x_total")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6

    def test_callback_sampled_at_read_time(self):
        state = {"v": 1}
        g = MetricsRegistry().gauge("live", fn=lambda: state["v"])
        assert g.value() == 1
        state["v"] = 9
        assert g.value() == 9
        # and the render path samples it too
        assert "live 9" in g.render()


class TestHistogram:
    def test_quantiles_interpolate_within_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(6.5)
        assert h.mean() == pytest.approx(6.5 / 4)
        # rank 2 of 4 lands mid first-to-second bucket: interpolated
        q50 = h.quantile(0.5)
        assert 1.0 <= q50 <= 2.0
        # quantiles are monotone in q
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_plus_inf_bucket_clamps_to_last_bound(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        h.observe(100.0)
        assert h.quantile(0.99) == 2.0

    def test_empty_histogram_quantile_is_zero(self):
        h = MetricsRegistry().histogram("lat")
        assert h.quantile(0.5) == 0.0
        assert h.mean() == 0.0

    def test_bucket_bound_is_inclusive(self):
        # Prometheus le semantics: value == bound lands in that bucket
        h = MetricsRegistry().histogram("fill", buckets=FILL_BUCKETS)
        h.observe(0.125)
        families = parse_prometheus_text(h.render())
        assert sample_value(families, "fill_bucket", le="0.125") == 1

    def test_default_buckets_are_the_latency_ladder(self):
        h = MetricsRegistry().histogram("lat")
        assert h.buckets == LATENCY_BUCKETS

    def test_quantile_range_validated(self):
        h = MetricsRegistry().histogram("lat")
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("x_total") is r.counter("x_total")

    def test_kind_mismatch_rejected(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x_total")

    def test_label_mismatch_rejected(self):
        r = MetricsRegistry()
        r.counter("x_total", labels=("a",))
        with pytest.raises(ValueError, match="labels"):
            r.counter("x_total", labels=("b",))

    def test_snapshot_is_json_serializable(self):
        r = MetricsRegistry()
        r.counter("x_total", "help").inc(3)
        r.histogram("lat").observe(0.01)
        snap = json.loads(json.dumps(r.snapshot()))
        assert snap["x_total"]["kind"] == "counter"
        assert snap["x_total"]["samples"]["x_total"] == 3
        assert snap["lat"]["samples"]["lat_count"] == 1


class TestRender:
    def _page(self):
        r = MetricsRegistry()
        c = r.counter("req_total", "requests by outcome",
                      labels=("outcome",))
        c.inc(7, outcome="served")
        c.inc(0, outcome="shed")
        r.gauge("depth", "queue depth").set(3)
        h = r.histogram("lat_seconds", "latency", buckets=(0.01, 0.1))
        for v in (0.005, 0.05, 0.5):
            h.observe(v)
        return r.render()

    def test_help_and_type_lines(self):
        text = self._page()
        assert "# HELP req_total requests by outcome" in text
        assert "# TYPE req_total counter" in text
        assert "# TYPE lat_seconds histogram" in text
        assert "# TYPE depth gauge" in text

    def test_histogram_rows_are_cumulative_with_inf(self):
        families = parse_prometheus_text(self._page())
        assert sample_value(families, "lat_seconds_bucket", le="0.01") == 1
        assert sample_value(families, "lat_seconds_bucket", le="0.1") == 2
        assert sample_value(families, "lat_seconds_bucket", le="+Inf") == 3
        assert sample_value(families, "lat_seconds_count") == 3
        assert sample_value(
            families, "lat_seconds_sum") == pytest.approx(0.555)

    def test_round_trip_through_parser(self):
        families = parse_prometheus_text(self._page())
        assert families["req_total"]["type"] == "counter"
        assert sample_value(families, "req_total", outcome="served") == 7
        assert sample_value(families, "req_total", outcome="shed") == 0
        assert sample_value(families, "depth") == 3

    def test_label_values_escaped(self):
        c = MetricsRegistry().counter("x_total", labels=("path",))
        c.inc(path='a"b\\c\nd')
        families = parse_prometheus_text(c.render())
        (_, labels, value), = families["x_total"]["samples"]
        assert labels["path"] == 'a"b\\c\nd'
        assert value == 1

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            parse_prometheus_text("this is { not metrics")

    def test_parser_handles_special_values(self):
        families = parse_prometheus_text("x +Inf\ny -Inf\nz NaN")
        assert sample_value(families, "x") == math.inf
        assert sample_value(families, "y") == -math.inf
        assert math.isnan(sample_value(families, "z"))


class TestNullRegistry:
    def test_everything_is_a_cheap_no_op(self):
        assert NULL_REGISTRY.enabled is False
        c = NULL_REGISTRY.counter("x_total", labels=("a",))
        g = NULL_REGISTRY.gauge("g")
        h = NULL_REGISTRY.histogram("h")
        c.inc(5, a="1")
        g.set(3)
        h.observe(0.1)
        assert c.value(a="1") == 0
        assert h.quantile(0.5) == 0
        assert NULL_REGISTRY.render() == ""
        assert NULL_REGISTRY.collect() == []
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.get("x_total") is None

    def test_shared_no_op_child(self):
        # no per-call allocation: every family is the same object
        assert (NULL_REGISTRY.counter("a_total")
                is NULL_REGISTRY.histogram("b"))


class TestJsonLogging:
    def _capture_logger(self, name):
        logger = logging.getLogger(name)
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLogFormatter())
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        return logger, stream, handler

    def test_log_event_emits_one_json_object_per_line(self):
        logger, stream, handler = self._capture_logger("t.telemetry.a")
        try:
            log_event(logger, "request", request_id="abc", latency_ms=1.5)
            log_event(logger, "batch_flush", rows=3)
        finally:
            logger.removeHandler(handler)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "request"
        assert first["request_id"] == "abc"
        assert first["latency_ms"] == 1.5
        assert first["level"] == "info"
        assert first["ts"] > 0
        assert json.loads(lines[1])["rows"] == 3

    def test_none_logger_is_a_no_op(self):
        log_event(None, "whatever", x=1)  # must not raise

    def test_disabled_level_emits_nothing(self):
        logger, stream, handler = self._capture_logger("t.telemetry.b")
        try:
            logger.setLevel(logging.ERROR)
            log_event(logger, "request", x=1)
        finally:
            logger.removeHandler(handler)
        assert stream.getvalue() == ""

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        logger = configure_json_logging("t.telemetry.c", stream=stream)
        again = configure_json_logging("t.telemetry.c", stream=stream)
        assert again is logger
        assert len([h for h in logger.handlers
                    if isinstance(h.formatter, JsonLogFormatter)]) == 1
        log_event(logger, "hello", n=1)
        assert json.loads(stream.getvalue())["n"] == 1
        logger.handlers.clear()

    def test_request_ids_are_fresh_and_well_formed(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)
