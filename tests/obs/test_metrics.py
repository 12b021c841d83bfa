"""Registry, counter/gauge/histogram semantics, and text exposition."""

from __future__ import annotations

import json

import pytest

from repro.obs import DEFAULT_BUCKETS, MetricsRegistry


class TestRegistration:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help", ("op",))
        b = registry.counter("x_total", "other help", ("op",))
        assert a is b

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "", ("op",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "", ("kind",))

    def test_get_unknown_is_none(self):
        assert MetricsRegistry().get("nope") is None


class TestCounter:
    def test_inc_and_value_per_label_combination(self):
        counter = MetricsRegistry().counter("c_total", "", ("op",))
        counter.inc(op="a")
        counter.inc(2, op="a")
        counter.inc(op="b")
        assert counter.value(op="a") == 3
        assert counter.value(op="b") == 1
        assert counter.values() == {("a",): 3, ("b",): 1}

    def test_integer_increments_stay_int(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc()
        assert counter.value() == 2
        assert isinstance(counter.value(), int)

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_labels_raise(self):
        counter = MetricsRegistry().counter("c_total", "", ("op",))
        with pytest.raises(ValueError):
            counter.inc(kind="x")
        with pytest.raises(ValueError):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_unset_series_reads_zero(self):
        assert MetricsRegistry().gauge("g").value() == 0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram(
            "h_seconds", "", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        payload = histogram.snapshot()["series"][0]
        assert payload["count"] == 5
        assert payload["sum"] == pytest.approx(56.05)
        # Buckets are cumulative; +Inf equals the total count.
        assert payload["buckets"] == [
            [0.1, 1],
            [1.0, 3],
            [10.0, 4],
            ["+Inf", 5],
        ]

    def test_boundary_value_counts_into_its_bucket(self):
        histogram = MetricsRegistry().histogram("h_seconds", "", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le="1.0" means <= 1.0
        assert histogram.snapshot()["series"][0]["buckets"][0] == [1.0, 1]

    def test_series_stats(self):
        histogram = MetricsRegistry().histogram("h_seconds", "", ("kind",))
        assert histogram.series_stats(kind="x") == {"count": 0, "sum": 0.0}
        histogram.observe(0.25, kind="x")
        stats = histogram.series_stats(kind="x")
        assert stats["count"] == 1
        assert stats["sum"] == pytest.approx(0.25)

    def test_default_buckets_cover_sub_millisecond_to_ten_seconds(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestDisabledRegistry:
    def test_writes_are_no_ops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h_seconds")
        counter.inc()
        gauge.set(7)
        histogram.observe(0.5)
        assert counter.value() == 0
        assert gauge.value() == 0
        assert histogram.series_stats() == {"count": 0, "sum": 0.0}

    def test_reenabling_resumes_collection(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        counter.inc()
        registry.enabled = True
        counter.inc()
        assert counter.value() == 1


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "Requests.", ("op",))
        counter.inc(op="execute")
        gauge = registry.gauge("clients", "Clients.")
        gauge.set(2)
        text = registry.render_prometheus()
        assert "# HELP req_total Requests.\n# TYPE req_total counter\n" in text
        assert 'req_total{op="execute"} 1\n' in text
        assert "# TYPE clients gauge\n" in text
        assert "clients 2\n" in text
        assert text.endswith("\n")

    def test_histogram_rendering_has_inf_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "H.", buckets=(0.5, 1.0))
        histogram.observe(0.75)
        lines = registry.render_prometheus().splitlines()
        assert 'h_seconds_bucket{le="0.5"} 0' in lines
        assert 'h_seconds_bucket{le="1"} 1' in lines
        assert 'h_seconds_bucket{le="+Inf"} 1' in lines
        assert "h_seconds_sum 0.75" in lines
        assert "h_seconds_count 1" in lines

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("sql",))
        counter.inc(sql='SELECT "a"\nFROM t\\x')
        text = registry.render_prometheus()
        assert '{sql="SELECT \\"a\\"\\nFROM t\\\\x"}' in text

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", ("op",)).inc(op="a")
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds").observe(0.01)
        round_tripped = json.loads(json.dumps(registry.snapshot()))
        assert round_tripped["c_total"]["type"] == "counter"
        assert round_tripped["h_seconds"]["series"][0]["buckets"][-1][0] == "+Inf"


class TestBoundSeries:
    """``family.bound(**labels)``: the same series, its labels resolved once."""

    def test_bound_updates_land_in_the_keyword_api_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("version", "kind"))
        histogram = registry.histogram("h_seconds", "", ("kind",), buckets=(0.1, 1.0))
        gauge = registry.gauge("g", "", ("pool",))
        reads = counter.bound(version="v1", kind="select")
        reads.inc()
        reads.inc(3)
        counter.inc(version="v1", kind="select")
        assert counter.value(version="v1", kind="select") == 5
        assert isinstance(counter.value(version="v1", kind="select"), int)
        timed = histogram.bound(kind="select")
        timed.observe(0.05)
        histogram.observe(0.5, kind="select")
        assert histogram.series_stats(kind="select") == {"count": 2, "sum": 0.55}
        gauge.bound(pool="a").inc(2)
        assert gauge.value(pool="a") == 2
        assert 'c_total{version="v1",kind="select"} 5' in registry.render_prometheus()

    def test_labels_are_checked_and_stringified_at_bind_time(self):
        counter = MetricsRegistry().counter("c_total", "", ("version",))
        with pytest.raises(ValueError):
            counter.bound(kind="x")
        with pytest.raises(ValueError):
            counter.bound()
        counter.bound(version=7).inc()
        assert counter.value(version="7") == 1

    def test_bound_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c_total").bound().inc(-1)

    def test_handle_survives_reset_and_honours_disabled(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("op",))
        series = counter.bound(op="a")
        series.inc()
        counter.reset()
        assert counter.value(op="a") == 0
        series.inc()
        assert counter.value(op="a") == 1
        registry.enabled = False
        series.inc()
        assert counter.value(op="a") == 1
