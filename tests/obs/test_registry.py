"""Unit tests for the dependency-free metrics registry."""

import json
import math

import pytest

from repro.errors import SchedulerError
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        counter = Counter(name="ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(SchedulerError, match="cannot decrease"):
            Counter(name="ops").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge(name="depth")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.inc(-0.5)  # a gauge, unlike a counter, may go down
        assert gauge.value == pytest.approx(12.0)


class TestHistogram:
    def test_bounds_must_be_increasing(self):
        with pytest.raises(SchedulerError, match="increasing"):
            Histogram("h", bounds=(2.0, 1.0))

    def test_bounds_must_be_nonempty(self):
        with pytest.raises(SchedulerError):
            Histogram("h", bounds=())

    def test_observe_buckets_cumulatively(self):
        histogram = Histogram("h", bounds=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.bucket_counts() == {1.0: 2, 5.0: 3, math.inf: 4}
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(104.2)

    def test_boundary_value_lands_in_lower_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 5.0))
        histogram.observe(1.0)  # le semantics: value <= bound
        assert histogram.bucket_counts()[1.0] == 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("ops") is registry.counter("ops")

    def test_labels_separate_instruments(self):
        registry = MetricsRegistry()
        committed = registry.counter("txns", labels={"status": "committed"})
        aborted = registry.counter("txns", labels={"status": "aborted"})
        assert committed is not aborted
        committed.inc(3)
        assert aborted.value == 0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        one = registry.counter("x", labels={"a": "1", "b": "2"})
        two = registry.counter("x", labels={"b": "2", "a": "1"})
        assert one is two

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("ops")
        with pytest.raises(SchedulerError, match="already registered"):
            registry.gauge("ops")


class TestJsonExport:
    def test_document_shape(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        document = registry.to_json()
        assert document["counters"]["ops"] == 2
        assert document["gauges"]["depth"] == 7
        assert document["histograms"]["lat"]["count"] == 1
        assert document["histograms"]["lat"]["buckets"] == {"1": 1, "+Inf": 1}

    def test_labelled_keys(self):
        registry = MetricsRegistry()
        registry.counter("txns", labels={"status": "committed"}).inc()
        assert 'txns{status="committed"}' in registry.to_json()["counters"]

    def test_render_json_is_valid_json(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        assert json.loads(registry.render_json())["counters"]["ops"] == 1


class TestPrometheusExport:
    def test_counter_sample(self):
        registry = MetricsRegistry()
        registry.counter("ops", help="Operations.").inc(3)
        text = registry.render_prometheus()
        assert "# HELP repro_ops Operations." in text
        assert "# TYPE repro_ops counter" in text
        assert "repro_ops_total 3" in text

    def test_gauge_sample(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(2.5)
        text = registry.render_prometheus()
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2.5" in text

    def test_histogram_samples(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=(1.0, 5.0))
        histogram.observe(0.5)
        histogram.observe(10.0)
        text = registry.render_prometheus()
        assert '# TYPE repro_lat histogram' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="5"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_sum 10.5" in text
        assert "repro_lat_count 2" in text

    def test_shared_header_for_labelled_family(self):
        registry = MetricsRegistry()
        registry.counter("txns", labels={"status": "committed"}).inc()
        registry.counter("txns", labels={"status": "aborted"}).inc()
        text = registry.render_prometheus()
        assert text.count("# TYPE repro_txns counter") == 1
        assert 'repro_txns_total{status="aborted"} 1' in text
        assert text.endswith("\n")
