"""Metrics registry: histograms, counters, snapshots, thread safety."""

import threading

import pytest

from repro.obs.metrics import BATCH_BUCKETS, Histogram, Metrics


class TestHistogram:
    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean"] is None
        assert snap["p50"] is None

    def test_observe_updates_summary(self):
        hist = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 0.5
        assert snap["max"] == 500.0
        assert snap["sum"] == 555.5

    def test_quantiles_interpolate_within_the_bucket(self):
        hist = Histogram(buckets=(1.0, 10.0, 100.0))
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(50.0)
        # p50 lands in the underflow bucket: interpolate between the
        # observed minimum (0.5) and the bucket edge (1.0) at rank
        # 50/99 — not the old upper-edge answer of 1.0.
        assert hist.quantile(0.5) == pytest.approx(0.5 + 0.5 * 50 / 99)
        # p99.9 lands on the lone 50.0 in (10, 100]: the upper edge
        # clamps to the observed maximum before interpolating.
        assert hist.quantile(0.999) == pytest.approx(10 + 0.9 * (50 - 10))

    def test_single_observation_reports_itself_exactly(self):
        hist = Histogram()
        hist.observe(3e-5)
        for q in (0.01, 0.5, 0.99):
            assert hist.quantile(q) == 3e-5

    def test_underflow_bucket_interpolates_from_observed_min(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.25)
        hist.observe(0.75)
        assert hist.quantile(0.5) == pytest.approx(0.5)

    def test_overflow_bucket_reports_observed_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(123.0)
        assert hist.quantile(0.99) == 123.0

    def test_batch_buckets_cover_powers_of_two(self):
        hist = Histogram(buckets=BATCH_BUCKETS)
        hist.observe(64.0)
        assert hist.quantile(0.5) == 64.0


class TestMetrics:
    def test_counters_and_histograms_appear_in_snapshot(self):
        metrics = Metrics()
        metrics.inc("requests_total")
        metrics.inc("requests_total", 2)
        metrics.observe("sample.latency_s", 0.001)
        snap = metrics.snapshot()
        assert snap["counters"]["requests_total"] == 3
        assert snap["histograms"]["sample.latency_s"]["count"] == 1
        assert snap["uptime_s"] >= 0

    def test_counter_reads_default_to_zero(self):
        assert Metrics().counter("nope") == 0

    def test_concurrent_recording_loses_nothing(self):
        metrics = Metrics()

        def record():
            for _ in range(1_000):
                metrics.inc("hits")
                metrics.observe("lat", 0.5)

        threads = [threading.Thread(target=record) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("hits") == 8_000
        assert metrics.snapshot()["histograms"]["lat"]["count"] == 8_000
