"""Metric primitives: quantile arithmetic, kind safety, registry merge."""

import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_max_of_keeps_peak(self):
        g = Gauge()
        g.max_of(2.0)
        g.max_of(1.0)
        assert g.value == 2.0


class TestHistogramQuantiles:
    def test_single_sample(self):
        h = Histogram()
        h.observe(7.0)
        assert h.quantile(0.0) == h.quantile(0.5) == h.quantile(1.0) == 7.0

    def test_known_order_statistics(self):
        h = Histogram()
        for v in [1, 2, 3, 4, 5]:
            h.observe(v)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 3.0
        assert h.quantile(1.0) == 5.0
        assert h.quantile(0.25) == 2.0

    def test_interpolation_between_samples(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(10.0)
        assert h.quantile(0.95) == pytest.approx(9.5)

    def test_matches_statistics_quantiles(self):
        rng = random.Random(7)
        h = Histogram()
        values = [rng.uniform(0, 100) for _ in range(500)]
        for v in values:
            h.observe(v)
        # statistics.quantiles inclusive cut points are our q = k/n
        cuts = statistics.quantiles(values, n=20, method="inclusive")
        assert h.quantile(0.5) == pytest.approx(cuts[9])
        assert h.quantile(0.95) == pytest.approx(cuts[18])

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
           q=st.floats(0, 1))
    def test_quantile_bounds_and_monotone(self, values, q):
        h = Histogram()
        for v in values:
            h.observe(v)
        got = h.quantile(q)
        assert min(values) <= got <= max(values)
        assert h.quantile(0.0) <= got <= h.quantile(1.0)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            Histogram().quantile(0.5)

    def test_summary_schema(self):
        h = Histogram()
        assert h.summary() == {"count": 0, "sum": 0.0}
        h.observe(2.0)
        h.observe(4.0)
        s = h.summary()
        assert set(s) == {"count", "sum", "min", "mean", "p50", "p95", "max"}
        assert s["count"] == 2 and s["mean"] == 3.0


def _summary_by_quantile(h: Histogram) -> dict:
    """The summary as one ``quantile`` call (one sort) per order statistic."""
    return {
        "count": h.count,
        "sum": h.sum,
        "min": min(h.samples),
        "mean": h.sum / h.count,
        "p50": h.quantile(0.50),
        "p95": h.quantile(0.95),
        "max": max(h.samples),
    }


class TestHistogramSummary:
    """``summary`` sorts once; its figures match per-quantile sorting exactly."""

    @pytest.mark.parametrize("n", [2, 3, 20, 501, 10_000])
    def test_random_samples(self, n):
        rng = random.Random(n)
        h = Histogram()
        for _ in range(n):
            h.observe(rng.lognormvariate(0, 2))
        assert h.summary() == _summary_by_quantile(h)

    def test_one_sample(self):
        h = Histogram()
        h.observe(7.25)
        assert h.summary() == _summary_by_quantile(h)
        assert h.summary()["p95"] == 7.25

    def test_equal_large_floats_clamp(self):
        # with three samples p95 sits at position 1.9, and for this x the
        # interpolation overshoots x by one ulp: only the clamp keeps p95 == x
        x = 125512.72886980568
        frac = 0.95 * 2 - 1
        assert x * (1 - frac) + x * frac > x
        h = Histogram()
        for _ in range(3):
            h.observe(x)
        assert h.summary() == _summary_by_quantile(h)
        assert h.summary()["p95"] == x


class TestRegistry:
    def test_creation_on_touch_is_stable(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")

    def test_kind_collision_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")
        with pytest.raises(ValueError):
            r.histogram("x")

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        b.counter("only_b").inc(1)
        a.gauge("peak").set(2.0)
        b.gauge("peak").set(5.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(9.0)
        a.merge(b)
        assert a.counter("n").value == 7
        assert a.counter("only_b").value == 1
        assert a.gauge("peak").value == 5.0  # peak join
        assert sorted(a.histogram("h").samples) == [1.0, 9.0]

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.gauge("g").set(1.0)
        r.histogram("h").observe(2.0)
        snap = r.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_registry_is_picklable(self):
        import pickle

        r = MetricsRegistry()
        r.counter("c").inc(5)
        r.histogram("h").observe(1.0)
        clone = pickle.loads(pickle.dumps(r))
        assert clone.snapshot() == r.snapshot()
