"""Metric primitives: counters, gauges, quantile histograms, and a registry.

The paper's claims are quantitative — iteration counts within fractions of
a percent, ``3·s/d + O(1)`` word accesses per step — so every attack run
needs numbers that survive the run.  A :class:`MetricsRegistry` is the one
bag all pipeline stages write into; it is deliberately tiny:

* :class:`Counter` — monotone event totals (``scan.pairs_tested``);
* :class:`Gauge`   — last-written point-in-time values (``scan.moduli``);
* :class:`Histogram` — full-sample distributions with interpolated
  quantiles (``stage.scan.block.seconds``); samples are kept exactly, so
  p50/p95 are true order statistics, not sketch estimates — scan-scale
  cardinalities (thousands of blocks) make that affordable.

Everything is plain picklable Python data, because :mod:`repro.core.parallel`
ships per-worker registries across process boundaries and merges them at
join via :meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing event count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a Gauge")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value; ``set`` overwrites, ``max_of`` keeps peaks."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max_of(self, value: float) -> None:
        self.value = max(self.value, value)


@dataclass
class Histogram:
    """Exact-sample distribution with linear-interpolation quantiles."""

    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return sum(self.samples)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 ≤ q ≤ 1) by linear interpolation between
        order statistics (the same rule as ``statistics.quantiles`` with
        ``method='inclusive'``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            raise ValueError("quantile of an empty histogram")
        return _interpolate(sorted(self.samples), q)

    def summary(self) -> dict:
        """The stable report form: count/sum/min/mean/p50/p95/max.

        One sort serves every order statistic: ``GET /metricsz`` snapshots
        a service's histograms, whose samples grow with traffic.
        """
        if not self.samples:
            return {"count": 0, "sum": 0.0}
        ordered = sorted(self.samples)
        total = self.sum
        return {
            "count": len(ordered),
            "sum": total,
            "min": ordered[0],
            "mean": total / len(ordered),
            "p50": _interpolate(ordered, 0.50),
            "p95": _interpolate(ordered, 0.95),
            "max": ordered[-1],
        }


def _interpolate(ordered: list[float], q: float) -> float:
    """:meth:`Histogram.quantile` on samples already sorted ascending."""
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(ordered):
        return ordered[-1]
    value = ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac
    # interpolation can overshoot an endpoint by one ulp when the
    # bracketing samples are equal large floats — clamp to the data range
    return min(max(value, ordered[0]), ordered[-1])


class MetricsRegistry:
    """Named metrics, created on first touch, merged across workers.

    Names are dotted paths (``scan.pairs_tested``); a name is permanently
    bound to the kind that first created it — re-requesting it as another
    kind raises, which catches typo'd reuse early.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- creation-on-touch ---------------------------------------------------

    def _check_unique(self, name: str, kind: dict) -> None:
        for family in (self.counters, self.gauges, self.histograms):
            if family is not kind and name in family:
                raise ValueError(f"metric {name!r} already exists with another kind")

    def counter(self, name: str) -> Counter:
        self._check_unique(name, self.counters)
        return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        self._check_unique(name, self.gauges)
        return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        self._check_unique(name, self.histograms)
        return self.histograms.setdefault(name, Histogram())

    # -- cross-worker merge --------------------------------------------------

    def merge(self, other: MetricsRegistry) -> None:
        """Fold another registry in: counters add, gauges keep the max
        (peak semantics — the only well-defined join), histograms pool."""
        for name, c in other.counters.items():
            self.counter(name).inc(c.value)
        for name, g in other.gauges.items():
            self.gauge(name).max_of(g.value)
        for name, h in other.histograms.items():
            self.histogram(name).samples.extend(h.samples)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready view: plain dicts, histograms summarised."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self.histograms.items())
            },
        }
