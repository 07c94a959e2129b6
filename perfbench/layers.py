"""Per-layer metrics from the traced run's spans.

Sums (``*_s`` totals, counts, bytes) are per headline operation: per solve
for the one-shot workloads and per fresh-key verdict on ``serve-mixed``,
so runs of different lengths compare.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class SpanSet:
    """Spans of several processes with per-name self time, counts and extras."""

    def __init__(self, processes: list[list[list]]) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.extras: dict[str, list] = defaultdict(list)
        roots: list[tuple[float, float]] = []
        for spans in processes:
            child_s: dict[int, float] = defaultdict(float)
            for sid, parent, root, name, t0, t1, extra in spans:
                if parent:
                    child_s[parent] += t1 - t0
                else:
                    roots.append((t0, t1))
            for sid, parent, root, name, t0, t1, extra in spans:
                self.self_s[name] += (t1 - t0) - child_s.get(sid, 0.0)
                self.count[name] += 1
                self.durations[name].append(t1 - t0)
                if extra is not None:
                    self.extras[name].append(extra)
        self._merged = _merge(roots)
        self._starts = [a for a, _ in self._merged]

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` inside some top-level span."""
        total = 0.0
        k = max(bisect.bisect_right(self._starts, start) - 1, 0)
        for a, b in self._merged[k:]:
            if a >= end:
                break
            total += max(0.0, min(b, end) - max(a, start))
        return total


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def per_layer(
    spans: SpanSet,
    ops: list[tuple[float, float]],
    *,
    stage_s: dict[str, float],
    metricsz: dict | None,
    state: dict,
    loadgen: dict[str, float],
    overhead_ratio: float,
) -> dict[str, float]:
    """Every per-layer metric, by name.

    ``ops`` are the traced headline operations as (start, end) on the
    shared monotonic clock; ``stage_s`` the pipeline's own stage seconds
    per solve; ``metricsz`` the program's final telemetry snapshot (serve
    workloads); ``state`` the state-dir stat; ``loadgen`` the generator's
    own figures.
    """
    n = max(len(ops), 1)
    s, c, x = spans.self_s, spans.count, spans.extras

    def per_op(value: float) -> float:
        return value / n

    runs = x["bulk.run_pairs"]
    lanes = sum(r[0] for r in runs)
    trips = sum(r[1] for r in runs)
    iterations = sum(r[2] for r in runs)
    lane_trips = sum(r[0] * r[1] for r in runs)
    adds = x["core.incremental.add_batch"]
    hist = (metricsz or {}).get("histograms", {})
    counters = (metricsz or {}).get("counters", {})
    flush_keys = hist.get("batcher.flush_keys", {})
    waits = hist.get("batcher.ticket_wait_seconds", {})
    covered = [spans.covered(a, b) / (b - a) for a, b in ops if b > a]
    out = {
        "util.intops.mod_s": per_op(s["util.intops.mod"]),
        "util.intops.mul_s": per_op(s["util.intops.mul"]),
        "util.intops.sqr_s": per_op(s["util.intops.sqr"]),
        "util.intops.calls": per_op(sum(c[f"util.intops.{op}"] for op in ("mod", "mul", "sqr", "leaf_gcd"))),
        **{f"core.pipeline.stage_s.{k}": stage_s.get(k, 0.0) for k in ("ingest", "product", "remainder", "leaf", "pairing")},
        "core.spool.write_blob_s": per_op(s["core.spool.write_blob"]),
        "core.spool.bytes": per_op(sum(x["core.spool.write_blob"])),
        "core.checkpoint.save_s": per_op(s["core.checkpoint.save"]),
        "core.checkpoint.saves": per_op(c["core.checkpoint.save"]),
        "core.checkpoint.bytes": per_op(sum(x["core.checkpoint.save"])),
        "service.registry.commit_s_p50": quantile(spans.durations["service.registry.commit_batch"], 0.5),
        "service.registry.commit_s_p90": quantile(spans.durations["service.registry.commit_batch"], 0.9),
        "service.registry.note_duplicates_s": per_op(s["service.registry.note_duplicates"]),
        "service.registry.load_s": quantile(spans.durations["service.registry.load"], 0.5),
        "core.ptree.load_s": quantile(spans.durations["core.ptree.load_or_rebuild"], 0.5),
        "service.registry.state_files": state.get("files", 0),
        "service.registry.state_bytes": state.get("bytes", 0),
        "service.registry.manifest_bytes": state.get("manifest_bytes", 0),
        "core.incremental.add_batch_s": quantile(spans.durations["core.incremental.add_batch"], 0.5),
        "core.incremental.pairs": per_op(sum(a[0] for a in adds)),
        "core.incremental.ptree_share": sum(a[1] for a in adds) / len(adds) if adds else 0.0,
        "core.ptree.descend_s": per_op(s["core.ptree.batch_remainders"]),
        "core.ptree.append_s": per_op(s["core.ptree.append"]),
        "service.http.parse_s": per_op(s["service.http.parse"]),
        "service.batcher.flushes": per_op(counters.get("batcher.flushes", 0)),
        "service.batcher.keys_per_flush": flush_keys.get("mean", 0.0),
        "service.batcher.wait_ms_p50": waits.get("p50", 0.0) * 1e3,
        "telemetry.snapshot_s": per_op(s["telemetry.snapshot"]),
        "telemetry.samples_held": sum(h.get("count", 0) for h in hist.values()),
        "integrity.scrub_s": per_op(s["integrity.units"] + s["integrity.unit_run"]),
        "integrity.scrub_bytes": per_op(sum(x["integrity.unit_run"])),
        "bulk.run_pairs_s": per_op(sum(spans.durations["bulk.run_pairs"])),
        "bulk.loop_trips": per_op(trips),
        "bulk.lane_utilisation": iterations / lane_trips if lane_trips else 0.0,
        "gcd.approx.iterations_per_gcd": iterations / lanes if lanes else 0.0,
        # computed, not measured: each lock-step iteration reads X and Y and
        # writes X, s/d words of 4 bytes each
        "bulk.bytes_computed": per_op(sum(r[2] * 3 * r[3] * 4 for r in runs)),
        "trace.overhead_ratio": overhead_ratio,
        "trace.covered_share": statistics.fmean(covered) if covered else 0.0,
    }
    out.update(loadgen)
    return out
