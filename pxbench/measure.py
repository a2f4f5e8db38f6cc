"""Order statistics and the per-run operation log.

Every timed operation of a workload lands in an :class:`OpLog` as
``(kind, seconds, ok)``.  The end-to-end metrics are computed from it:
medians, the tail percentile, throughput and the failure share.

A workload whose operations come in groups of very different cost
(``eval-wide``'s document shapes) labels each operation with its group.
Its medians are then the geometric mean of the per-group medians: the
plain median of such a mixture falls in the gap between two groups'
costs and jumps across it from run to run.

The tail is "the highest percentile with at least 10 samples beyond it",
chosen from a fixed ladder so that a run with c whole copies of a
workload's operation cycle reports the same percentile as a run with
c + 1 copies (a continuous percentile would drift with the run length).
It is estimated by Harrell-Davis, a beta-weighted mean of the order
statistics around that rank: a mixture's upper tail is a stack of
operation kinds, one cluster of costs each, and the single order
statistic at the rank is often the largest value of one such cluster.
"""

from __future__ import annotations

import math
import statistics

# No p95: eval-wide's 3-6 cycles of 90 operations would rest it on 14-27
# samples; p90 has twice as many.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def harrell_davis(values, pct: float) -> float:
    """The Harrell-Davis estimate of the ``pct`` percentile: the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of their
    slice of [0, 1], each slice's mass integrated by Simpson's rule."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of an empty sample")
    a = pct / 100.0 * (n + 1)
    b = (1.0 - pct / 100.0) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = [
        density(i / n) + 4 * density((i + 0.5) / n) + density((i + 1) / n) for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ``TAIL_BEYOND`` of
    ``count`` samples beyond it (50 when even the median has fewer)."""
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 50.0


def tail(values) -> tuple[float, float]:
    """(tail value, its percentile)."""
    pct = tail_percentile(len(values))
    return harrell_davis(values, pct), pct


class OpLog:
    """Timed operations of one run, in completion order."""

    def __init__(self):
        self.records: list[tuple[str, float, bool]] = []
        self.groups: list[object] = []  # one label per record, or None

    def add(self, kind: str, seconds: float, ok: bool = True, group=None) -> int:
        """Record one operation; returns its index for :meth:`fail`."""
        self.records.append((kind, seconds, ok))
        self.groups.append(group)
        return len(self.records) - 1

    def fail(self, index: int) -> None:
        """Mark an operation failed (a wrong answer found by a check
        after the timed phase)."""
        kind, seconds, _ = self.records[index]
        self.records[index] = (kind, seconds, False)

    def seconds(self, kind: str | None = None) -> list[float]:
        return [s for k, s, _ in self.records if kind is None or k == kind]

    def grouped(self) -> bool:
        return any(group is not None for group in self.groups)

    def typical_ms(self, kind: str | None = None) -> float:
        """The median in milliseconds; for a grouped log the geometric
        mean of the medians of every (kind, group) cell of ``kind`` (of
        every kind when None)."""
        if not self.grouped():
            return percentile([s * 1000.0 for s in self.seconds(kind)], 50)
        cells: dict = {}
        for (k, s, _), group in zip(self.records, self.groups):
            if kind is None or k == kind:
                cells.setdefault((k, group), []).append(s * 1000.0)
        logs = [math.log(percentile(values, 50)) for values in cells.values()]
        return math.exp(sum(logs) / len(logs))

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.records if not ok)


class Metrics:
    """Named metric values with units and sample counts, in insertion order."""

    def __init__(self):
        self.rows: dict[str, dict] = {}

    def put(self, name: str, value: float, unit: str, n: int | None = None,
            note: str | None = None) -> None:
        self.rows[name] = {"value": float(value), "unit": unit, "n": n, "note": note}

    def result_metrics(self, names) -> dict:
        """The ``metrics`` object of the result line: exactly ``names``."""
        missing = [name for name in names if name not in self.rows]
        if missing:
            raise KeyError(f"metrics never measured: {', '.join(missing)}")
        return {
            name: {"value": self.rows[name]["value"], "unit": self.rows[name]["unit"]}
            for name in names
        }

    def table(self) -> str:
        lines = []
        for name, row in self.rows.items():
            count = f"n={row['n']}" if row["n"] is not None else ""
            note = f"  ({row['note']})" if row["note"] else ""
            lines.append(
                f"  {name:<44} {row['value']:>14.6g} {row['unit']:<8} {count:<8}{note}"
            )
        return "\n".join(lines)


def end_to_end(log: OpLog, wall_seconds: float, setups: list[float],
               peak_rss_mb: float, metrics: Metrics, probe: OpLog | None = None) -> None:
    """Fill every end-to-end metric from one run's operation log.

    ``probe`` holds operations run after the timed phase (serve-mix's
    edit probe): they count in their kind's median and in the success
    ratio, not in the throughput or the all-operation latencies.  A
    metric whose operation kind the workload never ran raises: every
    workload runs every kind, so a missing kind is a benchmark bug."""
    probe = probe if probe is not None else OpLog()
    every = [s * 1000.0 for s in log.seconds()]
    how = "geometric mean of per-shape medians" if log.grouped() else None
    metrics.put("setup_s", statistics.median(setups), "s", len(setups),
                "median of repeated set-ups")
    metrics.put("ops_per_s", log.attempted / wall_seconds, "1/s", log.attempted,
                f"closed loop, {wall_seconds:.2f} s timed")
    metrics.put("latency_p50_ms", log.typical_ms(), "ms", len(every),
                "geometric mean of per-(kind, shape) medians" if how else None)
    value, pct = tail(every)
    metrics.put("latency_tail_ms", value, "ms", len(every), f"p{pct:g}")
    for kind in ("sat", "query", "sample", "topk", "sweep", "edit"):
        samples = log.seconds(kind) + probe.seconds(kind)
        if not samples:
            raise KeyError(f"the workload ran no {kind!r} operation")
        if probe.seconds(kind):
            value = percentile([s * 1000.0 for s in samples], 50)
        else:
            value = log.typical_ms(kind)
        metrics.put(f"{kind}_p50_ms", value, "ms", len(samples), how)
    queries = [s * 1000.0 for s in log.seconds("query")]
    value, pct = tail(queries)
    metrics.put("query_tail_ms", value, "ms", len(queries), f"p{pct:g}")
    attempted = log.attempted + probe.attempted
    failed = log.failed + probe.failed
    metrics.put("success_ratio", 1.0 - failed / attempted, "ratio", attempted,
                f"failed_ratio = {failed}/{attempted}")
    metrics.put("peak_rss_mb", peak_rss_mb, "MB", None)
