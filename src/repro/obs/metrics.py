"""Process-global metrics: counters, gauges, log-bucketed histograms.

Every engine publishes into the one :data:`REGISTRY`; ``--profile`` and
``--metrics`` both read from it, replacing the five bespoke per-engine
stat objects as the *export* path (the engines keep their cheap internal
counters and snapshot them here at phase boundaries).

Three instrument kinds, each keyed by name plus a frozen label set
(``engine=...``, ``system=...``, ``size=...``):

:class:`Counter`
    Monotone event count, incremented *at event time* (a GC run, a
    learnt-DB reduction).  Never published from a cumulative snapshot —
    that would double-count on the second publish.

:class:`Gauge`
    Last-observed value.  The right kind for snapshotting an engine's
    cumulative internal totals (``sat.conflicts``, ``bdd.peak_live_nodes``):
    re-publishing is idempotent.

:class:`Histogram`
    Power-of-two log-bucketed distribution (bucket ``i`` counts
    observations with ``2**(i-1) < v <= 2**i``), tracking count, sum,
    min, and max, and estimating p50/p90/p99 percentiles from the
    bucket boundaries.  Used for per-check latencies and fixpoint
    iteration counts, where the spread matters more than the total.

Worker processes snapshot their whole registry at the end of every
request (then reset it) and the supervisor merges each snapshot under a
``worker`` label via
:meth:`MetricsRegistry.merge_records` — see :mod:`repro.obs.collect`.

Updates are plain dict/attribute operations with no locking; the
engines are single-threaded per check and the registry is only read at
phase boundaries.  Naming conventions live in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]


def _bucket_index(value: float) -> int:
    """The log2 bucket of ``value``: smallest ``i >= 0`` with ``value <= 2**i``."""
    if value <= 1:
        return 0
    index = 0
    bound = 1
    while bound < value:
        bound *= 2
        index += 1
    return index


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for %r" % amount)
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A last-observed value (idempotent to re-publish)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def snapshot(self) -> Any:
        return self.value


class Histogram:
    """A power-of-two log-bucketed distribution."""

    __slots__ = ("count", "total", "min", "max", "buckets")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets.

        The estimate interpolates linearly inside the log bucket holding
        the quantile rank (bounds ``(2**(i-1), 2**i]``) and is clamped to
        the observed ``[min, max]`` range, so single-observation and
        single-bucket histograms report exact values.  Returns ``None``
        while the histogram is empty.
        """
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= rank:
                upper = float(2**index)
                lower = 0.0 if index == 0 else float(2 ** (index - 1))
                position = (rank - cumulative) / in_bucket
                value = lower + position * (upper - lower)
                return min(max(value, self.min), self.max)
            cumulative += in_bucket
        return self.max  # pragma: no cover - rank <= count always lands

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        This is how a worker process's latency distribution joins the
        coordinator's registry without shipping raw observations: bucket
        counts add bucket-by-bucket (the boundaries are globally fixed at
        powers of two), count/sum add, min/max widen.  Malformed
        snapshots raise ``ValueError``/``TypeError`` — the telemetry
        collector validates before merging.
        """
        count = int(snapshot["count"])
        if count < 0:
            raise ValueError("histogram snapshot count must be >= 0")
        if count == 0:
            return
        # Validate everything before mutating: a malformed snapshot must
        # not leave this histogram half-merged (the telemetry collector
        # skips the record and the registry stays consistent).
        total = float(snapshot["sum"])
        parsed = []
        for bound_text, in_bucket in dict(snapshot["buckets"]).items():
            bound = int(bound_text)
            if bound < 1 or bound & (bound - 1):
                raise ValueError("bucket bound %r is not a power of two" % bound_text)
            parsed.append((bound.bit_length() - 1, int(in_bucket)))
        self.count += count
        self.total += total
        for index, in_bucket in parsed:
            self.buckets[index] = self.buckets.get(index, 0) + in_bucket
        for key, better in (("min", min), ("max", max)):
            value = snapshot.get(key)
            if value is not None:
                ours = getattr(self, key)
                setattr(self, key, value if ours is None else better(ours, value))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            # Percentiles are estimates from the log-bucket boundaries —
            # the per-engine latency columns the service daemon needs.
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            # Bucket keys are the inclusive upper bounds (2**i), emitted
            # as strings so the snapshot is JSON-clean.
            "buckets": {
                str(2**index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }


def _series_key(name: str, labels: Dict[str, Any]) -> Tuple:
    return (name,) + tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_series(name: str, labels: Tuple) -> str:
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % pair for pair in labels))


class MetricsRegistry:
    """All labeled series, addressable as ``registry.counter(name, **labels)``.

    Instruments are created on first touch and live until
    :meth:`reset`.  ``snapshot()`` returns a flat
    ``{"name{label=value}": snapshot}`` dict ready for JSON export.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple, Any] = {}

    def _get(self, factory, name: str, labels: Dict[str, Any]):
        key = (factory.kind,) + _series_key(name, labels)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = factory()
            self._series[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def reset(self) -> None:
        """Drop every series (per-test isolation)."""
        self._series.clear()

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{"name{k=v}": value-or-dict}`` view of every series."""
        out: Dict[str, Any] = {}
        for key in sorted(self._series, key=repr):
            # key = (kind, name, *label_pairs); kind only disambiguates
            # storage — the flat view is keyed by name + labels alone.
            name, labels = key[1], key[2:]
            out[_format_series(name, labels)] = self._series[key].snapshot()
        return out

    def as_records(self) -> List[Dict[str, Any]]:
        """One JSON-clean record per series (the ``--metrics`` JSONL rows)."""
        records = []
        for key in sorted(self._series, key=repr):
            kind, name = key[0], key[1]
            labels = dict(key[2:])
            records.append(
                {
                    "kind": kind,
                    "name": name,
                    "labels": labels,
                    "value": self._series[key].snapshot(),
                }
            )
        return records

    def merge_records(
        self, records: List[Dict[str, Any]], **extra_labels: Any
    ) -> Tuple[int, int]:
        """Fold :meth:`as_records` rows from another registry into this one.

        ``extra_labels`` are added to every merged series — the supervisor
        merges each worker's per-request snapshot under ``worker=<engine>`` so a
        portfolio run's ``--metrics`` file carries per-engine rows next to
        the coordinator's own.  Counters add (each worker attempt counted
        once), gauges overwrite (last snapshot wins), histograms merge
        bucket-by-bucket.  Malformed records are skipped, not raised:
        telemetry from a crashing or chaos-garbled worker must never
        poison the coordinator's registry.  Returns ``(merged, skipped)``.
        """
        merged = 0
        skipped = 0
        for record in records:
            try:
                kind = record["kind"]
                name = record["name"]
                labels = dict(record["labels"])
                labels.update(extra_labels)
                value = record["value"]
                if kind == "counter":
                    self.counter(name, **labels).inc(int(value))
                elif kind == "gauge":
                    self.gauge(name, **labels).set(value)
                elif kind == "histogram":
                    self.histogram(name, **labels).merge(value)
                else:
                    raise ValueError("unknown instrument kind %r" % (kind,))
            except (KeyError, TypeError, ValueError, AttributeError):
                skipped += 1
                continue
            merged += 1
        return merged, skipped


#: The process-global registry every engine publishes into.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: Any) -> Counter:
    """``REGISTRY.counter`` shorthand for instrumentation sites."""
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    """``REGISTRY.gauge`` shorthand for instrumentation sites."""
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels: Any) -> Histogram:
    """``REGISTRY.histogram`` shorthand for instrumentation sites."""
    return REGISTRY.histogram(name, **labels)
