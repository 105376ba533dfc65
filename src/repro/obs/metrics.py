"""Metrics registry: counters, gauges, histograms with per-rank labels.

A registry is an event sink: attached to a simulation, it derives the
engine and sync metrics from the event stream (:meth:`MetricsRegistry.emit`)
under dotted, Prometheus-ish names:

* ``engine.messages.sent`` / ``engine.messages.delivered`` (counters),
* ``engine.bytes.sent`` / ``engine.bytes.delivered`` (counters),
* ``engine.nic.backlog`` (histogram of queue depths found at the NIC),
* ``engine.mailbox.depth`` (histogram of mailbox depths at deposit),
* ``engine.rendezvous.stalls`` (counter of blocking Ssend matches),
* ``engine.rendezvous.stall_time`` (histogram of sender stall durations),
* ``faults.scheduled`` (counter) and ``resync.rounds`` (per-rank counter).

Metrics keyed with ``rank=`` aggregate per process; ``merged`` folds the
per-rank series of one name into a single job-level view.  Like the event
sinks, metrics are passive: updating them never perturbs the simulation.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.obs import events as obs_events

#: Fixed seed for every histogram's reservoir sampler: downsampling must
#: be a pure function of the observation sequence so repeated runs (and
#: the serial vs parallel executor paths, which replay the same sequence)
#: produce identical sample buffers.
RESERVOIR_SEED = 0xC10C


class Counter:
    """Monotonically increasing count/sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-set value, tracking the extremes and how often it was set.

    ``set_count`` distinguishes "created but never set" (value 0.0,
    extremes at ±inf) from a legitimately-set 0.0 — the merge path
    relies on it to avoid a pristine worker gauge clobbering the
    parent's last-set value.
    """

    __slots__ = ("value", "max_value", "min_value", "set_count")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf
        self.set_count = 0

    def set(self, value: float) -> None:
        self.value = value
        self.set_count += 1
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value


class Histogram:
    """Streaming summary (count/sum/min/max) plus a bounded sample buffer.

    Quantiles come from a deterministic **reservoir** (Vitter's
    Algorithm R with a fixed-seed per-instance RNG): every offered
    observation has equal retention probability, so post-merge quantiles
    no longer favor early/first-worker samples, yet the buffer is still
    a pure function of the observation sequence — repeated runs stay
    bit-identical.  The scalar summary stays exact regardless of volume.
    """

    __slots__ = ("count", "total", "min_value", "max_value", "_samples",
                 "max_samples", "_offered", "_rng")

    def __init__(self, max_samples: int = 4096) -> None:
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._offered = 0
        self._rng = random.Random(RESERVOIR_SEED)

    def _offer(self, value: float) -> None:
        """Offer one value to the reservoir (Algorithm R)."""
        self._offered += 1
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self._offered)
        if slot < self.max_samples:
            self._samples[slot] = value

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self._offer(value)

    def observe_many(self, values) -> None:
        """Observe a batch (numpy array or sequence) of values.

        The reservoir consumes values one at a time in order, so the
        retained sample buffer — and therefore every quantile — is
        bit-identical to a loop of :meth:`observe` calls over the same
        sequence.  The scalar summary is folded batch-wise (``fsum`` for
        the total), which is exact rather than order-accumulated.
        """
        values = [float(v) for v in values]
        if not values:
            return
        self.count += len(values)
        self.total += math.fsum(values)
        lo = min(values)
        hi = max(values)
        if lo < self.min_value:
            self.min_value = lo
        if hi > self.max_value:
            self.max_value = hi
        for value in values:
            self._offer(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate from the retained samples."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        h = min(len(ordered) - 1.0, max(0.0, q * (len(ordered) - 1)))
        lo = int(h)
        hi = min(lo + 1, len(ordered) - 1)
        frac = h - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        # Replay the other buffer through this reservoir: deterministic
        # (fixed-seed RNG stream) and unbiased over the full sequence,
        # instead of keeping only the head of other._samples.
        for value in other._samples:
            self._offer(value)


class MetricsRegistry:
    """Registry of named metrics, optionally labelled by rank.

    A metric is addressed by ``(name, rank)``; ``rank=None`` is the
    job-level series.  Accessors create on first use so instrumentation
    sites stay one-liners.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, int | None], Counter] = {}
        self._gauges: dict[tuple[str, int | None], Gauge] = {}
        self._histograms: dict[tuple[str, int | None], Histogram] = {}
        #: rank -> true time its pending ``ssend`` blocked at.
        self._ssend_since: dict[int, float] = {}

    def emit(self, event: obs_events.Event) -> None:
        """Derive the engine and sync metrics from one event record."""
        etype = type(event)
        if etype is obs_events.MsgSend:
            self.counter("engine.messages.sent", event.rank).inc()
            self.counter("engine.bytes.sent", event.rank).inc(event.size)
            if event.synchronous:
                self.counter("engine.rendezvous.stalls", event.rank).inc()
        elif etype is obs_events.MsgDeliver:
            self.counter("engine.messages.delivered", event.rank).inc()
            self.counter("engine.bytes.delivered",
                         event.rank).inc(event.size)
        elif etype is obs_events.NicQueue:
            self.histogram("engine.nic.backlog").observe(event.backlog)
        elif etype is obs_events.MailboxDeposit:
            self.histogram("engine.mailbox.depth",
                           event.dest).observe(event.depth)
        elif etype is obs_events.ProcBlock:
            if event.reason == "ssend":
                self._ssend_since[event.rank] = event.time
        elif etype is obs_events.ProcWake:
            if event.cause == "ack":
                self.histogram(
                    "engine.rendezvous.stall_time", event.rank
                ).observe(event.time - self._ssend_since.pop(
                    event.rank, event.time
                ))
        elif etype is obs_events.FaultInject:
            self.counter("faults.scheduled").inc()
        elif etype is obs_events.ResyncRound:
            self.counter("resync.rounds", event.rank).inc()

    # ------------------------------------------------------------------
    def counter(self, name: str, rank: int | None = None) -> Counter:
        key = (name, rank)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, rank: int | None = None) -> Gauge:
        key = (name, rank)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, rank: int | None = None) -> Histogram:
        key = (name, rank)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def ranks_of(self, name: str) -> list[int]:
        """The ranks that have a per-rank series under ``name``."""
        ranks = {
            rank
            for store in (self._counters, self._gauges, self._histograms)
            for (n, rank) in store
            if n == name and rank is not None
        }
        return sorted(ranks)

    def merged_counter(self, name: str) -> float:
        """Sum of one counter over all its labels (per-rank + job-level)."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def merged_histogram(self, name: str) -> Histogram:
        """All labelled series of one histogram folded together."""
        merged = Histogram()
        for (n, _), h in self._histograms.items():
            if n == name:
                merged.merge(h)
        return merged

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (label-wise).

        Counters and histograms accumulate; a gauge takes the other's
        last-set value *only if the other gauge was actually set*
        (``set_count > 0``) while keeping the combined extremes — a
        worker gauge that was created but never set must not clobber
        the parent's value.  Used by the parallel executor to merge
        per-worker registries into the parent in job-submission order.
        """
        for key, c in other._counters.items():
            self.counter(*key).inc(c.value)
        for key, g in other._gauges.items():
            mine = self.gauge(*key)
            if g.set_count:
                mine.value = g.value
            mine.set_count += g.set_count
            mine.max_value = max(mine.max_value, g.max_value)
            mine.min_value = min(mine.min_value, g.min_value)
        for key, h in other._histograms.items():
            self.histogram(*key).merge(h)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Plain-dict dump (for run summaries and JSON serialization)."""

        def label(name: str, rank: int | None) -> str:
            return name if rank is None else f"{name}[rank={rank}]"

        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, rank), c in sorted(self._counters.items(),
                                      key=lambda kv: str(kv[0])):
            out["counters"][label(name, rank)] = c.value
        for (name, rank), g in sorted(self._gauges.items(),
                                      key=lambda kv: str(kv[0])):
            out["gauges"][label(name, rank)] = {
                "value": g.value, "max": g.max_value, "min": g.min_value,
                "set_count": g.set_count,
            }
        for (name, rank), h in sorted(self._histograms.items(),
                                      key=lambda kv: str(kv[0])):
            out["histograms"][label(name, rank)] = {
                "count": h.count,
                "mean": h.mean,
                "min": h.min_value if h.count else 0.0,
                "max": h.max_value if h.count else 0.0,
                "p50": h.quantile(0.5),
                "p99": h.quantile(0.99),
                "p999": h.quantile(0.999),
            }
        return out

    def names(self) -> list[str]:
        """Every distinct metric name in the registry."""
        seen: set[str] = set()
        for store in (self._counters, self._gauges, self._histograms):
            seen.update(name for (name, _) in store)
        return sorted(seen)


def format_summary(registry: MetricsRegistry,
                   names: Iterable[str] | None = None) -> str:
    """Human-readable one-line-per-metric summary of a registry."""
    snap = registry.snapshot()
    lines = []
    wanted = set(names) if names is not None else None

    def keep(label: str) -> bool:
        if wanted is None:
            return True
        return label.split("[")[0] in wanted

    for label, value in snap["counters"].items():
        if keep(label):
            lines.append(f"{label}: {value:g}")
    for label, g in snap["gauges"].items():
        if keep(label):
            lines.append(f"{label}: {g['value']:g} (max {g['max']:g})")
    for label, h in snap["histograms"].items():
        if keep(label) and h["count"]:
            lines.append(
                f"{label}: n={h['count']} mean={h['mean']:.3g} "
                f"p99={h['p99']:.3g} max={h['max']:.3g}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-wide default registry (used by Simulation when none is passed)
# ----------------------------------------------------------------------
_DEFAULT_METRICS: MetricsRegistry | None = None


def set_default_metrics(registry: MetricsRegistry | None) -> None:
    """Install (or clear, with ``None``) the default metrics registry."""
    global _DEFAULT_METRICS
    _DEFAULT_METRICS = registry


def get_default_metrics() -> MetricsRegistry | None:
    """The currently installed default registry, if any."""
    return _DEFAULT_METRICS


@contextmanager
def default_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` as the default (restores on exit)."""
    previous = get_default_metrics()
    set_default_metrics(registry)
    try:
        yield registry
    finally:
        set_default_metrics(previous)
