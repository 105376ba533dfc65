"""Pending-event queue for the engine: a calendar of time buckets.

The engine's event loop needs three operations on the pending-event set —
``push``, ``pop-min`` and an exact *frontier* peek (the causality gate
compares every command against the earliest pending event).  Events are
``(time, seq, rank)`` tuples where ``seq`` is a monotonic tie-breaker, so
``(time, seq)`` is a total order and the queue must pop in exactly that
order; the bucket width changes cost, never the order.

:class:`CalendarQueue` keeps fixed-width time buckets in a sparse dict,
with a small heap of *bucket indices* standing in for the usual overflow
list.  Pops walk the current bucket (sorted once, lazily, per bucket) by
cursor; pushes append to a future bucket or bisect into the current
bucket's un-consumed remainder.  Per-event cost stays O(1) amortized
regardless of how many events are pending, because the bucket-index heap
sees one entry per *occupied bucket*, not per event.  (A plain binary
heap pays O(log n) with n ~ p pending events; the property tests keep
one as the ordering oracle.)

The queue maintains ``frontier`` — the exact time of the earliest live
event (``math.inf`` when empty) — as a plain attribute, so the engine's
causality gate is one float comparison instead of a peek, and ``size`` —
the live-event count — for queue-depth telemetry.

Cancellation is lazy: :meth:`CalendarQueue.cancel` marks a sequence
number dead and the queue discards the entry whenever it surfaces.
``size`` drops immediately; ``frontier`` may transiently point at a
cancelled entry (it is corrected by the next ``pop``), which is
documented behaviour — the engine never gates on a cancelled wakeup's
time because it only cancels entries it will not wait for.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from math import inf

__all__ = ["CalendarQueue", "auto_bucket_width"]

#: Auto-width numerator: the calendar queue aims for a handful of events
#: per bucket.  Pending events cluster within one per-message service
#: window (~send overhead + latency), and a p-rank job keeps ~p of them
#: in flight, so ``window * TARGET_OCCUPANCY / p`` puts a near-constant
#: number of events in each bucket at every scale.
_TARGET_OCCUPANCY = 8.0


def auto_bucket_width(service_window: float, num_ranks: int) -> float:
    """Bucket width targeting ~:data:`_TARGET_OCCUPANCY` events/bucket.

    ``service_window`` is the engine's estimate of one message's service
    time (send/recv overheads plus the finest base latency); it is a
    deterministic function of the network model, so the width never
    depends on anything but the configuration.
    """
    window = service_window if service_window > 0.0 else 1e-6
    return window * _TARGET_OCCUPANCY / max(1, num_ranks)


class CalendarQueue:
    """Bucketed event queue with O(1) amortized push/pop (see module doc).

    Invariant: whenever the queue is non-empty, ``_cur[_pos:]`` is the
    sorted, un-consumed remainder of the earliest occupied bucket and
    ``frontier == _cur[_pos][0]``.  ``_advance`` restores the invariant
    after the current bucket drains by sorting the next occupied bucket
    (found through ``_idx_heap``, which may hold stale indices for
    buckets already merged — they are skipped).

    Pushes that sort at or before the current remainder's tail (same
    bucket, or an earlier-bucket time that became reachable only after
    the pop that emptied its bucket) are bisected directly into the
    remainder, which keeps pop order exactly ``(time, seq)``-sorted for
    any bucket width.
    """

    __slots__ = (
        "width",
        "_inv_width",
        "_buckets",
        "_idx_heap",
        "_cur",
        "_pos",
        "_cur_idx",
        "_cancelled",
        "frontier",
        "size",
    )

    def __init__(self, width: float = 1e-6) -> None:
        if not width > 0.0:
            raise ValueError(f"bucket width must be > 0, got {width}")
        self.width = float(width)
        self._inv_width = 1.0 / self.width
        self._buckets: dict[int, list[tuple[float, int, int]]] = {}
        self._idx_heap: list[int] = []
        self._cur: list[tuple[float, int, int]] = []
        self._pos = 0
        self._cur_idx = -1
        self._cancelled: set[int] = set()
        self.frontier = inf
        self.size = 0

    def push(self, time: float, seq: int, rank: int) -> None:
        self.size += 1
        cur = self._cur
        pos = self._pos
        if pos < len(cur):
            idx = int(time * self._inv_width)
            if idx <= self._cur_idx:
                # Current (or already-passed) bucket: keep the remainder
                # sorted.  ``lo=pos`` skips the consumed prefix; entries
                # never sort before it because pushes are not in the past
                # of the last pop.
                insort(cur, (time, seq, rank), lo=pos)
                if time < self.frontier:
                    self.frontier = time
                return
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [(time, seq, rank)]
                heappush(self._idx_heap, idx)
            else:
                bucket.append((time, seq, rank))
            return
        # Queue was empty: stage the entry and rebuild the invariant.
        idx = int(time * self._inv_width)
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = [(time, seq, rank)]
            heappush(self._idx_heap, idx)
        else:  # pragma: no cover - only via cancelled leftovers
            bucket.append((time, seq, rank))
        self._advance()

    def pop(self) -> tuple[float, int, int]:
        cancelled = self._cancelled
        while True:
            cur = self._cur
            pos = self._pos
            item = cur[pos]
            self._pos = pos + 1
            if self._pos >= len(cur):
                self._advance()
            else:
                self.frontier = cur[self._pos][0]
            if cancelled and item[1] in cancelled:
                cancelled.discard(item[1])
                continue
            self.size -= 1
            return item

    def cancel(self, seq: int) -> None:
        """Lazily delete the entry with tie-break ``seq`` (must be live)."""
        self._cancelled.add(seq)
        self.size -= 1

    def _advance(self) -> None:
        """Load the next occupied bucket as the sorted current remainder."""
        idx_heap = self._idx_heap
        buckets = self._buckets
        while idx_heap:
            idx = heappop(idx_heap)
            bucket = buckets.pop(idx, None)
            if not bucket:
                continue
            bucket.sort()
            self._cur = bucket
            self._pos = 0
            self._cur_idx = idx
            self.frontier = bucket[0][0]
            return
        self._cur = []
        self._pos = 0
        self.frontier = inf

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CalendarQueue(width={self.width}, size={self.size}, "
            f"frontier={self.frontier})"
        )
