"""Reference event queue the calendar queue is checked against.

:class:`HeapQueue` is the plain ``heapq`` priority queue over ``(time,
seq, rank)`` with the same ``push``/``pop``/``cancel``/``frontier``/
``size`` interface as :class:`repro.simmpi.eventq.CalendarQueue`.  It is
simple enough to be obviously correct, so the queue unit and property
tests run both in lockstep; the engine itself only ever builds the
calendar queue.
"""

from heapq import heappop, heappush
from math import inf


class HeapQueue:
    """Binary-heap event queue: the ordering oracle for ``CalendarQueue``."""

    __slots__ = ("_heap", "_cancelled", "frontier", "size")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []
        self._cancelled: set[int] = set()
        self.frontier = inf
        self.size = 0

    def push(self, time: float, seq: int, rank: int) -> None:
        heappush(self._heap, (time, seq, rank))
        self.size += 1
        if time < self.frontier:
            self.frontier = time

    def pop(self) -> tuple[float, int, int]:
        heap = self._heap
        cancelled = self._cancelled
        while True:
            item = heappop(heap)
            if cancelled and item[1] in cancelled:
                cancelled.discard(item[1])
                continue
            break
        self.size -= 1
        if heap:
            self.frontier = heap[0][0]
        else:
            self.frontier = inf
        return item

    def cancel(self, seq: int) -> None:
        """Lazily delete the entry with tie-break ``seq`` (must be live)."""
        self._cancelled.add(seq)
        self.size -= 1

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeapQueue(size={self.size}, frontier={self.frontier})"
