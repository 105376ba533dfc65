"""Unit tests for the engine's event queue.

The contract (see ``repro.simmpi.eventq``): events are ``(time, seq,
rank)`` with ``seq`` a monotonic tie-breaker, so ``(time, seq)`` is a
total order and the queue must pop in exactly that order.  The contract
tests run the calendar queue and the reference binary heap side by side,
so the oracle the property tests trust is itself pinned here.
"""

import math

import pytest

from repro.simmpi.eventq import CalendarQueue, auto_bucket_width
from tests.eventq_reference import HeapQueue


def drain(queue):
    out = []
    while queue.size:
        out.append(queue.pop())
    return out


class TestMakeQueue:
    """The engine makes ``CalendarQueue(auto_bucket_width(...))``."""

    def test_bad_width_raises(self):
        for width in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError):
                CalendarQueue(width=width)

    def test_auto_width_scales_inversely_with_ranks(self):
        w32 = auto_bucket_width(1e-6, 32)
        w4096 = auto_bucket_width(1e-6, 4096)
        assert w32 > w4096 > 0.0
        assert w32 / w4096 == pytest.approx(4096 / 32)

    def test_auto_width_defends_degenerate_window(self):
        assert auto_bucket_width(0.0, 8) > 0.0
        assert auto_bucket_width(-1.0, 8) > 0.0


@pytest.mark.parametrize(
    "queue_cls", [CalendarQueue, HeapQueue], ids=["calendar", "heap"]
)
class TestQueueContract:
    """Behaviour the calendar queue shares with the reference heap."""

    def test_pops_in_time_seq_order(self, queue_cls):
        q = queue_cls()
        events = [(3e-6, 0, 0), (1e-6, 1, 1), (2e-6, 2, 2), (1e-6, 3, 3)]
        for time, seq, rank in events:
            q.push(time, seq, rank)
        assert drain(q) == sorted(events)

    def test_ties_break_by_seq(self, queue_cls):
        q = queue_cls()
        for seq in (5, 1, 3, 2, 4):
            q.push(7e-6, seq, seq)
        assert [item[1] for item in drain(q)] == [1, 2, 3, 4, 5]

    def test_frontier_tracks_earliest(self, queue_cls):
        q = queue_cls()
        assert q.frontier == math.inf
        q.push(5e-6, 0, 0)
        assert q.frontier == 5e-6
        q.push(2e-6, 1, 1)
        assert q.frontier == 2e-6
        q.pop()
        assert q.frontier == 5e-6
        q.pop()
        assert q.frontier == math.inf

    def test_size_and_len(self, queue_cls):
        q = queue_cls()
        for i in range(5):
            q.push(i * 1e-6, i, i)
        assert q.size == len(q) == 5
        q.pop()
        assert q.size == len(q) == 4

    def test_cancelled_entries_never_surface(self, queue_cls):
        q = queue_cls()
        for i in range(4):
            q.push(i * 1e-6, i, i)
        q.cancel(0)  # head of the queue
        q.cancel(2)  # middle
        assert q.size == 2
        assert [item[1] for item in drain(q)] == [1, 3]

    def test_interleaved_push_pop(self, queue_cls):
        q = queue_cls()
        q.push(1e-6, 0, 0)
        q.push(4e-6, 1, 1)
        assert q.pop()[1] == 0
        # Pushes after a pop may land anywhere at/after the popped time,
        # including before the current frontier.
        q.push(2e-6, 2, 2)
        q.push(3e-6, 3, 3)
        assert [item[1] for item in drain(q)] == [2, 3, 1]

    def test_refill_after_empty(self, queue_cls):
        q = queue_cls()
        q.push(1e-6, 0, 0)
        assert q.pop()[1] == 0
        assert q.size == 0 and q.frontier == math.inf
        q.push(9e-6, 1, 1)
        q.push(8e-6, 2, 2)
        assert [item[1] for item in drain(q)] == [2, 1]


class TestCalendarSpecifics:
    def test_far_future_overflow_single_sparse_bucket(self):
        """Times thousands of widths apart stay O(occupied buckets)."""
        q = CalendarQueue(width=1e-9)
        times = [1e-6, 1.0, 3600.0, 86400.0]
        for seq, t in enumerate(times):
            q.push(t, seq, 0)
        # One sparse bucket per event, not one slot per elapsed width.
        assert len(q._buckets) + (1 if q._cur else 0) <= len(times)
        assert [item[0] for item in drain(q)] == times

    def test_same_bucket_push_lands_in_sorted_remainder(self):
        q = CalendarQueue(width=1e-3)  # everything in one bucket
        q.push(1e-6, 0, 0)
        q.push(5e-6, 1, 1)
        assert q.pop()[1] == 0
        q.push(2e-6, 2, 2)  # same bucket, before the remainder head
        assert q.frontier == 2e-6
        assert [item[1] for item in drain(q)] == [2, 1]

    def test_earlier_bucket_after_advance_still_ordered(self):
        """A push into an already-passed bucket index joins the remainder."""
        q = CalendarQueue(width=1e-6)
        q.push(0.5e-6, 0, 0)  # bucket 0
        q.push(5.5e-6, 1, 1)  # bucket 5
        assert q.pop()[1] == 0  # drains bucket 0, advances to bucket 5
        q.push(2.5e-6, 2, 2)   # bucket 2 < current bucket 5
        assert q.frontier == 2.5e-6
        assert [item[1] for item in drain(q)] == [2, 1]

    def test_width_never_changes_pop_order(self):
        events = [
            (i * 7919 % 13 * 1e-7 + (i % 3) * 1e-4, i, i % 5)
            for i in range(200)
        ]
        reference = None
        for width in (1e-9, 1e-7, 1e-5, 1e-3, 1.0):
            q = CalendarQueue(width=width)
            for time, seq, rank in events:
                q.push(time, seq, rank)
            order = drain(q)
            if reference is None:
                reference = order
            assert order == reference
        assert reference == sorted(events)
