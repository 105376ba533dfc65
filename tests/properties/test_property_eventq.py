"""Property tests: the calendar queue is the same priority queue as a heap.

Hypothesis drives randomized operation sequences — pushes with heavy
timestamp ties, far-future outliers that land thousands of bucket widths
ahead, interleaved pops, and lazy cancellations — through a
:class:`CalendarQueue` and the reference :class:`HeapQueue` in lockstep,
asserting identical pop streams, sizes and frontiers at every step.

Sequences respect the engine's contract: a push never predates the last
pop (the simulator cannot schedule into the consumed past), but pushes
*below the current frontier* are legal and exercised — deferred wakeups
and message deliveries land there routinely.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.eventq import CalendarQueue
from tests.eventq_reference import HeapQueue

#: Operation script: each element either pushes (time-delta from the
#: last pop, rank) or pops/cancels.  Deltas mix sub-width ties, in-bucket
#: offsets and far-future outliers so bucket boundaries get hammered.
_DELTAS = st.sampled_from(
    [0.0, 1e-12, 3e-9, 1e-7, 5e-7, 1e-6, 2.5e-6, 1e-4, 0.5, 7200.0]
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _DELTAS, st.integers(0, 7)),
        st.tuples(st.just("pop"), st.just(0.0), st.just(0)),
        st.tuples(st.just("cancel"), st.just(0.0), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


def _run_script(ops, width):
    """Drive both queues through ``ops``; return their pop streams."""
    cal = CalendarQueue(width=width)
    heap = HeapQueue()
    seq = 0
    floor = 0.0  # time of the last pop: pushes never go below it
    live = []  # seqs not yet popped or cancelled
    pops_cal = []
    pops_heap = []
    for op, delta, rank in ops:
        if op == "push":
            t = floor + delta
            cal.push(t, seq, rank)
            heap.push(t, seq, rank)
            live.append(seq)
            seq += 1
        elif op == "pop" and live:
            a = cal.pop()
            b = heap.pop()
            pops_cal.append(a)
            pops_heap.append(b)
            live.remove(a[1])
            floor = a[0]
        elif op == "cancel" and live:
            # Deterministically pick a live victim mid-queue.
            victim = live[len(live) // 2]
            cal.cancel(victim)
            heap.cancel(victim)
            live.remove(victim)
        assert cal.size == heap.size == len(live)
    # Drain whatever survived.
    while heap.size:
        pops_cal.append(cal.pop())
        pops_heap.append(heap.pop())
    return pops_cal, pops_heap


class TestKernelsAgree:
    @given(ops=_OPS, width=st.sampled_from([1e-9, 1e-7, 1e-6, 1e-3, 1.0]))
    @settings(max_examples=120)
    def test_pop_streams_identical(self, ops, width):
        pops_cal, pops_heap = _run_script(ops, width)
        assert pops_cal == pops_heap

    @given(ops=_OPS)
    @settings(max_examples=60)
    def test_pop_stream_is_time_seq_sorted(self, ops):
        pops_cal, _ = _run_script(ops, 1e-6)
        keys = [(t, s) for t, s, _ in pops_cal]
        assert keys == sorted(keys)

    @given(
        n=st.integers(2, 40),
        width=st.sampled_from([1e-9, 1e-6, 1.0]),
    )
    @settings(max_examples=60)
    def test_all_ties_pop_in_seq_order(self, n, width):
        cal = CalendarQueue(width=width)
        for s in range(n):
            cal.push(4.2e-6, s, s)
        assert [item[1] for item in _drain(cal)] == list(range(n))


def _drain(queue):
    out = []
    while queue.size:
        out.append(queue.pop())
    return out
