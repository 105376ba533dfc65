"""Engine/communicator event emission and sink plumbing."""

from repro.cluster.netmodels import infiniband_qdr
from repro.obs.events import (
    CollectiveEnter,
    CollectiveExit,
    CountingSink,
    EventSink,
    MailboxDeposit,
    ModelFit,
    MsgDeliver,
    MsgSend,
    NicQueue,
    ProcBlock,
    ProcWake,
    RecordingSink,
    default_sink,
    get_default_sink,
    set_default_sink,
)
from tests.conftest import run_spmd


def ring_body(ctx, comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.send(right, 7, comm.rank, 64)
    msg = yield from comm.recv(left, 7)
    return msg.payload


class TestEngineEmission:
    def test_send_deliver_pairing(self):
        sink = RecordingSink()
        with default_sink(sink):
            _, res = run_spmd(ring_body)
        sends = sink.of_type(MsgSend)
        delivers = sink.of_type(MsgDeliver)
        assert len(sends) == 4
        assert len(delivers) == 4
        assert {s.seq for s in sends} == {d.seq for d in delivers}
        for d in delivers:
            assert d.latency >= 0.0
        assert res.values == [3, 0, 1, 2]

    def test_block_wake_on_recv(self):
        sink = RecordingSink()

        def body(ctx, comm):
            if comm.rank == 0:
                yield from ctx.elapse(1.0)  # receiver arrives first
                yield from comm.send(1, 1, None, 8)
            else:
                yield from comm.recv(0, 1)

        with default_sink(sink):
            run_spmd(body, num_nodes=1, ranks_per_node=2)
        blocks = [e for e in sink.of_type(ProcBlock) if e.rank == 1]
        assert blocks and blocks[0].reason == "recv"
        assert any(e.rank == 1 for e in sink.of_type(ProcWake))

    def test_collective_enter_exit_balanced(self):
        sink = RecordingSink()

        def body(ctx, comm):
            yield from comm.barrier()
            total = yield from comm.allreduce(1)
            return total

        with default_sink(sink):
            _, res = run_spmd(body)
        enters = sink.of_type(CollectiveEnter)
        exits = sink.of_type(CollectiveExit)
        names = {e.name for e in enters}
        assert names == {"MPI_Barrier", "MPI_Allreduce"}
        # Every rank enters and exits each collective exactly once.
        for name in names:
            ranks_in = sorted(e.rank for e in enters if e.name == name)
            ranks_out = sorted(e.rank for e in exits if e.name == name)
            assert ranks_in == ranks_out == [0, 1, 2, 3]
        assert res.values == [4, 4, 4, 4]

    def test_emission_order_is_time_sorted_per_rank(self):
        sink = RecordingSink()
        with default_sink(sink):
            run_spmd(ring_body, network=infiniband_qdr())
        by_rank = {}
        for e in sink.events:
            by_rank.setdefault(e.rank, []).append(e.time)
        for times in by_rank.values():
            assert times == sorted(times)


class TestSinks:
    def test_counting_sink(self):
        sink = CountingSink()
        with default_sink(sink):
            run_spmd(ring_body)
        assert sink.counts["MsgSend"] == 4
        assert sink.counts["MsgDeliver"] == 4
        assert sink.total == sum(sink.counts.values())
        sink.clear()
        assert sink.total == 0

    def test_recording_sink_is_event_sink(self):
        assert isinstance(RecordingSink(), EventSink)
        assert isinstance(CountingSink(), EventSink)

    def test_default_sink_restored(self):
        assert get_default_sink() is None
        sink = RecordingSink()
        with default_sink(sink) as s:
            assert s is sink
            assert get_default_sink() is sink
        assert get_default_sink() is None

    def test_set_default_sink_explicit(self):
        sink = CountingSink()
        set_default_sink(sink)
        try:
            assert get_default_sink() is sink
        finally:
            set_default_sink(None)
        assert get_default_sink() is None

    def test_explicit_sink_wins_over_default(self):
        explicit = RecordingSink()
        ambient = RecordingSink()

        def body(ctx, comm):
            yield from comm.barrier()

        from repro.cluster.netmodels import ideal_network
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation

        machine = Machine(num_nodes=2, sockets_per_node=1,
                          cores_per_socket=1, ranks_per_node=1,
                          name="t")
        with default_sink(ambient):
            sim = Simulation(machine=machine, network=ideal_network(),
                             sink=explicit)
            sim.run(body)
        assert len(explicit) > 0
        assert len(ambient) == 0


class TestMetricOnlyRecords:
    """Mailbox deposits, model fits and idle-NIC injections feed the
    metrics registry and the series bank only: trace and span views
    are the same with or without them."""

    def _stream(self):
        from repro.sync import HCA3Sync

        def body(ctx, comm):
            # The early send queues in a mailbox during the sync.
            right = (comm.rank + 1) % comm.size
            yield from comm.send(right, 9, None, 64)
            yield from HCA3Sync(nfitpoints=3).sync_clocks(
                comm, ctx.hardware_clock
            )
            yield from comm.recv((comm.rank - 1) % comm.size, 9)

        sink = RecordingSink()
        with default_sink(sink):
            run_spmd(body, network=infiniband_qdr())
        return sink.events

    @staticmethod
    def _metric_only(event):
        return isinstance(event, (MailboxDeposit, ModelFit)) or (
            isinstance(event, NicQueue) and event.backlog <= 0.0
        )

    def test_trace_and_spans_ignore_them(self):
        from repro.obs.chrome_trace import engine_events_to_chrome
        from repro.obs.spans import SpanRecorder

        events = self._stream()
        kept = [e for e in events if not self._metric_only(e)]
        assert len(kept) < len(events)
        for cls in (MailboxDeposit, ModelFit, NicQueue):
            assert any(isinstance(e, cls) for e in events)
        assert engine_events_to_chrome(events, include_flows=True) == (
            engine_events_to_chrome(kept, include_flows=True)
        )
        views = []
        for stream in (events, kept):
            recorder = SpanRecorder()
            for event in stream:
                recorder.emit(event)
            views.append([
                (run.events, run.t_end, run.end_rank, sorted(run.edges),
                 run.phases, run.blocks)
                for run in recorder.runs
            ])
        assert views[0] == views[1]
