"""Tests for event-stream recording, replay, and the repro.check CLI."""

from __future__ import annotations

import json

import pytest

from repro.check import InvariantViolation
from repro.check.__main__ import main as check_main
from repro.check.replay import (
    EVENT_TYPES,
    dump_events,
    event_from_dict,
    event_to_dict,
    load_events,
    replay_events,
    replay_file,
)
from repro.cluster.netmodels import ideal_network
from repro.errors import SimulationError
from repro.obs import events as ev
from repro.obs.events import RecordingSink


def recorded_run(seed=0):
    """A small clean run with a RecordingSink attached."""
    sink = RecordingSink()

    def body(ctx, comm):
        total = yield from comm.allreduce(ctx.rank)
        yield from comm.barrier()
        return total

    from repro.cluster.topology import Machine
    from repro.simmpi.simulation import Simulation

    machine = Machine(num_nodes=2, sockets_per_node=1, cores_per_socket=2,
                      ranks_per_node=2, name="replaybox")
    sim = Simulation(machine=machine, network=ideal_network(), seed=seed,
                     sink=sink)
    sim.run(body)
    return sink.events


class TestEventRoundTrip:
    def test_every_type_round_trips(self):
        samples = [
            ev.MsgSend(time=1.0, rank=0, dest=1, tag=2, size=8, seq=0,
                       level="remote", synchronous=True),
            ev.MsgDeliver(time=2.0, rank=1, source=0, tag=2, size=8,
                          seq=0, latency=1.0),
            ev.ProcBlock(time=1.0, rank=0, reason="recv", source=1, tag=2),
            ev.ProcWake(time=2.0, rank=0),
            ev.NicQueue(time=1.0, rank=0, node=0, backlog=2.5,
                        inject_time=1.1),
            ev.MailboxDeposit(time=1.0, rank=0, dest=1, seq=3, depth=2),
            ev.ModelFit(time=4.0, rank=1, slope=1e-6, intercept=-2e-5,
                        duration=0.5),
            ev.FaultInject(time=5.0, rank=-1, kind="clock_step",
                           name="ntp", target="node 1", duration=0.0),
            ev.ResyncRound(time=3.0, rank=0, round_index=1, age=0.5),
            ev.PhaseBegin(time=1.0, rank=0, name="sync.learn",
                          algorithm="hca", level="GLOBAL", round_index=2,
                          ref=0, peer=3),
            ev.PhaseEnd(time=2.0, rank=0, name="sync.learn"),
            ev.CollectiveEnter(time=1.0, rank=0, name="MPI_Barrier",
                               comm_id=0, comm_rank=0, comm_size=4),
            ev.CollectiveExit(time=2.0, rank=0, name="MPI_Barrier",
                              comm_id=0, comm_rank=0, comm_size=4),
        ]
        assert {type(s).__name__ for s in samples} == set(EVENT_TYPES)
        for event in samples:
            assert event_from_dict(event_to_dict(event)) == event

    def test_unknown_type_rejected(self):
        with pytest.raises(SimulationError):
            event_from_dict({"type": "Bogus", "time": 1.0})

    def test_bad_fields_rejected(self):
        with pytest.raises(SimulationError):
            event_from_dict({"type": "ProcWake", "nonsense": True})

    def test_dump_load_file_round_trip(self, tmp_path):
        events = recorded_run()
        path = tmp_path / "run.jsonl"
        n = dump_events(events, path)
        assert n == len(events) > 0
        assert list(load_events(path)) == events

    @pytest.mark.parametrize("etype", [ev.MailboxDeposit, ev.ModelFit])
    def test_metric_records_replay_clean(self, etype, tmp_path):
        """A live run's mailbox deposits and model fits survive a dump,
        and the replayed stream checks clean."""
        from repro.cluster.netmodels import infiniband_qdr
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation
        from repro.sync import HCA3Sync

        def body(ctx, comm):
            # The early send waits in rank 1's mailbox during the sync.
            if ctx.rank == 0:
                yield from comm.send(1, 9, size=8)
            yield from HCA3Sync(nfitpoints=3).sync_clocks(
                comm, ctx.hardware_clock
            )
            if ctx.rank == 1:
                yield from comm.recv(0, 9)

        sink = RecordingSink()
        machine = Machine(num_nodes=2, sockets_per_node=1,
                          cores_per_socket=1, ranks_per_node=1,
                          name="replaybox")
        Simulation(machine=machine, network=infiniband_qdr(), seed=2,
                   sink=sink).run(body)
        assert sink.of_type(etype)
        path = tmp_path / "run.jsonl"
        dump_events(sink.events, path)
        assert list(load_events(path)) == sink.events
        assert replay_file(path).ok


class TestReplay:
    def test_clean_stream_clean_report(self):
        report = replay_events(recorded_run())
        assert report.ok
        assert report.events_checked > 0

    def test_recorded_and_live_checks_agree(self, tmp_path):
        path = tmp_path / "run.jsonl"
        dump_events(recorded_run(), path)
        assert replay_file(path).ok

    def test_mutated_stream_flagged(self):
        events = recorded_run()
        deliveries = [e for e in events if isinstance(e, ev.MsgDeliver)]
        events.append(deliveries[0])  # duplicate one delivery at the end
        report = replay_events(events)
        assert not report.ok
        assert "conservation" in [v.rule for v in report.violations]

    def test_strict_replay_raises(self):
        events = recorded_run()
        deliveries = [e for e in events if isinstance(e, ev.MsgDeliver)]
        events.append(deliveries[0])
        with pytest.raises(InvariantViolation):
            replay_events(events, mode="strict")

    def test_truncated_stream_notes_undelivered(self):
        """Cutting a stream mid-flight is context, not a violation."""
        events = recorded_run()
        last_send = max(
            i for i, e in enumerate(events) if isinstance(e, ev.MsgSend)
        )
        report = replay_events(events[:last_send + 1])
        assert "undelivered" in report.label


class TestCheckCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        dump_events(recorded_run(), path)
        assert check_main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_dirty_file_exits_one_and_writes_json(self, tmp_path, capsys):
        events = recorded_run()
        deliveries = [e for e in events if isinstance(e, ev.MsgDeliver)]
        events.append(deliveries[0])
        path = tmp_path / "bad.jsonl"
        dump_events(events, path)
        out_json = tmp_path / "report.json"
        assert check_main([str(path), "--json", str(out_json)]) == 1
        assert "conservation" in capsys.readouterr().out
        data = json.loads(out_json.read_text())
        assert data["ok"] is False
        assert data["total_violations"] >= 1

    def test_multiple_files_merge(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        dump_events(recorded_run(seed=0), a)
        dump_events(recorded_run(seed=1), b)
        assert check_main([str(a), str(b)]) == 0
