"""Unit tests for the discrete-event engine."""

import pytest

from repro.cluster.netmodels import ideal_network
from repro.errors import DeadlockError, MatchingError, SimulationError
from repro.simmpi.engine import (
    ElapseCmd,
    Engine,
    RecvCmd,
    SendCmd,
    WaitUntilCmd,
)
from repro.simmpi.network import Level


def make_engine(n=2, seed=0, network=None, **kw):
    engine = Engine(
        network=network or ideal_network(latency=1e-6),
        level_of=lambda a, b: Level.REMOTE,
        seed=seed,
        **kw,
    )
    for _ in range(n):
        engine.add_process()
    return engine


class TestBasics:
    def test_two_rank_message(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=5, payload="hi", size=8)
            return "sent"

        def receiver():
            msg = yield RecvCmd(source=0, tag=5)
            return msg.payload

        engine.bind(0, sender())
        engine.bind(1, receiver())
        assert engine.run() == ["sent", "hi"]
        assert engine.messages_delivered == 1

    def test_message_arrival_advances_time(self):
        engine = make_engine()
        times = {}

        def sender():
            yield SendCmd(dest=1, tag=1, payload=None, size=8)
            times["send"] = engine.proc_now(0)

        def receiver():
            yield RecvCmd(source=0, tag=1)
            times["recv"] = engine.proc_now(1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        assert times["recv"] >= 1e-6  # at least one latency

    def test_elapse_advances_only_local_time(self):
        engine = make_engine(1)

        def body():
            yield ElapseCmd(0.5)
            return engine.proc_now(0)

        engine.bind(0, body())
        assert engine.run() == [0.5]

    def test_wait_until_no_backward_jump(self):
        engine = make_engine(1)

        def body():
            yield ElapseCmd(1.0)
            yield WaitUntilCmd(0.5)  # already past: no-op
            return engine.proc_now(0)

        engine.bind(0, body())
        assert engine.run() == [1.0]

    def test_negative_elapse_rejected(self):
        engine = make_engine(1)

        def body():
            yield ElapseCmd(-1.0)

        engine.bind(0, body())
        with pytest.raises(SimulationError):
            engine.run()


class TestMatching:
    def test_fifo_per_pair(self):
        engine = make_engine()

        def sender():
            for i in range(5):
                yield SendCmd(dest=1, tag=1, payload=i, size=8)

        def receiver():
            got = []
            for _ in range(5):
                msg = yield RecvCmd(source=0, tag=1)
                got.append(msg.payload)
            return got

        engine.bind(0, sender())
        engine.bind(1, receiver())
        assert engine.run()[1] == [0, 1, 2, 3, 4]

    def test_tag_selective(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=8)
            yield SendCmd(dest=1, tag=2, payload="b", size=8)

        def receiver():
            msg_b = yield RecvCmd(source=0, tag=2)
            msg_a = yield RecvCmd(source=0, tag=1)
            return (msg_b.payload, msg_a.payload)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        assert engine.run()[1] == ("b", "a")

    def test_any_source(self):
        engine = make_engine(3)

        def sender(payload):
            def body():
                yield SendCmd(dest=2, tag=9, payload=payload, size=8)

            return body

        def receiver():
            got = set()
            for _ in range(2):
                msg = yield RecvCmd()  # ANY_SOURCE, ANY_TAG
                got.add(msg.payload)
            return got

        engine.bind(0, sender("x")())
        engine.bind(1, sender("y")())
        engine.bind(2, receiver())
        assert engine.run()[2] == {"x", "y"}

    def test_send_to_invalid_rank(self):
        engine = make_engine(1)

        def body():
            yield SendCmd(dest=5, tag=1)

        engine.bind(0, body())
        with pytest.raises(MatchingError):
            engine.run()


class TestSsend:
    def test_ssend_blocks_until_matched(self):
        engine = make_engine()
        order = []

        def sender():
            yield SendCmd(dest=1, tag=1, payload=None, size=8,
                          synchronous=True)
            order.append(("sender_resumed", engine.proc_now(0)))

        def receiver():
            yield ElapseCmd(5.0)  # receiver is busy for 5 s
            yield RecvCmd(source=0, tag=1)
            order.append(("received", engine.proc_now(1)))

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        resumed = dict(order)["sender_resumed"]
        assert resumed >= 5.0  # the ack cannot precede the match

    def test_unmatched_ssend_deadlocks(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, synchronous=True)

        def receiver():
            yield RecvCmd(source=0, tag=999)  # never matches

        engine.bind(0, sender())
        engine.bind(1, receiver())
        with pytest.raises(DeadlockError):
            engine.run()


class TestLifecycle:
    def test_deadlock_detected(self):
        engine = make_engine()

        def body():
            yield RecvCmd(source=0, tag=1)

        def other():
            yield RecvCmd(source=1, tag=1)

        engine.bind(0, other())
        engine.bind(1, body())
        with pytest.raises(DeadlockError):
            engine.run()

    def test_cannot_run_twice(self):
        engine = make_engine(1)

        def body():
            return
            yield

        engine.bind(0, body())
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()

    def test_unbound_rank_rejected(self):
        engine = make_engine(2)

        def body():
            return
            yield

        engine.bind(0, body())
        with pytest.raises(SimulationError):
            engine.run()

    def test_double_bind_rejected(self):
        engine = make_engine(1)

        def body():
            return
            yield

        engine.bind(0, body())
        with pytest.raises(SimulationError):
            engine.bind(0, body())

    def test_add_after_run_rejected(self):
        engine = make_engine(1)

        def body():
            return
            yield

        engine.bind(0, body())
        engine.run()
        with pytest.raises(SimulationError):
            engine.add_process()


class TestStats:
    def test_bytes_delivered_and_stats_snapshot(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=100)
            yield SendCmd(dest=1, tag=1, payload="b", size=28)

        def receiver():
            yield RecvCmd(source=0, tag=1)
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        assert engine.bytes_delivered == 128
        stats = engine.stats()
        assert stats == {
            "num_ranks": 2,
            "messages_sent": 2,
            "messages_delivered": 2,
            "messages_unreceived": 0,
            "bytes_sent": 128,
            "bytes_delivered": 128,
            "rendezvous_stalls": 0,
            "max_mailbox_depth": stats["max_mailbox_depth"],
            "gate_deferrals": stats["gate_deferrals"],
            "events_processed": stats["events_processed"],
            "max_queue_depth": stats["max_queue_depth"],
        }
        assert stats["max_mailbox_depth"] >= 0
        assert stats["gate_deferrals"] >= 0
        # Every delivery and wakeup pops the heap at least once.
        assert stats["events_processed"] >= stats["messages_delivered"]
        assert stats["max_queue_depth"] >= 1

    def test_unreceived_messages_counted(self):
        """Fire-and-forget sends end up in messages_unreceived."""
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=8)
            yield SendCmd(dest=1, tag=1, payload="b", size=8)

        def receiver():
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        stats = engine.stats()
        assert stats["messages_sent"] == 2
        assert stats["messages_delivered"] == 1
        assert stats["messages_unreceived"] == 1
        assert (
            stats["messages_sent"]
            == stats["messages_delivered"] + stats["messages_unreceived"]
        )

    def test_metrics_counters_match_stats(self):
        """The documented engine.messages.* counters track the stats.

        Regression for the count drift where the metrics docstring
        promised engine.messages.sent/delivered but the engine never
        emitted them.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = make_engine(sink=registry)

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=100)
            yield SendCmd(dest=1, tag=1, payload="b", size=28)

        def receiver():
            yield RecvCmd(source=0, tag=1)
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        stats = engine.stats()
        assert registry.merged_counter("engine.messages.sent") == (
            stats["messages_sent"]
        ) == 2
        assert registry.merged_counter("engine.messages.delivered") == (
            stats["messages_delivered"]
        ) == 2
        assert registry.merged_counter("engine.bytes.sent") == 128

    def test_rendezvous_stall_counted(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload=None, size=8,
                          synchronous=True)

        def receiver():
            yield ElapseCmd(1.0)
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        assert engine.stats()["rendezvous_stalls"] == 1


class TestDeterminism:
    def _run_once(self, seed):
        from repro.cluster.netmodels import infiniband_qdr

        engine = make_engine(4, seed=seed, network=infiniband_qdr())
        log = []

        def body(rank):
            def gen():
                for i in range(3):
                    yield SendCmd(dest=(rank + 1) % 4, tag=1, payload=rank,
                                  size=8)
                    msg = yield RecvCmd(source=(rank - 1) % 4, tag=1)
                    log.append((rank, i, msg.payload, engine.proc_now(rank)))

            return gen()

        for r in range(4):
            engine.bind(r, body(r))
        engine.run()
        return log

    def test_same_seed_identical_history(self):
        assert self._run_once(11) == self._run_once(11)

    def test_different_seed_different_times(self):
        a = self._run_once(1)
        b = self._run_once(2)
        assert [t for *_, t in a] != [t for *_, t in b]


class TestOneSendPath:
    def test_class_wrappers_see_every_message_of_a_hook_free_run(
        self, monkeypatch
    ):
        """No hidden twin: a plain run goes through the class methods."""
        from repro.cluster.netmodels import infiniband_qdr
        from repro.perf.harness import _ring_main, ring_machine
        from repro.simmpi.simulation import Simulation

        calls = {"send": 0, "deliver": 0}
        do_send = Engine._do_send
        finish_delivery = Engine._finish_delivery

        def counted_send(self, proc, cmd):
            calls["send"] += 1
            return do_send(self, proc, cmd)

        def counted_delivery(self, proc, msg):
            calls["deliver"] += 1
            return finish_delivery(self, proc, msg)

        monkeypatch.setattr(Engine, "_do_send", counted_send)
        monkeypatch.setattr(Engine, "_finish_delivery", counted_delivery)
        sim = Simulation(
            machine=ring_machine(2, 4), network=infiniband_qdr(), seed=1
        )
        sim.run(_ring_main(16))
        engine = sim.engine
        assert engine._quiet
        assert calls["send"] == engine.messages_sent > 0
        assert calls["deliver"] == engine.messages_delivered > 0
