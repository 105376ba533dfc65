"""Tests for engine-level fault injection (links, NICs, stragglers)."""

import numpy as np
import pytest

from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.cluster.topology import Machine
from repro.faults.injector import FaultInjector
from repro.faults.model import LinkFault, NicStormFault, StragglerFault
from repro.faults.schedule import FaultSchedule
from repro.faults.scenarios import make_scenario
from repro.obs.events import FaultInject, RecordingSink
from repro.simmpi.network import Level
from repro.simmpi.simulation import Simulation
from tests.conftest import PERFECT_TIME


def make_sim(faults=None, network=None, sink=None, seed=0):
    machine = Machine(
        num_nodes=2,
        sockets_per_node=1,
        cores_per_socket=2,
        ranks_per_node=2,
        name="faultbox",
    )
    return Simulation(
        machine=machine,
        network=network or ideal_network(),
        time_source=PERFECT_TIME,
        seed=seed,
        faults=faults,
        sink=sink,
    )


class TestFaultInjectorUnit:
    def test_link_fault_multiplies_inside_window_only(self):
        injector = FaultInjector(FaultSchedule(name="s", faults=[
            LinkFault(start=10.0, length=5.0, latency_factor=3.0),
        ]))
        rng = np.random.default_rng(0)
        assert injector.perturb_delay(9.0, Level.REMOTE, 2e-6, rng) == 2e-6
        assert injector.perturb_delay(12.0, Level.REMOTE, 2e-6, rng) == \
            pytest.approx(6e-6)
        assert injector.perturb_delay(15.0, Level.REMOTE, 2e-6, rng) == 2e-6
        assert injector.delays_perturbed == 1

    def test_link_fault_level_filter(self):
        injector = FaultInjector(FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=5.0, level="REMOTE",
                      latency_factor=3.0),
        ]))
        rng = np.random.default_rng(0)
        assert injector.perturb_delay(1.0, Level.NODE, 2e-6, rng) == 2e-6
        assert injector.perturb_delay(1.0, Level.REMOTE, 2e-6, rng) == \
            pytest.approx(6e-6)

    def test_link_fault_jitter_only_adds(self):
        injector = FaultInjector(FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=5.0, jitter=1e-6),
        ]))
        rng = np.random.default_rng(0)
        draws = [
            injector.perturb_delay(1.0, Level.REMOTE, 2e-6, rng)
            for _ in range(200)
        ]
        assert min(draws) >= 2e-6
        assert np.mean(draws) == pytest.approx(3e-6, rel=0.25)

    def test_nic_gap_factor_targets_node(self):
        injector = FaultInjector(FaultSchedule(name="s", faults=[
            NicStormFault(start=10.0, length=5.0, node=1, gap_factor=6.0),
        ]))
        assert injector.nic_gap_factor(12.0, node=1) == 6.0
        assert injector.nic_gap_factor(12.0, node=0) == 1.0
        assert injector.nic_gap_factor(9.0, node=1) == 1.0

    def test_perturb_compute_slowdown_and_matching(self):
        injector = FaultInjector(
            FaultSchedule(name="s", faults=[
                StragglerFault(start=0.0, length=10.0, rank=1, slowdown=2.0),
            ]),
            node_of=lambda rank: 0,
        )
        rng = np.random.default_rng(0)
        assert injector.perturb_compute(1.0, 1, 1.0, rng) == 2.0
        assert injector.perturb_compute(1.0, 0, 1.0, rng) == 1.0
        assert injector.perturb_compute(11.0, 1, 1.0, rng) == 1.0
        assert injector.computes_perturbed == 1

    def test_directed_link_fault_matches_one_direction(self):
        injector = FaultInjector(FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=5.0, latency_factor=3.0,
                      src=1, dst=0),
        ]))
        rng = np.random.default_rng(0)
        hit = injector.perturb_delay(
            1.0, Level.REMOTE, 2e-6, rng, src=1, dst=0
        )
        assert hit == pytest.approx(6e-6)
        # The reverse direction and unrelated links are untouched.
        assert injector.perturb_delay(
            1.0, Level.REMOTE, 2e-6, rng, src=0, dst=1
        ) == 2e-6
        assert injector.perturb_delay(
            1.0, Level.REMOTE, 2e-6, rng, src=2, dst=3
        ) == 2e-6
        assert injector.delays_perturbed == 1

    def test_directed_link_fault_ignores_unkeyed_calls(self):
        """Callers that pass no endpoints never match a directed fault."""
        injector = FaultInjector(FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=5.0, latency_factor=3.0,
                      src=1, dst=0),
        ]))
        rng = np.random.default_rng(0)
        assert injector.perturb_delay(1.0, Level.REMOTE, 2e-6, rng) == 2e-6

    def test_broadcast_link_fault_matches_any_link(self):
        injector = FaultInjector(FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=5.0, latency_factor=3.0),
        ]))
        rng = np.random.default_rng(0)
        assert injector.perturb_delay(
            1.0, Level.REMOTE, 2e-6, rng, src=2, dst=3
        ) == pytest.approx(6e-6)

    def test_schedule_events_carry_exact_times(self):
        sched = make_scenario("congestion_burst", start=20.0, length=10.0)
        events = FaultInjector(sched).schedule_events()
        assert len(events) == len(sched)
        assert all(e.time == 20.0 and e.duration == 10.0 for e in events)
        assert {e.kind for e in events} == {"link", "nic_storm"}


class TestEngineIntegration:
    def test_straggler_stretches_elapse(self):
        faults = FaultSchedule(name="s", faults=[
            StragglerFault(start=0.0, length=100.0, rank=1, slowdown=2.0),
        ])

        def body(ctx, comm):
            yield from ctx.elapse(1.0)
            return ctx.now

        res = make_sim(faults).run(body)
        assert res.values[1] == pytest.approx(2.0)
        assert all(
            res.values[r] == pytest.approx(1.0) for r in (0, 2, 3)
        )

    def test_straggler_node_targeting(self):
        faults = FaultSchedule(name="s", faults=[
            StragglerFault(start=0.0, length=100.0, node=1, slowdown=3.0),
        ])

        def body(ctx, comm):
            yield from ctx.elapse(1.0)
            return ctx.now

        res = make_sim(faults).run(body)
        # Ranks 2 and 3 live on node 1.
        assert res.values[0] == pytest.approx(1.0)
        assert res.values[2] == pytest.approx(3.0)
        assert res.values[3] == pytest.approx(3.0)

    def test_link_fault_delays_traffic(self):
        def body(ctx, comm):
            for _ in range(10):
                yield from comm.bcast(
                    ctx.rank if comm.rank == 0 else None, root=0
                )
            return ctx.now

        clean = make_sim(None).run(body)
        faults = FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=100.0, level="REMOTE",
                      latency_factor=5.0),
        ])
        sim = make_sim(faults)
        degraded = sim.run(body)
        assert max(degraded.values) > max(clean.values)
        assert sim.engine.policy.delays_perturbed > 0

    def test_directed_link_fault_only_hits_its_direction(self):
        def body(ctx, comm):
            for _ in range(10):
                yield from comm.bcast(
                    ctx.rank if comm.rank == 0 else None, root=0
                )
            return ctx.now

        clean = make_sim(None).run(body)
        # A bcast from rank 0 sends 0->r with acks r->0: the 0->2 link
        # carries real traffic, the 3->2 link never occurs.
        hot = FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=100.0, latency_factor=50.0,
                      src=0, dst=2),
        ])
        degraded = make_sim(hot).run(body)
        assert max(degraded.values) > max(clean.values)
        # An unused direction leaves the run byte-identical to clean:
        # non-matching faults draw no RNG, and the injector only adds
        # calls on the one send path that the clean run also takes.
        cold = FaultSchedule(name="s", faults=[
            LinkFault(start=0.0, length=100.0, latency_factor=50.0,
                      src=3, dst=2),
        ])
        inert = make_sim(cold).run(body)
        assert inert.values == clean.values

    def test_nic_storm_slows_internode_traffic(self):
        def body(ctx, comm):
            for _ in range(20):
                yield from comm.bcast(
                    ctx.rank if comm.rank == 0 else None, root=0
                )
            return ctx.now

        clean = make_sim(None, network=infiniband_qdr()).run(body)
        faults = FaultSchedule(name="s", faults=[
            NicStormFault(start=0.0, length=100.0, gap_factor=50.0),
        ])
        stormy = make_sim(faults, network=infiniband_qdr()).run(body)
        assert max(stormy.values) > max(clean.values)

    def test_fault_events_emitted_with_exact_times(self):
        sink = RecordingSink()
        faults = make_scenario("congestion_burst", start=2.0, length=1.0)

        def body(ctx, comm):
            yield from ctx.elapse(0.1)
            return 0

        make_sim(faults, sink=sink).run(body)
        events = sink.of_type(FaultInject)
        assert len(events) == 2
        assert all(e.time == 2.0 and e.duration == 1.0 for e in events)

    def test_engine_faults_deterministic_per_seed(self):
        faults = FaultSchedule(name="s", faults=[
            StragglerFault(start=0.0, length=100.0, node=1, slowdown=2.0,
                           noise=1e-3),
            LinkFault(start=0.0, length=100.0, latency_factor=2.0,
                      jitter=5e-6),
        ])

        def body(ctx, comm):
            for _ in range(5):
                yield from comm.bcast(
                    ctx.rank if comm.rank == 0 else None, root=0
                )
                yield from ctx.elapse(0.01)
            return ctx.now

        first = make_sim(faults, network=infiniband_qdr(), seed=7).run(body)
        second = make_sim(faults, network=infiniband_qdr(), seed=7).run(body)
        assert first.values == second.values
        other = make_sim(faults, network=infiniband_qdr(), seed=8).run(body)
        assert first.values != other.values
