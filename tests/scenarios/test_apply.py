"""AdversaryInjector: mutant-style tests for every engine hook.

Each enabled hook must measurably perturb a pinned run, and a disabled
hook (empty scenario, inactive window, non-matching key) must leave the
run byte-identical to the unadversarial one — that identity is what
keeps the fig3/fig4 goldens stable while the scenario layer exists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.netmodels import ideal_network
from repro.cluster.topology import Machine
from repro.scenarios.adversaries import (
    ByzantineClockAdversary,
    CongestionAdversary,
    DelayAttackAdversary,
    RegionTopologyAdversary,
)
from repro.scenarios.apply import AdversaryInjector
from repro.scenarios.scenario import Scenario
from repro.simmpi.network import Level
from repro.simmpi.simulation import Simulation
from repro.sync.offset import PINGPONG_TAG
from tests.conftest import PERFECT_TIME


def injector(*adversaries, **kwargs):
    return AdversaryInjector(
        Scenario(name="t", adversaries=list(adversaries)), **kwargs
    )


class TestPayloadHook:
    def test_byzantine_shifts_pingpong_floats(self):
        inj = injector(ByzantineClockAdversary(ranks=(1,), bias=1e-3))
        rng = np.random.default_rng(0)
        out = inj.perturb_payload(0.5, 1, 0, PINGPONG_TAG, 2.0, rng)
        assert out == pytest.approx(2.0 + 1e-3)
        assert inj.payloads_perturbed == 1

    def test_applies_on_either_endpoint(self):
        """Outbound lies (as reference) and inbound mis-recording (as
        client) both go through the same wire point."""
        inj = injector(ByzantineClockAdversary(ranks=(1,), bias=1e-3))
        rng = np.random.default_rng(0)
        as_src = inj.perturb_payload(0.5, 1, 0, PINGPONG_TAG, 2.0, rng)
        as_dst = inj.perturb_payload(0.5, 0, 1, PINGPONG_TAG, 2.0, rng)
        assert as_src == pytest.approx(2.0 + 1e-3)
        assert as_dst == pytest.approx(2.0 + 1e-3)

    def test_numpy_float64_payloads_are_floats(self):
        """Clock reads cross the wire as np.float64 — a float subclass
        that an exact type check would wrongly skip."""
        inj = injector(ByzantineClockAdversary(ranks=(1,), bias=1e-3))
        rng = np.random.default_rng(0)
        out = inj.perturb_payload(
            0.5, 1, 0, PINGPONG_TAG, np.float64(2.0), rng
        )
        assert out == pytest.approx(2.0 + 1e-3)

    def test_honest_pairs_and_other_tags_pass_through(self):
        inj = injector(ByzantineClockAdversary(ranks=(1,), bias=1e-3))
        rng = np.random.default_rng(0)
        # Honest pair: identical object back, no RNG drawn, no count.
        assert inj.perturb_payload(0.5, 2, 3, PINGPONG_TAG, 2.0, rng) == 2.0
        # Wrong tag and non-float payloads pass through untouched.
        assert inj.perturb_payload(0.5, 1, 0, 99, 2.0, rng) == 2.0
        payload = {"not": "a timestamp"}
        assert inj.perturb_payload(
            0.5, 1, 0, PINGPONG_TAG, payload, rng
        ) is payload
        assert inj.payloads_perturbed == 0

    def test_window_gates_the_lie(self):
        inj = injector(
            ByzantineClockAdversary(
                ranks=(1,), bias=1e-3, start=1.0, length=1.0
            )
        )
        rng = np.random.default_rng(0)
        assert inj.perturb_payload(0.5, 1, 0, PINGPONG_TAG, 2.0, rng) == 2.0
        assert inj.perturb_payload(
            1.5, 1, 0, PINGPONG_TAG, 2.0, rng
        ) == pytest.approx(2.0 + 1e-3)

    def test_perturbs_payloads_flag(self):
        """The engine only routes payloads through injectors that ask."""
        assert injector(
            ByzantineClockAdversary(ranks=(1,), bias=1e-3)
        ).perturbs_payloads
        assert not injector(
            DelayAttackAdversary(extra_delay=1e-6)
        ).perturbs_payloads
        assert not injector().perturbs_payloads


class TestDelayAttackHook:
    def test_matching_direction_only(self):
        inj = injector(
            DelayAttackAdversary(links=((1, 0),), extra_delay=1e-4)
        )
        rng = np.random.default_rng(0)
        hit = inj.perturb_delay(
            0.5, Level.REMOTE, 2e-6, rng, src=1, dst=0
        )
        assert hit == pytest.approx(2e-6 + 1e-4)
        # Reverse direction and unkeyed calls untouched.
        assert inj.perturb_delay(
            0.5, Level.REMOTE, 2e-6, rng, src=0, dst=1
        ) == 2e-6
        assert inj.perturb_delay(0.5, Level.REMOTE, 2e-6, rng) == 2e-6
        assert inj.attack_delays_applied == 1

    def test_factor_and_jitter(self):
        inj = injector(
            DelayAttackAdversary(
                links=((1, 0),), extra_delay=1e-4, factor=3.0, jitter=1e-5
            )
        )
        rng = np.random.default_rng(0)
        draws = [
            inj.perturb_delay(0.5, Level.REMOTE, 2e-6, rng, src=1, dst=0)
            for _ in range(200)
        ]
        # Deterministic floor: delay*factor + extra; jitter only adds.
        assert min(draws) >= 3 * 2e-6 + 1e-4
        assert np.mean(draws) == pytest.approx(
            3 * 2e-6 + 1e-4 + 1e-5, rel=0.25
        )


class TestCongestionHook:
    def test_queue_builds_sojourn_under_sustained_traffic(self):
        adv = CongestionAdversary(
            service_time=10e-6, codel_target=1.0, codel_interval=10.0
        )
        inj = injector(adv)
        rng = np.random.default_rng(0)
        # Messages arriving faster than the service rate queue up.
        delays = [
            inj.perturb_delay(i * 1e-6, Level.REMOTE, 2e-6, rng,
                              src=0, dst=2)
            for i in range(5)
        ]
        assert delays[0] == 2e-6  # empty queue: no sojourn
        sojourns = [d - 2e-6 for d in delays]
        assert sojourns == pytest.approx(
            [0.0, 9e-6, 18e-6, 27e-6, 36e-6]
        )
        assert inj.queue_delays_applied == 4

    def test_codel_drains_standing_backlog(self):
        adv = CongestionAdversary(
            service_time=10e-6, codel_target=5e-6, codel_interval=30e-6
        )
        inj = injector(adv)
        rng = np.random.default_rng(0)
        sojourns = [
            inj.perturb_delay(i * 1e-6, Level.REMOTE, 2e-6, rng,
                              src=0, dst=2) - 2e-6
            for i in range(40)
        ]
        assert inj.codel_drains >= 1
        # After a drain the message sails through, then builds again.
        peak = max(sojourns)
        drain_idx = next(
            i for i in range(1, len(sojourns)) if sojourns[i] == 0.0
        )
        assert sojourns[drain_idx - 1] > adv.codel_target
        assert peak > sojourns[drain_idx]

    def test_level_and_link_keying(self):
        by_level = injector(CongestionAdversary(level="REMOTE"))
        rng = np.random.default_rng(0)
        assert by_level.perturb_delay(
            0.0, Level.NODE, 2e-6, rng, src=0, dst=1
        ) == 2e-6
        keyed = injector(
            CongestionAdversary(level=None, links=((0, 2),),
                                service_time=10e-6)
        )
        # Only the keyed link shares the bottleneck queue.
        keyed.perturb_delay(0.0, Level.REMOTE, 2e-6, rng, src=0, dst=2)
        assert keyed.perturb_delay(
            1e-6, Level.REMOTE, 2e-6, rng, src=2, dst=0
        ) == 2e-6
        assert keyed.perturb_delay(
            1e-6, Level.REMOTE, 2e-6, rng, src=0, dst=2
        ) > 2e-6


class TestRegionHook:
    def _injector(self):
        adv = RegionTopologyAdversary(
            regions=("NA", "EU"), cross_latency=5e-3
        )
        return injector(adv, node_of=lambda r: r // 2, num_nodes=4)

    def test_cross_region_remote_traffic_priced(self):
        inj = self._injector()
        rng = np.random.default_rng(0)
        # Rank 0 (node 0, NA) -> rank 7 (node 3, EU): priced.
        assert inj.perturb_delay(
            0.0, Level.REMOTE, 2e-6, rng, src=0, dst=7
        ) == pytest.approx(2e-6 + 5e-3)
        assert inj.region_delays_applied == 1

    def test_same_region_and_lower_levels_free(self):
        inj = self._injector()
        rng = np.random.default_rng(0)
        # Rank 0 (node 0) -> rank 3 (node 1): both NA.
        assert inj.perturb_delay(
            0.0, Level.REMOTE, 2e-6, rng, src=0, dst=3
        ) == 2e-6
        # Cross-region pair, but intra-node level: fabric-only pricing.
        assert inj.perturb_delay(
            0.0, Level.NODE, 2e-6, rng, src=0, dst=7
        ) == 2e-6
        assert inj.region_delays_applied == 0


class TestEngineIdentity:
    """An inert injector leaves runs byte-identical to no injector."""

    def _sim(self, inj=None, seed=0):
        machine = Machine(
            num_nodes=2, sockets_per_node=1, cores_per_socket=2,
            ranks_per_node=2, name="advbox",
        )
        return Simulation(
            machine=machine, network=ideal_network(),
            time_source=PERFECT_TIME, seed=seed, injector=inj,
        )

    @staticmethod
    def _body(ctx, comm):
        for _ in range(8):
            yield from comm.bcast(
                ctx.rank if comm.rank == 0 else None, root=0
            )
        return ctx.now

    def test_empty_scenario_is_byte_identical(self):
        plain = self._sim().run(self._body)
        empty = self._sim(injector()).run(self._body)
        assert empty.values == plain.values

    def test_nonmatching_adversary_is_byte_identical(self):
        """A delay attack on a link the traffic never uses draws no RNG
        and must not shift anything."""
        plain = self._sim().run(self._body)
        # Bcast from rank 0 never sends 3 -> 1 (only 0->r and acks r->0).
        cold = injector(
            DelayAttackAdversary(links=((3, 1),), extra_delay=1e-3)
        )
        inert = self._sim(cold).run(self._body)
        assert inert.values == plain.values

    def test_matching_adversary_perturbs(self):
        plain = self._sim().run(self._body)
        hot = injector(
            DelayAttackAdversary(links=((0, 2),), extra_delay=1e-3)
        )
        sim = self._sim(hot)
        degraded = sim.run(self._body)
        assert max(degraded.values) > max(plain.values)
        assert sim.engine.policy.attack_delays_applied > 0
