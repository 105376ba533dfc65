"""End-to-end equivalence: observing a run never changes it.

The engine has one send path.  Observers (sink, metrics, timeseries) and
the profiler hang off it behind checks that a hook-free run never takes,
so an observed run must be bit-identical to an unobserved one.  These
tests pin that through whole simulations for every workload family the
repo exercises — the perf ring, a Fig. 3-style sync round, and a
fault-recovery run — down to the engine stats, and check that the
unobserved run really was hook-free (``Engine._quiet``).  The queue
itself is pinned in isolation by ``test_eventq.py`` and the calendar
queue property tests.
"""

from __future__ import annotations

import pytest

from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.faults.evaluate import run_recovery
from repro.faults.scenarios import make_scenario
from repro.obs import events as obs_events
from repro.obs.events import RecordingSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesBank
from repro.perf.harness import _ring_main, ring_machine
from repro.prof import Profiler
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync import HCA3Sync

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)


def _observers() -> dict:
    """Every passive hook a Simulation accepts, freshly built."""
    return {
        "sink": RecordingSink(),
        "metrics": MetricsRegistry(),
        "timeseries": TimeSeriesBank(),
        "profiler": Profiler(),
    }


def _sync_body(ctx, comm):
    """Fig. 3-style workload: one flat HCA3 sync + clock readings."""
    alg = HCA3Sync(nfitpoints=6, fitpoint_spacing=1e-3)
    clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
    readings = []
    for _ in range(5):
        yield from ctx.elapse(0.01)
        readings.append(ctx.read_clock(clk))
    return (readings, ctx.now)


def _run_ring(observed: bool, seed=3):
    hooks = _observers() if observed else {}
    sim = Simulation(
        machine=ring_machine(4, 4),
        network=infiniband_qdr(),
        seed=seed,
        **hooks,
    )
    res = sim.run(_ring_main(96))
    return {"values": res.values, "stats": res.engine_stats}, sim, hooks


def _run_fig3(observed: bool, seed=7):
    machine = Machine(num_nodes=2, sockets_per_node=2,
                      cores_per_socket=1, ranks_per_node=2,
                      name="testbox")
    sim = Simulation(machine=machine, network=infiniband_qdr(),
                     time_source=QUIET, seed=seed,
                     **(_observers() if observed else {}))
    res = sim.run(_sync_body)
    return {"values": res.values, "stats": res.engine_stats}


def _run_fault(observed: bool, seed=0):
    hooks = _observers() if observed else {}
    hooks.pop("profiler", None)  # run_recovery takes no profiler
    report = run_recovery(
        make_scenario("ntp_step"),
        resync_age=8.0,
        horizon=50.0,
        num_nodes=4,
        ranks_per_node=2,
        seed=seed,
        **hooks,
    )
    return {
        "samples": report.samples,
        "resync_rounds": report.resync_rounds,
        "stats": report.engine_stats,
    }


class TestRingEquivalence:
    @pytest.fixture(scope="class")
    def unobserved(self):
        return _run_ring(observed=False)

    @pytest.fixture(scope="class")
    def observed(self):
        return _run_ring(observed=True)

    def test_observed_matches_unobserved(self, unobserved, observed):
        plain, plain_sim, _ = unobserved
        watched, watched_sim, _ = observed
        assert watched == plain
        assert plain_sim.engine._quiet
        assert not watched_sim.engine._quiet

    def test_stats_counted_equivalently(self, unobserved, observed):
        """Observers see every message the engine's counters count."""
        stats = unobserved[0]["stats"]
        _, _, hooks = observed
        events = hooks["sink"].events
        sends = sum(isinstance(e, obs_events.MsgSend) for e in events)
        delivers = sum(isinstance(e, obs_events.MsgDeliver) for e in events)
        assert sends == stats["messages_sent"] > 0
        assert delivers == stats["messages_delivered"]
        metrics = hooks["metrics"]
        assert metrics.merged_counter("engine.messages.sent") == sends
        assert metrics.merged_counter("engine.messages.delivered") == (
            delivers
        )


class TestFig3Equivalence:
    def test_observed_matches_unobserved(self):
        assert _run_fig3(observed=True) == _run_fig3(observed=False)


class TestFaultRecoveryEquivalence:
    def test_observed_matches_unobserved(self):
        assert _run_fault(observed=True) == _run_fault(observed=False)
