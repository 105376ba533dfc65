"""Observer pins: what every consumer of a run sees, byte for byte.

Three runs cover the engine's observation and delivery-policy surface:

* ``ring`` — a 2-node Jupiter ring (NIC gap > 0, so NIC backlog is
  observed), with early sends that queue in mailboxes and one
  rendezvous ``ssend``;
* ``recovery`` — the quick-size ``congestion_burst`` fault-recovery run
  with periodic resync (fault marks, resync rounds and ages, fitted
  drift models);
* ``titan_cell`` — one scenario cell on Titan's torus fabric with
  congestion, byzantine and region-tier adversaries, which composes
  fault, adversary and fabric pricing on every remote message.

For each run the golden records the metrics snapshot, the time-series
bank dump, the Chrome-trace JSON of the recorded event stream (as its
record count and SHA-256; the recovery trace alone is ~2 MB) and the
sanitizer's report counts.  The sanitizer's ``events_checked`` is left
out: it counts every record the stream carries, so it moves whenever an
event type is added, while every consumer output above must not.  The
``engine.events.*`` series are left out too.

The two ``stats-consistency`` findings of ``titan_cell`` are part of
the pin: the cell's baseline and adversarial runs share one metrics
registry, and the sanitizer compares the registry's cumulative message
counters with the stream of its own run only.

Regenerate (only for an intended semantics change) with::

    PYTHONPATH=src python tests/obs/test_observer_pins.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.check.config import checking, load_reports
from repro.cluster.machines import jupiter
from repro.faults.evaluate import run_recovery
from repro.faults.scenarios import make_scenario
from repro.obs.chrome_trace import chrome_trace_json, engine_events_to_chrome
from repro.obs.events import RecordingSink, default_sink
from repro.obs.metrics import MetricsRegistry, default_metrics
from repro.obs.timeseries import TimeSeriesBank, default_timeseries
from repro.scenarios.runner import run_scenario_cell
from repro.scenarios.scenario import (
    Scenario,
    byzantine_rank,
    congested_fabric,
    region_tiers,
)
from repro.simmpi.simulation import Simulation

GOLDEN = Path(__file__).parent / "golden" / "observer_pins.json"


def _ring_body(ctx, comm):
    n = ctx.nprocs
    right = (ctx.rank + 1) % n
    left = (ctx.rank - 1) % n
    # Early sends: they sit in the right neighbour's mailbox until the
    # matching receives below are posted.
    for tag in range(3):
        yield from comm.send(right, 100 + tag, size=64)
    for r in range(6):
        yield from comm.sendrecv(
            dest=right, send_tag=r, size=256 << r, source=left
        )
    for tag in range(3):
        yield from comm.recv(left, 100 + tag)
    if ctx.rank == 0:
        yield from comm.ssend(n - 1, 7, size=32)
    elif ctx.rank == n - 1:
        yield from comm.recv(0, 7)
    total = yield from comm.allreduce(ctx.rank)
    return total


def _run_ring() -> None:
    spec = jupiter()
    assert spec.network().nic_gap > 0.0
    Simulation(
        machine=spec.machine(2, 4), network=spec.network(), seed=11,
    ).run(_ring_body)


def _run_recovery() -> None:
    run_recovery(
        make_scenario("congestion_burst"),
        resync_age=8.0,
        horizon=50.0,
        num_nodes=4,
        ranks_per_node=2,
        seed=0,
    )


def _run_titan_cell() -> None:
    scenario = Scenario(
        name="pin_mix",
        adversaries=[
            *congested_fabric().adversaries,
            *byzantine_rank().adversaries,
            *region_tiers().adversaries,
        ],
    )
    run_scenario_cell(
        scenario, "hca/6/skampi_offset/4", spec_name="titan", rounds=1,
        seed=5,
    )


RUNS = {
    "ring": _run_ring,
    "recovery": _run_recovery,
    "titan_cell": _run_titan_cell,
}


def _observe(run, report_dir) -> dict:
    """Run under every default consumer; return their outputs."""
    sink = RecordingSink()
    metrics = MetricsRegistry()
    bank = TimeSeriesBank()
    with ExitStack() as stack:
        stack.enter_context(default_sink(sink))
        stack.enter_context(default_metrics(metrics))
        stack.enter_context(default_timeseries(bank))
        stack.enter_context(checking("report", report_dir=str(report_dir)))
        run()
    report = load_reports(str(report_dir))
    rules: dict[str, int] = {}
    for v in report.violations:
        rules[v.rule] = rules.get(v.rule, 0) + 1
    records = engine_events_to_chrome(sink.events)
    series = bank.to_dict()
    series["series"] = [
        s for s in series["series"] if "engine.events." not in s["name"]
    ]
    return {
        "metrics": metrics.snapshot(),
        "timeseries": series,
        "chrome_trace": {
            "records": len(records),
            "sha256": hashlib.sha256(
                chrome_trace_json(records).encode()
            ).hexdigest(),
        },
        "sanitizer": {
            "runs": report.runs,
            "total_violations": report.total_violations,
            "dropped": report.dropped,
            "rules": rules,
        },
    }


def _dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_consumer_outputs_match_golden(name, golden, tmp_path):
    assert _dump(_observe(RUNS[name], tmp_path)) == _dump(golden[name])


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    out = {}
    for key, fn in sorted(RUNS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            out[key] = _observe(fn, tmp)
    GOLDEN.write_text(_dump(out))
