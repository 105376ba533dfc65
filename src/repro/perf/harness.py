"""Micro-benchmarks for the simulation engine and campaign executor.

Two workloads, both deterministic per seed:

* :func:`engine_benchmark` — a single simulated job that hammers the
  engine's hot path (point-to-point sendrecv ring with mixed message
  sizes, periodic barriers, one closing allreduce) and reports event-loop
  throughput in messages/second.  With ``zones=True`` a second, profiled
  run of the same workload attaches a per-zone wall-time breakdown
  (:func:`repro.prof.zone_breakdown`) so trajectory entries record *where*
  the time went, not just how much.
* :func:`campaign_benchmark` — wall-clock time of the Fig. 3 accuracy
  campaign at quick scale, serial or with the parallel executor.

Results accumulate in ``BENCH_engine.json`` at the repo root — an
**append-only trajectory** (format 2): every :func:`record_bench` call
appends one entry stamped with ``recorded_at``, interpreter, CPU count
and ``git describe``, so the file records the repo's performance history
instead of a single baseline/current pair.  Legacy format-1 files (a
``baseline``/``current`` dict) are upgraded transparently on load.
``benchmarks/bench_engine_perf.py`` is the CLI front end (with an inline
fallback so the same workload also runs against pre-optimization trees);
:mod:`repro.perf.regress` gates the latest entry against the best prior
one.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any

from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.simmpi.simulation import Simulation

#: Default file name, resolved relative to the current directory unless
#: an absolute path is given to :func:`record_bench`/:func:`load_bench`.
BENCH_FILE = "BENCH_engine.json"

#: Current trajectory format version (``entries`` is an append-only list).
BENCH_FORMAT = 2

#: Message sizes cycled through by the ring workload (bytes): the small
#: sizes the sync algorithms use plus a couple of bandwidth-bound ones.
RING_SIZES = (8, 64, 8, 1024, 8, 65536)


def _ring_main(nrounds: int):
    """SPMD body: nearest-neighbour ring exchange + periodic barriers."""

    def main(ctx, comm):
        n = ctx.nprocs
        right = (ctx.rank + 1) % n
        left = (ctx.rank - 1) % n
        for r in range(nrounds):
            size = RING_SIZES[r % len(RING_SIZES)]
            yield from comm.sendrecv(
                dest=right, send_tag=r, size=size, source=left
            )
            if r % 64 == 63:
                yield from comm.barrier()
        total = yield from comm.allreduce(ctx.rank)
        return total

    return main


def ring_machine(num_nodes: int = 8, ranks_per_node: int = 4) -> Machine:
    """The ring workload's machine (shared with ``repro.perf.scaling``)."""
    return Machine(
        num_nodes=num_nodes,
        sockets_per_node=1,
        cores_per_socket=ranks_per_node,
        ranks_per_node=ranks_per_node,
        name="perfbox",
    )


def engine_benchmark(
    num_nodes: int = 8,
    ranks_per_node: int = 4,
    nrounds: int = 400,
    seed: int = 0,
    zones: bool = False,
    repeats: int = 1,
) -> dict[str, Any]:
    """Time one message-heavy job; return throughput figures.

    The returned dict carries ``wall_s``, ``messages``, ``msgs_per_sec``
    and the workload parameters so entries recorded by different trees
    are comparable.  ``repeats`` re-runs the workload and keeps the
    *fastest* wall time (min-timing): the simulation is deterministic,
    so slower samples only measure host interference, not the engine.
    ``zones=True`` re-runs the identical workload under a
    :class:`~repro.prof.Profiler` and attaches the per-zone breakdown
    under ``"zones"`` — a *separate* run, so the throughput numbers stay
    unprofiled.  The entry is stamped ``"event_queue": "calendar"``:
    :mod:`repro.perf.regress` keys engine entries on that field and
    reads a missing one as a legacy heap-queue measurement.
    """
    machine = ring_machine(num_nodes, ranks_per_node)
    main = _ring_main(nrounds)
    wall = None
    result = None
    for _ in range(max(1, repeats)):
        sim = Simulation(machine=machine, network=infiniband_qdr(), seed=seed)
        t0 = time.perf_counter()
        result = sim.run(main)
        elapsed = time.perf_counter() - t0
        wall = elapsed if wall is None else min(wall, elapsed)
    entry = {
        "workload": "ring",
        "num_nodes": num_nodes,
        "ranks_per_node": ranks_per_node,
        "nrounds": nrounds,
        "seed": seed,
        "repeats": max(1, repeats),
        "event_queue": "calendar",
        "wall_s": wall,
        "messages": result.messages,
        "msgs_per_sec": result.messages / wall if wall > 0 else 0.0,
    }
    if zones:
        from repro.prof import Profiler, zone_breakdown

        profiler = Profiler()
        profiled_sim = Simulation(
            machine=machine, network=infiniband_qdr(), seed=seed,
            profiler=profiler,
        )
        profiled_sim.run(_ring_main(nrounds))
        entry["zones"] = zone_breakdown(profiler)
    return entry


def service_benchmark(
    scale: str = "quick", seed: int = 0, repeats: int = 1
) -> dict[str, Any]:
    """Serving throughput of the clock service (queries per wall second).

    One deterministic open-loop run of the ``service_slo`` workload under
    a periodic resync policy — the service's batched hot path without
    the sweep around it.  Like :func:`engine_benchmark`, ``repeats``
    keeps the fastest wall time (the simulated run is identical every
    time, so slower samples only measure host interference).
    """
    from repro.service import (
        PeriodicResyncPolicy,
        ServiceConfig,
        WorkloadSpec,
        run_service,
    )

    workload = WorkloadSpec(
        mode="open",
        duration=50.0 if scale == "quick" else 120.0,
        rate=6000.0 if scale == "quick" else 20_000.0,
    )
    config = ServiceConfig(num_ranks=8 if scale == "quick" else 16)
    result = None
    for _ in range(max(1, repeats)):
        candidate = run_service(
            PeriodicResyncPolicy(8.0), workload, config, seed=seed
        )
        if result is None or candidate.wall_s < result.wall_s:
            result = candidate
    return {
        "workload": "service_slo",
        "scale": scale,
        "seed": seed,
        "repeats": max(1, repeats),
        "num_ranks": config.num_ranks,
        "queries": result.queries,
        "syncs": result.syncs,
        "wall_s": result.wall_s,
        "queries_per_sec": (
            result.queries / result.wall_s if result.wall_s > 0 else 0.0
        ),
    }


def campaign_benchmark(
    scale: str = "quick", jobs: int | None = 1, seed: int = 0
) -> dict[str, Any]:
    """Wall-clock time of the Fig. 3 campaign (the perf acceptance run)."""
    from repro.experiments import fig3_flat_algorithms

    t0 = time.perf_counter()
    result = fig3_flat_algorithms.run(scale=scale, seed=seed, jobs=jobs)
    wall = time.perf_counter() - t0
    return {
        "workload": "fig3_campaign",
        "scale": scale,
        "jobs": jobs,
        "seed": seed,
        "wall_s": wall,
        "nruns": len(result.runs),
    }


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the tree, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def upgrade_bench(data: dict[str, Any]) -> dict[str, Any]:
    """Normalize a benchmark document to the format-2 trajectory.

    Format 1 kept ``entries`` as a ``{label: entry}`` dict (typically
    ``baseline`` and ``current``); the trajectory keeps an append-only
    *list* ordered oldest-first.  Upgrading folds the label into each
    entry and orders by ``recorded_at`` (with ``baseline`` winning ties,
    since it was by construction recorded from the older tree).
    """
    entries = data.get("entries")
    if isinstance(entries, list):
        data.setdefault("format", BENCH_FORMAT)
        return data
    upgraded = []
    for label, entry in (entries or {}).items():
        entry = dict(entry)
        entry["label"] = label
        upgraded.append(entry)
    upgraded.sort(key=lambda e: (
        e.get("recorded_at", ""), e.get("label") != "baseline"
    ))
    return {
        "benchmark": data.get("benchmark", "engine_perf"),
        "format": BENCH_FORMAT,
        "entries": upgraded,
    }


def load_bench(path: str = BENCH_FILE) -> dict[str, Any]:
    """Read the benchmark trajectory; empty skeleton if it does not exist.

    Legacy format-1 files are upgraded in memory (see
    :func:`upgrade_bench`); the file itself is rewritten only by the next
    :func:`record_bench`.
    """
    if not os.path.exists(path):
        return {
            "benchmark": "engine_perf",
            "format": BENCH_FORMAT,
            "entries": [],
        }
    with open(path) as fh:
        return upgrade_bench(json.load(fh))


def record_bench(
    label: str, entry: dict[str, Any], path: str = BENCH_FILE
) -> dict[str, Any]:
    """Append ``entry`` to the trajectory under ``label``.

    Prior entries are never overwritten — re-recording the same label
    appends a new point, which is what lets the regression gate compare
    "latest" against "best prior" instead of a single frozen baseline.
    Each entry is stamped with ``recorded_at``, interpreter version, CPU
    count and ``git describe`` (when available).
    """
    data = load_bench(path)
    entry = dict(entry)
    entry["label"] = label
    entry.setdefault("recorded_at", time.strftime("%Y-%m-%dT%H:%M:%S"))
    entry.setdefault("python", platform.python_version())
    entry.setdefault("cpus", os.cpu_count())
    describe = git_describe()
    if describe is not None:
        entry.setdefault("git", describe)
    data["entries"].append(entry)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def speedup(data: dict[str, Any], metric: str = "engine") -> float | None:
    """Latest-over-earliest improvement for one metric along the trajectory.

    ``metric="engine"`` compares msgs/sec (higher is better);
    ``metric="campaign"`` compares wall seconds (lower is better), using
    the *fastest* recorded configuration of the latest entry — serial or
    parallel — because on a single-CPU host the parallel path cannot beat
    serial.  Returns ``None`` when fewer than two entries carry the
    metric.
    """
    entries = upgrade_bench(data).get("entries", [])
    if metric == "engine":
        rates = [
            e["engine"]["msgs_per_sec"] for e in entries
            if e.get("engine", {}).get("msgs_per_sec")
        ]
        return rates[-1] / rates[0] if len(rates) >= 2 else None
    walls = [
        min(
            e[key]["wall_s"]
            for key in ("campaign", "campaign_parallel")
            if e.get(key, {}).get("wall_s")
        )
        for e in entries
        if any(
            e.get(key, {}).get("wall_s")
            for key in ("campaign", "campaign_parallel")
        )
    ]
    return walls[0] / walls[-1] if len(walls) >= 2 else None
