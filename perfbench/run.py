"""Repository benchmark: paper-target wall time, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload roundtime_titan --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload's unit (see ``workloads.py``) in a
closed loop for about ``--seconds`` seconds, untraced, and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced unit
at ``--jobs 1`` and reports the per-layer metrics of the traced one,
after checking that tracing left the simulated output and the engine's
event and message counts unchanged.  See README.md for every metric.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also writes a record, stamped with the host
fingerprint and calibration score, under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

_COUNT = "count"
#: Per-layer metrics (one traced unit at --jobs 1): name -> unit.
PER_LAYER = {
    "experiments.run_s": "s",
    "experiments.format_s": "s",
    "parallel.jobs": _COUNT,
    "parallel.job_sum_s": "s",
    "parallel.job_max_s": "s",
    "simmpi.init_calls": _COUNT,
    "simmpi.init_s": "s",
    "simmpi.run_calls": _COUNT,
    "simmpi.run_s": "s",
    "simmpi.self_s": "s",
    "simmpi.events": _COUNT,
    "simmpi.messages": _COUNT,
    "simmpi.bytes": "B",
    "simmpi.gate_deferrals": _COUNT,
    "simmpi.rendezvous_stalls": _COUNT,
    "simmpi.max_queue_depth": _COUNT,
    "simmpi.ns_per_event": "ns",
    "simmpi.fabric_priced_runs": _COUNT,
    "simmpi.quiet_runs": _COUNT,
    "network.delay_calls": _COUNT,
    "network.delay_s": "s",
    "cluster.fabric_calls": _COUNT,
    "cluster.fabric_s": "s",
    "simtime.read_calls": _COUNT,
    "simtime.read_s": "s",
    "simtime.read_many_calls": _COUNT,
    "simtime.read_many_s": "s",
    "sync.sync_calls": _COUNT,
    "sync.busy_s": "s",
    "sync.fit_calls": _COUNT,
    "sync.fit_s": "s",
    "analysis.accuracy_calls": _COUNT,
    "analysis.accuracy_busy_s": "s",
    "bench.latency_calls": _COUNT,
    "bench.latency_s": "s",
    "bench.self_s": "s",
    "service.queries": _COUNT,
    "service.batch_calls": _COUNT,
    "service.batch_s": "s",
    "service.epoch_compiles": _COUNT,
    "service.compile_s": "s",
    "service.sync_calls": _COUNT,
    "service.sync_s": "s",
    "service.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 5


@dataclasses.dataclass
class Unit:
    """One unit's host seconds, output check, engine counts and ops."""

    wall: float
    check: object
    counts: object
    ops: int


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _queries(wl, result) -> int:
    return 0 if wl.engine else sum(r.queries for r in result)


def _run_unit(wl, seed: int, jobs: int, counts, reference):
    """Time one unit; returns (Unit, result) with result None on error."""
    from workloads import UnitCheck, check_unit

    before = dataclasses.replace(counts)
    t0 = time.perf_counter()
    try:
        result, _text = wl.run(seed, jobs)
    except Exception:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        failed = UnitCheck([], "error", [True] * wl.njobs, ["unit raised"])
        return Unit(wall, failed, counts.minus(before), 0), None
    wall = time.perf_counter() - t0
    check = check_unit(wl, result, reference)
    delta = counts.minus(before)
    ops = delta.messages if wl.engine else _queries(wl, result)
    return Unit(wall, check, delta, ops), result


def _peak_rss_mb(jobs: int) -> float:
    """This process's peak RSS plus ``jobs`` x the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * worker if jobs > 1 else worker)) / 1024.0


def _setup_s(name: str, seed: int) -> list[float]:
    probe = str(HERE / "setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        out.append(float(done.stdout.split()[-1]) - t0)
    return out


def _measure(wl, seed: int, seconds: float) -> dict:
    """Closed loop of untraced units for about ``seconds``."""
    from tracing import EngineCounts, Patcher, count_engine_runs

    counts = EngineCounts()
    patcher = Patcher()
    count_engine_runs(patcher, counts)
    units: list[Unit] = []
    reference = None
    start = time.perf_counter()
    try:
        while True:
            unit, _ = _run_unit(wl, seed, wl.jobs, counts, reference)
            units.append(unit)
            if reference is None and unit.check.job_digests:
                reference = unit.check
            elapsed = time.perf_counter() - start
            # Start another unit only if it should end within the budget.
            if elapsed + unit.wall > seconds:
                break
        peak = _peak_rss_mb(wl.jobs)
        checked = list(units)
        if wl.engine and any(u.counts.runs != wl.njobs for u in units):
            # The mpiruns ran in --jobs worker processes, out of the
            # counter's sight: count the messages on one untimed --jobs 1
            # unit, which must also reproduce the timed units' output.
            ref, _ = _run_unit(wl, seed, 1, counts, reference)
            checked.append(ref)
            for u in units:
                if u.counts.runs != wl.njobs:
                    u.ops = ref.ops
    finally:
        patcher.restore()
    return {"timed": units, "checked": checked, "peak_rss_mb": peak}


def _trace(wl, seed: int) -> dict:
    """One untraced and one traced unit at --jobs 1, then compare."""
    from tracing import EngineCounts, Patcher, Tracer, count_engine_runs

    counts = EngineCounts()
    patcher = Patcher()
    count_engine_runs(patcher, counts)
    tracer = Tracer()
    try:
        plain, _ = _run_unit(wl, seed, 1, counts, None)
        tracer.install(patcher, wl.experiment)
        traced, result = _run_unit(wl, seed, 1, counts, plain.check)
    finally:
        patcher.restore()
    problems = list(traced.check.problems)
    for field in ("runs", "events", "messages"):
        a = getattr(plain.counts, field)
        b = getattr(traced.counts, field)
        if a != b:
            problems.append(f"traced {field} {b} != untraced {a}")
    queries = _queries(wl, result) if result is not None else 0
    layers = tracer.layer_metrics(traced.counts, queries)
    if wl.quiet and not (
        layers["simmpi.fabric_priced_runs"] == 0
        and layers["cluster.fabric_calls"] == 0
        and layers["simmpi.quiet_runs"] == layers["simmpi.run_calls"]
    ):
        problems.append("a traced mpirun left the quiet send path")
    layers["trace.wall_s"] = traced.wall
    layers["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    failed = sum(plain.check.failed)
    failed += wl.njobs if problems else 0
    return {
        "layers": layers,
        "units": [plain, traced],
        "failed": failed,
        "problems": problems + plain.check.problems,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from host import calibration_score, fingerprint
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    calibration = calibration_score()

    if args.trace:
        out = _trace(wl, args.seed)
        units = out["units"]
        attempted = wl.njobs * len(units)
        failed = out["failed"]
        problems = out["problems"]
        metrics = {k: _metric(out["layers"][k], u)
                   for k, u in PER_LAYER.items()}
    else:
        out = _measure(wl, args.seed, args.seconds)
        timed, units = out["timed"], out["checked"]
        setup = _setup_s(wl.name, args.seed)
        attempted = wl.njobs * len(units)
        failed = sum(sum(u.check.failed) for u in units)
        problems = [p for u in units for p in u.check.problems]
        values = {
            "wall_s": statistics.median(u.wall for u in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
            "ops_per_s": statistics.median(u.ops / u.wall for u in timed),
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END.items()}

    fp = fingerprint(ROOT)
    digests = sorted({u.check.digest for u in units})
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": fp,
        "calibration_mops": calibration,
        "units": len(units),
        "unit_wall_s": [u.wall for u in units],
        "digest": digests,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    _write_record(record)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"units {len(units)}")
    print("host " + json.dumps(fp, sort_keys=True))
    print(f"calibration {calibration:.4f} Mops/s")
    print("digest " + " ".join(digests))
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for p in problems:
        print(f"problem: {p}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _write_record(record: dict) -> None:
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{stamp}-{record['workload']}-s{record['seed']}"
            f"-t{record['trace']}-{time.perf_counter_ns() % 10**6}.json")
    (runs / name).write_text(json.dumps(record, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
