"""The benchmark's four workloads: paper targets driven as batch jobs.

A *unit* is one call of a paper target's public ``run`` plus its
``format_result`` (what ``python -m repro.experiments <target>`` does),
at a fixed size.  A benchmark run repeats the unit with one seed in a
closed loop, so every unit does the same simulated work and must give
the same output digest.

Each simulated *job* (one mpirun, or one service policy cell) is what
``attempted``/``failed`` count.  A job fails if its unit raises, if any
number in its result is non-finite, if the unit misses the paper's shape
predicate, or if its digest differs from the first unit's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

from repro.experiments import (
    fig6_hier_titan,
    fig7_barrier_impact,
    fig9_roundtime,
    service_slo,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: ModuleType
    #: Keyword arguments of ``experiment.run`` besides seed and jobs.
    kwargs: dict
    #: ``--jobs`` the timed units ask for (traced units use 1).
    jobs: int
    #: Simulated jobs per unit.
    njobs: int
    #: result -> one JSON-ready record per simulated job.
    split: Callable[[Any], list]
    #: result -> list of paper-shape violations (empty when it holds).
    shape: Callable[[Any], list[str]]
    #: True when the unit runs simulated mpiruns (False: the service).
    engine: bool = True
    #: True when no mpirun is priced by a fabric, so every engine run
    #: must take the quiet send path, traced or not.
    quiet: bool = False

    def run(self, seed: int, jobs: int):
        """One unit: the target's ``run`` and ``format_result``."""
        run = self.experiment.run
        kwargs = dict(self.kwargs, seed=seed)
        # Ask for the fan-out wherever the target accepts it, so a target
        # that gains a ``jobs`` parameter is measured with it.
        if "jobs" in inspect.signature(run).parameters:
            kwargs["jobs"] = jobs
        result = run(**kwargs)
        text = self.experiment.format_result(result)
        return result, text


# ----------------------------------------------------------------------
# Per-job records and shape predicates
# ----------------------------------------------------------------------
def _fig9_split(r) -> list:
    nruns = len(next(iter(r.series["osu"].values())))
    return [
        {suite: {str(m): series[m][i] for m in sorted(series)}
         for suite, series in sorted(r.series.items())}
        for i in range(nruns)
    ]


def _fig9_shape(r) -> list[str]:
    return [
        f"OSU/RT = {r.inflation(m):.4f} <= 1 at {m} B"
        for m in sorted(r.series["osu"])
        if not r.inflation(m) > 1.0
    ]


def _fig7_split(r) -> list:
    mod = fig7_barrier_impact
    return [
        {f"{s}/{m}": r.cells[(s, m, b)]
         for s in mod.SUITES for m in mod.MSIZES}
        for b in mod.BARRIERS
    ]


def _fig7_shape(r) -> list[str]:
    mod = fig7_barrier_impact
    return [
        f"best barrier for {s} at {m} B is {r.best_barrier(s, m)}, not tree"
        for s in mod.SUITES for m in mod.MSIZES
        if r.best_barrier(s, m) != "tree"
    ]


def _fig6_split(r) -> list:
    return [
        {"label": run.label, "duration": run.duration,
         "max_offsets": {f"{w:g}": o for w, o in sorted(
             run.max_offsets.items())}}
        for run in r.runs
    ]


def _fig6_shape(r) -> list[str]:
    # Labels: flat "hca3/recompute_intercept/<n>/..." and hierarchical
    # "Top/hca3/<n>/.../Bottom/ClockPropagation"; field 2 is the budget.
    flat, hier = {}, {}
    for label in r.by_label():
        side = hier if label.startswith("Top/") else flat
        side[label.split("/")[2]] = r.mean_duration(label)
    problems = []
    if not flat or set(flat) != set(hier):
        problems.append(f"fit-point budgets differ: {flat} vs {hier}")
    for n in sorted(set(flat) & set(hier), key=int):
        if not hier[n] < flat[n]:
            problems.append(
                f"H2HCA duration {hier[n]:.4g} s >= flat HCA3 "
                f"{flat[n]:.4g} s at {n} fit points"
            )
    return problems


def _service_split(results) -> list:
    return [
        {k: v for k, v in dataclasses.asdict(x).items() if k != "wall_s"}
        for x in results
    ]


def _service_shape(results) -> list[str]:
    problems = [
        f"{x.policy}|{x.workload}: {x.queries} queries scored"
        for x in results if x.queries <= 0
    ]
    if not any(x.slo_met for x in results):
        problems.append("no policy meets the SLO: no cheapest policy")
    return problems


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="roundtime_titan",
        why=("Fig. 9 OSU vs Round-Time on the 128-rank Titan torus: every "
             "send is priced by TorusFabric on the instrumented path"),
        experiment=fig9_roundtime,
        # Two mpiruns at 4 B, where the barrier inflation is largest
        # (fig9 quick runs 9 sizes x 3 mpiruns, ~76 s).  Two mpiruns keep
        # a fan-out over --jobs 2 measurable.
        kwargs={"scale": "quick", "nmpiruns": 2, "msizes": (4,)},
        jobs=2,
        njobs=2,
        split=_fig9_split,
        shape=_fig9_shape,
    ),
    Workload(
        name="barrier_jupiter",
        why=("Fig. 7 suite x barrier x msize grid on 64 Jupiter ranks: the "
             "only paper target whose mpiruns take the quiet send path"),
        experiment=fig7_barrier_impact,
        kwargs={"scale": "quick"},
        jobs=1,
        njobs=len(fig7_barrier_impact.BARRIERS),
        split=_fig7_split,
        shape=_fig7_shape,
        quiet=True,
    ),
    Workload(
        name="hier_campaign_titan",
        why=("Fig. 6 H2HCA vs flat HCA3 campaign: many short mpiruns fanned "
             "out over 2 workers; set-up, ping-pongs, clock reads, fits"),
        experiment=fig6_hier_titan,
        kwargs={"scale": "quick"},
        jobs=2,
        njobs=12,
        split=_fig6_split,
        shape=_fig6_shape,
    ),
    Workload(
        name="service_slo",
        why=("clock-service resync-policy sweep (1.6M batched queries, "
             "resyncs compile new epochs): the one workload off the engine"),
        experiment=service_slo,
        kwargs={"scale": "quick"},
        jobs=1,
        njobs=5,
        split=_service_split,
        shape=_service_shape,
        engine=False,
    ),
)}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return True


def digest(record) -> str:
    """sha256 of a JSON record; floats keep every digit (``repr``)."""
    blob = json.dumps(record, sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class UnitCheck:
    """Digests and failures of one unit's simulated jobs."""

    job_digests: list[str]
    digest: str
    failed: list[bool]
    problems: list[str]


def check_unit(wl: Workload, result, reference: UnitCheck | None = None
               ) -> UnitCheck:
    """Check one unit's output; ``reference`` is the same seed's first."""
    records = wl.split(result)
    job_digests = [digest(rec) for rec in records]
    problems: list[str] = []
    failed = [not _finite(rec) for rec in records]
    for i, bad in enumerate(failed):
        if bad:
            problems.append(f"job {i}: non-finite number in result")
    if len(records) != wl.njobs:
        problems.append(f"{len(records)} jobs, expected {wl.njobs}")
        failed = [True] * wl.njobs
    shape = wl.shape(result)
    if shape:
        problems.extend(shape)
        failed = [True] * wl.njobs
    if reference is not None and len(records) == wl.njobs:
        for i, (mine, ref) in enumerate(
                zip(job_digests, reference.job_digests)):
            if mine != ref:
                problems.append(
                    f"job {i}: digest {mine} differs from {ref} (same seed)"
                )
                failed[i] = True
    return UnitCheck(
        job_digests=job_digests,
        digest=digest(job_digests),
        failed=failed,
        problems=problems,
    )
