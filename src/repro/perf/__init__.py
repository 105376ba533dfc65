"""Performance micro-harness: engine throughput + campaign wall time.

See :mod:`repro.perf.harness` for the workloads and the
``BENCH_engine.json`` append-only trajectory format;
``benchmarks/bench_engine_perf.py`` is the command-line front end,
:mod:`repro.perf.scaling` (``python -m repro.perf.scaling``) sweeps the
ring workload over rank counts with per-zone breakdowns, and
:mod:`repro.perf.regress` (``python -m repro.perf.regress``) is the CI
regression gate comparing the latest entry against the best prior one.

``RegressionCheck`` and ``check_bench`` are re-exported lazily: importing
:mod:`repro.perf.regress` here would put it in ``sys.modules`` before
``python -m repro.perf.regress`` runs it as ``__main__``, which runpy
warns about.
"""

from repro.perf.harness import (
    BENCH_FILE,
    BENCH_FORMAT,
    campaign_benchmark,
    engine_benchmark,
    git_describe,
    load_bench,
    record_bench,
    ring_machine,
    service_benchmark,
    speedup,
    upgrade_bench,
)

__all__ = [
    "BENCH_FILE",
    "BENCH_FORMAT",
    "RegressionCheck",
    "campaign_benchmark",
    "check_bench",
    "engine_benchmark",
    "git_describe",
    "load_bench",
    "record_bench",
    "ring_machine",
    "service_benchmark",
    "speedup",
    "upgrade_bench",
]


def __getattr__(name: str):
    if name in ("RegressionCheck", "check_bench"):
        from repro.perf import regress

        return getattr(regress, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
