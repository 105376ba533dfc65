"""Simulation sanitizer: runtime invariant checking for the engine.

Attach a :class:`SanitizerSink` to any run (or enable checking
process-wide with :func:`checking` / ``REPRO_CHECK=strict``) and every
engine-level invariant — per-rank time monotonicity, per-channel FIFO
matching, message conservation, block/wake lifecycle, collective
nesting, stats consistency — is verified as the run executes; deadlocks
are diagnosed with the blocked-wait cycle instead of an opaque stall.
``python -m repro.check`` re-checks recorded event streams post-hoc.

See DESIGN.md §11 for the invariant catalog and the mutant suite that
keeps the checker honest.
"""

from repro.check.clockcheck import (
    SLOPE_TOL,
    assert_clock_sane,
    check_global_clock,
    clock_sanity_violations,
)
from repro.check.config import (
    active_check_mode,
    append_report,
    check_report_dir,
    checking,
    load_reports,
    set_check_mode,
    write_aggregate,
)
from repro.check.replay import (
    dump_events,
    event_from_dict,
    event_to_dict,
    load_events,
    replay_events,
    replay_file,
)
from repro.check.sanitizer import (
    MAX_VIOLATIONS,
    CheckReport,
    SanitizerSink,
    Violation,
)
from repro.errors import InvariantViolation

__all__ = [
    "CheckReport",
    "InvariantViolation",
    "MAX_VIOLATIONS",
    "SLOPE_TOL",
    "SanitizerSink",
    "Violation",
    "active_check_mode",
    "append_report",
    "assert_clock_sane",
    "check_global_clock",
    "check_report_dir",
    "checking",
    "clock_sanity_violations",
    "dump_events",
    "event_from_dict",
    "event_to_dict",
    "load_events",
    "load_reports",
    "replay_events",
    "replay_file",
    "set_check_mode",
    "write_aggregate",
]
