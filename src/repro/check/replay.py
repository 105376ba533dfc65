"""Post-hoc sanitizer replay of a recorded engine event stream.

A run recorded with a :class:`~repro.obs.events.RecordingSink` can be
dumped to JSON lines (:func:`dump_events`) and re-checked later —
possibly on another machine — with ``python -m repro.check run.jsonl``.
Replay exercises every event-stream invariant (monotonicity, FIFO,
conservation, lifecycle, nesting); engine-counter cross-checks need the
live engine and are skipped, with sends still outstanding at stream end
reported as context rather than violations (a stream cannot distinguish
"dropped" from "legitimately unreceived at exit").
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Iterator, get_args

from repro.errors import SimulationError
from repro.obs import events as obs_events
from repro.check.sanitizer import CheckReport, SanitizerSink

#: name -> event class (every member of the ``Event`` union), for the
#: JSON round-trip.
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls for cls in get_args(obs_events.Event)
}


def event_to_dict(event) -> dict:
    """One event as a plain dict with a ``type`` discriminator."""
    out = {"type": type(event).__name__}
    out.update(dataclasses.asdict(event))
    return out


def event_from_dict(data: dict):
    """Inverse of :func:`event_to_dict`."""
    payload = dict(data)
    name = payload.pop("type", None)
    try:
        cls = EVENT_TYPES[name]
    except KeyError:
        raise SimulationError(
            f"unknown event type {name!r}; known: {sorted(EVENT_TYPES)}"
        ) from None
    try:
        return cls(**payload)
    except TypeError as exc:
        raise SimulationError(f"bad fields for {name!r}: {exc}") from None


def dump_events(events: Iterable, path) -> int:
    """Write events as JSON lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event_to_dict(event), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def load_events(path) -> Iterator:
    """Yield the events of a JSONL dump in file order."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield event_from_dict(json.loads(line))


def replay_events(
    events: Iterable, mode: str = "report", label: str = "replay"
) -> CheckReport:
    """Feed a recorded stream through a fresh sanitizer; returns the report.

    In ``strict`` mode the first violation raises out of the replay.
    """
    checker = SanitizerSink(mode=mode, label=label)
    for event in events:
        checker.emit(event)
    report = checker.finalize()
    if checker._outstanding:
        report.label += (
            f" ({len(checker._outstanding)} send(s) undelivered at "
            f"stream end)"
        )
    return report


def replay_file(
    path, mode: str = "report"
) -> CheckReport:
    """Replay one JSONL event dump (see :func:`dump_events`)."""
    return replay_events(load_events(path), mode=mode, label=str(path))
