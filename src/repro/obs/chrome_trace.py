"""Chrome trace-event JSON export (Perfetto / ``about:tracing``).

Two record sources are supported, separately or combined:

* user-level :class:`~repro.trace.tracer.TraceEvent` spans (one complete
  ``"X"`` slice per traced MPI call, one track per rank);
* engine events from :mod:`repro.obs.events` — collective enter/exit as
  ``"B"``/``"E"`` stacks, blocked intervals as ``"X"`` slices, message
  sends/deliveries as ``"i"`` instants and NIC backlog as ``"C"`` counter
  samples.  With ``include_flows`` each send→deliver pair additionally
  becomes a Perfetto flow arrow (``"s"``/``"f"`` events bound by the
  message ``seq``), rendering the causal edges the critical-path
  analysis (:mod:`repro.obs.causal`) walks.

Timestamp remapping (the point of the paper's Fig. 10): engine events
carry *true* simulation times, and tracer events can carry them too.  Pass
``clock_of`` — a ``rank -> Clock`` mapping — to re-read every timestamp
through that rank's clock.  Exporting the same run once through the raw
hardware clocks and once through the synchronized logical clocks yields
the "skewed vs. corrected trace" pair as a two-file visual diff.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

from repro.obs.events import (
    CollectiveEnter,
    CollectiveExit,
    Event,
    FaultInject,
    MailboxDeposit,
    ModelFit,
    MsgDeliver,
    MsgSend,
    NicQueue,
    ProcBlock,
    ProcWake,
    ResyncRound,
)

#: Synthetic Chrome-trace thread id for the fault-injection track (fault
#: windows are cluster-scoped, not per-rank).
FAULT_TID = -1
from repro.simtime.base import Clock
from repro.trace.tracer import TraceEvent

ClockOf = Callable[[int], Clock]


def _remap(time: float, rank: int, clock_of: ClockOf | None) -> float:
    if clock_of is None:
        return time
    return clock_of(rank).read(time)


# ----------------------------------------------------------------------
# Tracer spans
# ----------------------------------------------------------------------
def trace_events_to_chrome(
    events: Sequence[TraceEvent],
    clock_of: ClockOf | None = None,
    time_unit: float = 1e-6,
    pid: int = 0,
) -> list[dict]:
    """One complete ``"X"`` slice per traced call.

    Without ``clock_of`` the recorded clock readings are used verbatim.
    With it, events must carry true times (``Tracer`` records them); each
    timestamp is re-read through ``clock_of(rank)``.
    """
    records = []
    for e in sorted(events, key=lambda e: (e.rank, e.start)):
        if clock_of is None:
            start, end = e.start, e.end
        else:
            if e.true_start is None or e.true_end is None:
                raise ValueError(
                    "clock remapping needs TraceEvents with true times"
                )
            start = _remap(e.true_start, e.rank, clock_of)
            end = _remap(e.true_end, e.rank, clock_of)
        records.append(
            {
                "name": e.name,
                "cat": "mpi",
                "ph": "X",
                "ts": start / time_unit,
                "dur": max(0.0, end - start) / time_unit,
                "pid": pid,
                "tid": e.rank,
                "args": {"iteration": e.iteration},
            }
        )
    return records


# ----------------------------------------------------------------------
# Engine events
# ----------------------------------------------------------------------
def engine_events_to_chrome(
    events: Sequence[Event],
    clock_of: ClockOf | None = None,
    time_unit: float = 1e-6,
    pid: int = 0,
    include_messages: bool = True,
    include_flows: bool = False,
) -> list[dict]:
    """Convert an engine event stream to Chrome trace records.

    Collective enter/exit become ``"B"``/``"E"`` stacks, blocked intervals
    (``ProcBlock`` → next ``ProcWake`` of the same rank) become ``"X"``
    slices, message events become instants and NIC queueing becomes a
    per-node counter track (injections at an idle NIC are skipped, as
    are mailbox deposits and model fits).  ``include_flows`` adds one
    ``"s"``/``"f"`` flow-event pair per delivered message (id = message
    ``seq``), which
    Perfetto renders as a causal arrow from the send instant to the
    delivery instant.
    """
    records: list[dict] = []
    open_blocks: dict[int, ProcBlock] = {}
    for event in events:
        if isinstance(event, (MailboxDeposit, ModelFit)) or (
            isinstance(event, NicQueue) and event.backlog <= 0.0
        ):
            continue  # metric-only records: nothing to draw
        if isinstance(event, FaultInject):
            # Fault windows live on their own track in *true* time (they
            # are scheduled against the simulation, not any rank clock).
            ts_f = event.time / time_unit
            record = {
                "name": f"fault:{event.name}",
                "cat": "fault",
                "ts": ts_f,
                "pid": pid,
                "tid": FAULT_TID,
                "args": {"kind": event.kind, "target": event.target},
            }
            if event.duration > 0.0:
                record["ph"] = "X"
                record["dur"] = event.duration / time_unit
            else:
                record["ph"] = "i"
                record["s"] = "g"
            records.append(record)
            continue
        ts = _remap(event.time, event.rank, clock_of) / time_unit
        if isinstance(event, ResyncRound):
            records.append(
                {
                    "name": "resync_round",
                    "cat": "sync",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": event.rank,
                    "args": {"round": event.round_index, "age": event.age},
                }
            )
        elif isinstance(event, CollectiveEnter):
            records.append(
                {
                    "name": event.name,
                    "cat": "collective",
                    "ph": "B",
                    "ts": ts,
                    "pid": pid,
                    "tid": event.rank,
                    "args": {"comm": event.comm_id,
                             "comm_rank": event.comm_rank},
                }
            )
        elif isinstance(event, CollectiveExit):
            records.append(
                {
                    "name": event.name,
                    "cat": "collective",
                    "ph": "E",
                    "ts": ts,
                    "pid": pid,
                    "tid": event.rank,
                }
            )
        elif isinstance(event, ProcBlock):
            open_blocks[event.rank] = event
        elif isinstance(event, ProcWake):
            block = open_blocks.pop(event.rank, None)
            if block is not None:
                start = _remap(block.time, event.rank, clock_of) / time_unit
                records.append(
                    {
                        "name": f"blocked:{block.reason}",
                        "cat": "engine",
                        "ph": "X",
                        "ts": start,
                        "dur": max(0.0, ts - start),
                        "pid": pid,
                        "tid": event.rank,
                        "args": {"source": block.source, "tag": block.tag},
                    }
                )
        elif include_messages and isinstance(event, MsgSend):
            records.append(
                {
                    "name": "send",
                    "cat": "p2p",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": event.rank,
                    "args": {"dest": event.dest, "size": event.size,
                             "seq": event.seq, "level": event.level},
                }
            )
            if include_flows:
                records.append(
                    {
                        "name": "msg",
                        "cat": "p2p.flow",
                        "ph": "s",
                        "id": event.seq,
                        "ts": ts,
                        "pid": pid,
                        "tid": event.rank,
                    }
                )
        elif include_messages and isinstance(event, MsgDeliver):
            records.append(
                {
                    "name": "deliver",
                    "cat": "p2p",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": event.rank,
                    "args": {"source": event.source, "size": event.size,
                             "seq": event.seq,
                             "latency_us": event.latency / time_unit},
                }
            )
            if include_flows:
                records.append(
                    {
                        "name": "msg",
                        "cat": "p2p.flow",
                        "ph": "f",
                        "bp": "e",
                        "id": event.seq,
                        "ts": ts,
                        "pid": pid,
                        "tid": event.rank,
                    }
                )
        elif isinstance(event, NicQueue):
            records.append(
                {
                    "name": f"nic_backlog/node{event.node}",
                    "cat": "nic",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": event.rank,
                    "args": {"backlog": event.backlog},
                }
            )
    return records


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def chrome_trace_json(records: Sequence[dict], shift_to_zero: bool = True) -> str:
    """Serialize records as a Chrome trace-event JSON array.

    Records are sorted by ``(pid, tid, ts)`` and, with ``shift_to_zero``,
    shifted so the earliest timestamp is 0 (viewers render absolute epoch
    offsets poorly).  ``"E"`` events sort after ``"B"`` at equal ``ts`` so
    stacks stay balanced.
    """
    if not records:
        return "[]"
    # Flow starts ("s") sort right after their send instant and flow
    # finishes ("f") right after the delivery instant they bind to.
    phase_order = {"B": 0, "X": 1, "i": 2, "s": 3, "f": 4, "C": 5, "E": 6}
    ordered = sorted(
        records,
        key=lambda r: (r["pid"], r["tid"], r["ts"],
                       phase_order.get(r["ph"], 7)),
    )
    if shift_to_zero:
        t0 = min(r["ts"] for r in ordered)
        shifted = []
        for r in ordered:
            r = dict(r)
            r["ts"] = r["ts"] - t0
            shifted.append(r)
        ordered = shifted
    return json.dumps(ordered, indent=1)


def export_chrome_trace(
    path,
    trace_events: Sequence[TraceEvent] = (),
    engine_events: Sequence[Event] = (),
    clock_of: ClockOf | None = None,
    time_unit: float = 1e-6,
    include_messages: bool = True,
    include_flows: bool = False,
) -> int:
    """Write a combined Chrome trace file; returns the record count."""
    records = trace_events_to_chrome(
        trace_events, clock_of=clock_of, time_unit=time_unit
    )
    records += engine_events_to_chrome(
        engine_events, clock_of=clock_of, time_unit=time_unit,
        include_messages=include_messages, include_flows=include_flows,
    )
    payload = chrome_trace_json(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return len(records)
