"""Causal span/edge recorder over the engine event stream.

:class:`SpanRecorder` is a passive :class:`~repro.obs.events.EventSink`
that reassembles the flat event stream into per-run causal structure:

* **message edges** — ``MsgSend`` paired with its ``MsgDeliver`` by
  ``seq`` into a closed :class:`MessageEdge` carrying send/arrival/
  deliver times, per-hop latency, network level, and whether the
  receiver *waited* for it (the binding bit the critical-path walk in
  :mod:`repro.obs.causal` follows);
* **phase spans** — ``PhaseBegin``/``PhaseEnd`` (sync rounds) and
  ``CollectiveEnter``/``Exit`` intervals per rank, nested via a stack;
* **block intervals** — ``ProcBlock``→``ProcWake`` per rank, for slack
  accounting, plus ack wakes kept as causal dependencies.

Everything is opt-in: with no recorder (or other observer) attached the
engine skips every observation call and no event objects are
constructed at all.  Because
message ``seq`` numbers restart at 0 for every engine run, the recorder
segments its history into :class:`SpanRun` units — either explicitly
via :meth:`SpanRecorder.run_break` (the parallel executor calls it
before replaying each job's events, keeping ``--jobs N`` merges
deterministic) or automatically when a ``seq`` it has already seen is
injected again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import events as obs_events


@dataclass(frozen=True, slots=True)
class MessageEdge:
    """A closed send→deliver causal edge."""

    seq: int
    src: int
    dst: int
    tag: int
    size: int
    #: Network level of the path ("SELF"/"LOCAL"/"REMOTE").
    level: str
    send_time: float
    #: True arrival at the receiver (before the o_recv charge); -1.0
    #: when the stream predates the field.
    arrival: float
    deliver_time: float
    #: Send-to-delivery latency (includes queueing + overheads).
    latency: float
    synchronous: bool
    #: True when the receiver's timeline was advanced to this message's
    #: arrival — the edge is a *binding* dependency.
    waited: bool


@dataclass(frozen=True, slots=True)
class PhaseSpan:
    """A closed per-rank phase interval (sync phase or collective)."""

    rank: int
    name: str
    begin: float
    end: float
    algorithm: str = ""
    level: str = ""
    round_index: int = -1
    ref: int = -1
    peer: int = -1

    @property
    def instance_key(self) -> tuple:
        """Identity of the phase instance, equal on both pair sides."""
        return (self.name, self.algorithm, self.level,
                self.round_index, self.ref, self.peer)


@dataclass(frozen=True, slots=True)
class AckWake:
    """A rendezvous sender resumed because the ack for ``seq`` landed."""

    rank: int
    time: float
    seq: int


class SpanRun:
    """Causal structure of one engine run (one ``seq`` namespace)."""

    __slots__ = (
        "index", "edges", "open_sends", "delivers", "ack_wakes",
        "blocks", "_open_blocks", "phases", "_open_phases",
        "t_end", "end_rank", "events", "ranks",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        #: seq -> closed MessageEdge
        self.edges: dict[int, MessageEdge] = {}
        #: seq -> MsgSend not yet delivered
        self.open_sends: dict[int, obs_events.MsgSend] = {}
        #: receiving rank -> edges in delivery order
        self.delivers: dict[int, list[MessageEdge]] = {}
        #: sender rank -> AckWake list in time order
        self.ack_wakes: dict[int, list[AckWake]] = {}
        #: rank -> [(block_time, wake_time, reason)]
        self.blocks: dict[int, list[tuple[float, float, str]]] = {}
        self._open_blocks: dict[int, obs_events.ProcBlock] = {}
        #: rank -> closed PhaseSpans (in close order)
        self.phases: dict[int, list[PhaseSpan]] = {}
        self._open_phases: dict[int, list[tuple]] = {}
        self.t_end = 0.0
        self.end_rank = -1
        self.events = 0
        self.ranks: set[int] = set()

    # -- helpers -------------------------------------------------------
    @property
    def open_edge_count(self) -> int:
        """Sends without a matching deliver (= engine's unreceived)."""
        return len(self.open_sends)

    def blocked_seconds(self, rank: int) -> float:
        return sum(end - start for start, end, _ in self.blocks.get(rank, ()))

    def duration(self) -> float:
        return self.t_end

    def close(self) -> None:
        """Close still-open phases at the run's end time."""
        for rank, stack in self._open_phases.items():
            for frame in stack:
                self.phases.setdefault(rank, []).append(
                    self._make_span(frame, max(self.t_end, frame[1]))
                )
            stack.clear()

    @staticmethod
    def _make_span(frame: tuple, end: float) -> PhaseSpan:
        name, begin, algorithm, level, round_index, ref, peer, rank = frame
        return PhaseSpan(
            rank=rank, name=name, begin=begin, end=end,
            algorithm=algorithm, level=level, round_index=round_index,
            ref=ref, peer=peer,
        )


class SpanRecorder:
    """Event sink assembling the causal DAG, segmented per engine run."""

    def __init__(self) -> None:
        self.runs: list[SpanRun] = [SpanRun(0)]

    # -- sink protocol -------------------------------------------------
    def emit(self, event: obs_events.Event) -> None:
        run = self.runs[-1]
        etype = type(event)
        if etype is obs_events.MsgSend:
            if event.seq in run.open_sends or event.seq in run.edges:
                run = self.run_break()
            run.open_sends[event.seq] = event
        elif etype is obs_events.MsgDeliver:
            send = run.open_sends.pop(event.seq, None)
            if send is not None:
                edge = MessageEdge(
                    seq=event.seq, src=send.rank, dst=event.rank,
                    tag=event.tag, size=event.size, level=send.level,
                    send_time=send.time, arrival=event.arrival,
                    deliver_time=event.time, latency=event.latency,
                    synchronous=send.synchronous, waited=event.waited,
                )
                run.edges[event.seq] = edge
                run.delivers.setdefault(event.rank, []).append(edge)
        elif etype is obs_events.ProcBlock:
            run._open_blocks[event.rank] = event
        elif etype is obs_events.ProcWake:
            block = run._open_blocks.pop(event.rank, None)
            if block is not None:
                run.blocks.setdefault(event.rank, []).append(
                    (block.time, event.time, block.reason)
                )
            if event.cause == "ack" and event.seq >= 0:
                run.ack_wakes.setdefault(event.rank, []).append(
                    AckWake(rank=event.rank, time=event.time, seq=event.seq)
                )
        elif etype is obs_events.PhaseBegin:
            run._open_phases.setdefault(event.rank, []).append((
                event.name, event.time, event.algorithm, event.level,
                event.round_index, event.ref, event.peer, event.rank,
            ))
        elif etype is obs_events.PhaseEnd:
            self._close_phase(run, event)
        elif etype is obs_events.CollectiveEnter:
            run._open_phases.setdefault(event.rank, []).append((
                "coll." + event.name, event.time, "",
                "coll", _collective_depth(event), -1, -1, event.rank,
            ))
        elif etype is obs_events.CollectiveExit:
            self._close_phase(
                run, event, name="coll." + event.name
            )
        elif etype is obs_events.FaultInject:
            # Scheduled a priori; its time is not part of the run span.
            return
        elif (
            etype is obs_events.MailboxDeposit
            or etype is obs_events.ModelFit
            or (etype is obs_events.NicQueue and event.backlog <= 0.0)
        ):
            # Metric-only records: no span, no edge, no queueing.
            return
        rank = event.rank
        run.events += 1
        if rank >= 0:
            run.ranks.add(rank)
        if event.time > run.t_end:
            run.t_end = event.time
            run.end_rank = rank

    @staticmethod
    def _close_phase(run: SpanRun, event, name: str | None = None) -> None:
        wanted = event.name if name is None else name
        stack = run._open_phases.get(event.rank)
        if not stack:
            return
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == wanted:
                frame = stack.pop(i)
                run.phases.setdefault(event.rank, []).append(
                    SpanRun._make_span(frame, event.time)
                )
                return

    # -- run segmentation ---------------------------------------------
    def run_break(self) -> SpanRun:
        """Start a new run segment (no-op while the current is empty)."""
        run = self.runs[-1]
        if run.events == 0:
            return run
        run.close()
        run = SpanRun(len(self.runs))
        self.runs.append(run)
        return run

    def finalize(self) -> None:
        """Close the trailing run; safe to call more than once."""
        self.runs[-1].close()

    # -- accessors -----------------------------------------------------
    @property
    def run(self) -> SpanRun:
        return self.runs[-1]

    @property
    def open_edge_count(self) -> int:
        """Open edges in the current run (sanitizer cross-check hook)."""
        return self.runs[-1].open_edge_count

    def completed_runs(self) -> list[SpanRun]:
        """Runs that saw at least one event, oldest first."""
        return [run for run in self.runs if run.events]

    def clear(self) -> None:
        self.runs = [SpanRun(0)]

    def __len__(self) -> int:
        return sum(run.events for run in self.runs)


def _collective_depth(event) -> int:
    """Depth of ``comm_rank`` in the binomial tree over ``comm_size``.

    Used as the collective phase's ``round_index`` so tree position is
    queryable from the span table without re-deriving the topology.
    """
    from repro.simmpi.collectives._tree import binomial_depth

    return binomial_depth(event.comm_rank, event.comm_size)
