"""Deterministic discrete-event engine for simulated MPI processes.

Each simulated process is a Python generator that *carries its own current
true time* (``ProcessContext.now``) and yields command objects:

* :class:`SendCmd` — deposit a message (eager or rendezvous),
* :class:`RecvCmd` — blocking receive with source/tag matching,
* :class:`SendRecvCmd` — fused exchange (send, then blocking receive),
* :class:`ElapseCmd` / :class:`WaitUntilCmd` — advance local time.

The engine executes a process *inline* until it blocks on an unmatched
receive or a rendezvous acknowledgement — with a **causality gate**: a
command only executes while its process is not ahead of the earliest
pending event, otherwise it is deferred and re-issued when the event
queue catches up.  The gate makes execution order equal to simulated-time
order, which keeps shared state (per-node NIC availability, ``ANY_SOURCE``
mailboxes) causal while still letting uncontended message chains run
inline without queue churn.

Pending events live in a calendar/bucket queue (see
:mod:`repro.simmpi.eventq`) that pays O(1) amortized per event at any
rank count and pops in exact ``(time, seq)`` order.

Determinism: queue ties are broken by a monotonic sequence number, and all
randomness flows from per-process `numpy` generators spawned from a single
:class:`numpy.random.SeedSequence` — identical seeds give bit-identical
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

import numpy as np

from repro.errors import DeadlockError, MatchingError, SimulationError
from repro.obs import events as obs_events
from repro.obs.events import EventSink
from repro.simmpi.eventq import CalendarQueue, auto_bucket_width
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message, RecvDescriptor
from repro.simmpi.network import Level, NetworkModel
from repro.simmpi.policy import DeliveryPolicy
from repro.simmpi.rngpool import DEFAULT_CHUNK, UniformPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.prof.core import Profiler


# ----------------------------------------------------------------------
# Commands a process generator may yield
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SendCmd:
    """Send ``payload`` (``size`` bytes on the wire) to global rank ``dest``.

    ``synchronous=True`` models ``MPI_Ssend``: the sender blocks until the
    receiver has matched the message, then pays one ack latency.

    ``size`` is validated here, at construction, so a negative size can
    never reach the delay/``bytes_sent`` accounting paths — the network
    model's per-message ``delay`` call stays check-free.
    """

    dest: int
    tag: int
    payload: Any = None
    size: int = 8
    synchronous: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(
                f"message size must be >= 0, got {self.size}"
            )


@dataclass(slots=True)
class RecvCmd:
    """Blocking receive; yields back the matched :class:`Message`."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass(slots=True)
class SendRecvCmd:
    """Fused ``MPI_Sendrecv``: eager send, then a blocking receive.

    Semantically identical to yielding a :class:`SendCmd` followed by a
    :class:`RecvCmd` — the engine performs the send half, re-evaluates the
    causality gate at exactly the point the separate ``RecvCmd`` would
    have been gated, then runs the receive half.  Fusing skips one full
    generator resume through the ``comm.sendrecv``/``ctx.sendrecv`` frame
    chain per exchange, which is the dominant per-message interpreter
    cost in exchange-heavy workloads (ring offset collection, recursive
    doubling).  Results are bit-identical to the unfused pair.
    """

    dest: int
    tag: int
    payload: Any = None
    size: int = 8
    source: int = ANY_SOURCE
    recv_tag: int = ANY_TAG

    # _do_send reads ``cmd.synchronous``; a fused exchange is always an
    # eager send (MPI_Sendrecv has no rendezvous variant here), so this is
    # a class attribute rather than a per-instance field.
    synchronous = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(
                f"message size must be >= 0, got {self.size}"
            )


@dataclass(slots=True)
class ElapseCmd:
    """Consume ``duration`` seconds of local computation.

    Negative durations are rejected at construction (the engine's command
    loop no longer re-checks per execution).
    """

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimulationError("cannot elapse a negative duration")


@dataclass(slots=True)
class WaitUntilCmd:
    """Sleep until the given *true* time (no-op if already past)."""

    true_time: float


Command = SendCmd | RecvCmd | SendRecvCmd | ElapseCmd | WaitUntilCmd


class _Proc:
    """Engine-internal bookkeeping for one simulated process."""

    __slots__ = (
        "rank",
        "gen",
        "now",
        "blocked",
        "pending_value",
        "pending_cmd",
        "finished",
        "result",
        "seed",
        "_rng",
        "pool",
        "mailbox",
    )

    def __init__(self, rank: int, seed: np.random.SeedSequence) -> None:
        self.rank = rank
        self.gen: Generator[Command, Any, Any] | None = None
        self.now = 0.0
        #: RecvDescriptor while blocked on an unmatched receive, the string
        #: "ssend" while waiting for a rendezvous ack, or None when runnable.
        self.blocked: RecvDescriptor | str | None = None
        self.pending_value: Any = None
        #: Command pulled from the generator but deferred by the causality
        #: gate (the process was ahead of the global event frontier).
        self.pending_cmd: Command | None = None
        self.finished = False
        self.result: Any = None
        #: Per-process child seed; ``rng``/``pool`` are materialized from
        #: it lazily (see :meth:`get_rng`), so ranks that never draw —
        #: common at large p — cost no generator construction at all.
        #: Laziness is invisible to results: seeding consumes no entropy,
        #: and each stream's bits depend only on this seed.
        self.seed = seed
        self._rng: np.random.Generator | None = None
        #: Chunked uniform pool feeding this process's message-delay
        #: draws; a dedicated stream (spawned from the same per-process
        #: seed) so pool prefetching never steals draws from ``rng``.
        #: Built on first send by the engine (which knows the chunk size).
        self.pool: UniformPool | None = None
        #: Messages deposited for this rank, in send order.
        self.mailbox: list[Message] = []

    def get_rng(self) -> np.random.Generator:
        """The algorithm-visible random stream, built on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self.seed)
        return rng


class Engine:
    """Event loop coordinating all simulated processes of one MPI job."""

    def __init__(
        self,
        network: NetworkModel,
        level_of: Callable[[int, int], Level],
        seed: int | np.random.SeedSequence = 0,
        max_true_time: float = 1e7,
        node_of: Callable[[int], int] | None = None,
        sink: EventSink | None = None,
        policy: DeliveryPolicy | None = None,
        rng_pool_chunk: int = DEFAULT_CHUNK,
        profiler: "Profiler | None" = None,
    ) -> None:
        self.network = network
        self.level_of = level_of
        #: Maps a rank to its node id; required for NIC-gap modelling.
        self.node_of = node_of or (lambda rank: 0)
        #: The single observer (see :mod:`repro.obs.events`): passive,
        #: with ``None`` every emission site is one pointer comparison.
        self.sink = sink
        #: The single delivery policy (see :mod:`repro.simmpi.policy`);
        #: ``None`` prices every message from the network model alone.
        self.policy = policy
        # Hooks resolved once: identity hooks stay None and are skipped.
        resolved = policy if policy is not None else DeliveryPolicy()
        self._perturb_delay = resolved.hook("perturb_delay")
        self._nic_gap_factor = resolved.hook("nic_gap_factor")
        self._perturb_compute = resolved.hook("perturb_compute")
        self._perturb_payload = resolved.hook("perturb_payload")
        fabric = resolved.fabric
        #: The policy's fabric pricing: extra one-way latency between two
        #: *nodes* (torus hop costs etc.), for REMOTE data messages only.
        self.extra_node_latency = (
            fabric.extra_latency if fabric is not None else None
        )
        #: Per-node NIC next-free times (egress and ingress serialization).
        self._nic_egress: dict[int, float] = {}
        self._nic_ingress: dict[int, float] = {}
        self.max_true_time = float(max_true_time)
        self._seedseq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._procs: list[_Proc] = []
        self._queue = None  # built in _run(), once num_ranks is known
        self._seq = 0  # event-queue tie-break counter
        self._msg_seq = 0  # message sequence numbers (send order)
        self._started = False
        #: Chunk size cap of the per-process delay-draw pools (a pure perf
        #: knob: results are bit-identical for any value, see rngpool).
        self.rng_pool_chunk = rng_pool_chunk
        #: Unfinished processes; the causality gate is skipped once only
        #: one process remains (no shared state left to keep causal).
        self._live = 0
        #: Commands deferred by the causality gate (queue round-trips).
        self.gate_deferrals = 0
        #: ``rank -> node`` resolved once at run() (hot-path cache).
        self._node_cache: list[int] = []
        #: ``src * num_ranks + dest -> Level`` memo of ``level_of``
        #: (hot-path cache; int keys hash cheaper than rank tuples).
        self._level_cache: dict[int, Level] = {}
        self._rank_stride = 0  # num_ranks snapshot for level-cache keys
        #: Diagnostic only (selects no code): True when the run has no
        #: hook at all — no observer, policy or profiler.
        self._quiet = False
        #: Optional wall-time self-profiler (see :mod:`repro.prof`).
        #: Profiling only reads the host clock — it never draws
        #: randomness or advances virtual time, so profiled runs are
        #: bit-identical to unprofiled ones; with ``None`` every
        #: instrumentation site is one pointer comparison.
        self.profiler = profiler
        #: Monotonically increasing count of delivered messages (stats).
        self.messages_delivered = 0
        #: Payload bytes of all delivered messages.
        self.bytes_delivered = 0
        #: Messages injected (sent), including ones still in flight.
        self.messages_sent = 0
        #: Payload bytes injected into the network.
        self.bytes_sent = 0
        #: Synchronous sends that had to park waiting for their match.
        self.rendezvous_stalls = 0
        #: Deepest mailbox (unmatched-message queue) seen during the run.
        self.max_mailbox_depth = 0
        #: Messages still sitting in mailboxes when the run completed
        #: (sent but never received; finalized at the end of run()).
        self.messages_unreceived = 0
        #: Events popped off the pending-event queue (loop iterations).
        self.events_processed = 0
        #: Deepest pending-event queue seen during the run.
        self.max_queue_depth = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_process(self) -> int:
        """Reserve a rank and its RNG seed; returns the new global rank.

        Each process gets two independent streams spawned from its own
        child seed: ``rng`` (algorithm-visible randomness — poll slack,
        fault perturbations) and a pooled stream dedicated to message-
        delay draws.  Keeping them separate means pool prefetching can
        never shift draws seen by algorithm-level consumers.  Both are
        materialized lazily on first draw.
        """
        if self._started:
            raise SimulationError("cannot add processes after run() started")
        rank = len(self._procs)
        child = self._seedseq.spawn(1)[0]
        self._procs.append(_Proc(rank, child))
        self._rank_stride = rank + 1
        return rank

    def add_processes(self, count: int) -> range:
        """Batch-reserve ``count`` ranks; returns their rank range.

        Equivalent to ``count`` calls to :meth:`add_process` —
        ``SeedSequence.spawn(k)`` hands out the same children as k
        successive ``spawn(1)`` calls — but one spawn call instead of k,
        which matters at thousands of ranks.
        """
        if self._started:
            raise SimulationError("cannot add processes after run() started")
        if count < 0:
            raise SimulationError("process count must be >= 0")
        start = len(self._procs)
        children = self._seedseq.spawn(count)
        self._procs.extend(
            _Proc(start + i, child) for i, child in enumerate(children)
        )
        self._rank_stride = start + count
        return range(start, start + count)

    def bind(self, rank: int, gen: Generator[Command, Any, Any]) -> None:
        """Attach the generator body for a previously added rank."""
        proc = self._procs[rank]
        if proc.gen is not None:
            raise SimulationError(f"rank {rank} already has a body")
        proc.gen = gen

    @property
    def num_ranks(self) -> int:
        """Number of processes registered with the engine."""
        return len(self._procs)

    def proc_now(self, rank: int) -> float:
        """Current true time of a process (used by ProcessContext)."""
        return self._procs[rank].now

    def set_proc_now(self, rank: int, value: float) -> None:
        """Advance a process's local true time (ProcessContext hook)."""
        self._procs[rank].now = value

    def rng_of(self, rank: int) -> np.random.Generator:
        """The per-process random stream (deterministic per seed)."""
        return self._procs[rank].get_rng()

    def _pool_of(self, proc: _Proc) -> UniformPool:
        """Materialize a process's delay-draw pool on first send."""
        pool = UniformPool(
            np.random.default_rng(proc.seed.spawn(1)[0]),
            self.rng_pool_chunk,
        )
        proc.pool = pool
        return pool

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def run(self) -> list[Any]:
        """Run every process to completion; returns per-rank return values."""
        if self._started:
            raise SimulationError("engine can only run once")
        self._started = True
        prof = self.profiler
        if prof is None:
            return self._run()
        start = prof.push("engine.run")
        try:
            return self._run()
        finally:
            prof.pop(start)

    def _new_queue(self) -> CalendarQueue:
        # One message's service window: CPU overheads plus the mean
        # coarsest-level wire time of a minimal payload.  A p-rank job
        # keeps ~p events inside such a window, so dividing by p keeps
        # per-bucket occupancy roughly constant at every scale.
        network = self.network
        service = (
            network.o_send
            + network.o_recv
            + network.expected_delay(Level.REMOTE, 8)
        )
        return CalendarQueue(auto_bucket_width(service, len(self._procs)))

    def _run(self) -> list[Any]:
        sink = self.sink
        policy = self.policy
        if sink is not None and policy is not None:
            # The schedule is known a priori: emit one record per fault
            # so traces show fault windows at their exact virtual times.
            for event in policy.schedule_events():
                sink.emit(event)
        self._queue = queue = self._new_queue()
        for proc in self._procs:
            if proc.gen is None:
                raise SimulationError(f"rank {proc.rank} has no body bound")
            self._schedule(proc, 0.0)
        # Resolve topology lookups once: placements are immutable, so the
        # rank->node and (src, dest)->level maps are pure functions.  The
        # node cache is a flat list; levels memoize lazily (only pairs
        # that actually communicate are materialized).
        self._node_cache = [
            self.node_of(rank) for rank in range(len(self._procs))
        ]
        self._level_cache.clear()
        self._rank_stride = len(self._procs)
        self._live = len(self._procs)
        self._quiet = (
            sink is None and policy is None and self.profiler is None
        )

        procs = self._procs
        max_true_time = self.max_true_time
        pop = queue.pop
        events = 0
        max_depth = self.max_queue_depth
        try:
            while queue.size:
                t, _, rank = pop()
                events += 1
                depth = queue.size
                if depth > max_depth:
                    max_depth = depth
                proc = procs[rank]
                if proc.finished:
                    continue
                if t > max_true_time:
                    raise SimulationError(
                        f"simulation exceeded max_true_time={max_true_time}"
                    )
                if t > proc.now:
                    proc.now = t
                self._run_proc(proc)
        finally:
            self.events_processed += events
            self.max_queue_depth = max_depth

        unfinished = [p.rank for p in self._procs if not p.finished]
        if unfinished:
            states = {
                p.rank: p.blocked for p in self._procs if p.rank in unfinished
            }
            # An attached sanitizer (see repro.check) can name the
            # blocked-wait cycle; without one the raw states must do.
            diagnose = getattr(self.sink, "deadlock_diagnosis", None)
            detail = f"\n{diagnose(self)}" if diagnose is not None else ""
            raise DeadlockError(
                f"deadlock: ranks {unfinished} blocked with states "
                f"{states}{detail}"
            )
        self.messages_unreceived = sum(len(p.mailbox) for p in procs)
        return [p.result for p in self._procs]

    def _schedule(self, proc: _Proc, time: float) -> None:
        seq = self._seq
        self._seq = seq + 1
        self._queue.push(time, seq, proc.rank)

    def _run_proc(self, proc: _Proc) -> None:
        """Step ``proc`` inline until it blocks, defers, or finishes.

        Causality gate: a command only executes while its process is not
        ahead of the earliest pending event in the queue.  Without the
        gate, a process running ahead of global time would mutate shared
        state (the per-node NIC availability, ANY_SOURCE mailboxes) out of
        time order and other processes would observe effects "from the
        future".  A gated command is stashed on the process and re-issued
        when the queue catches up.
        """
        gen = proc.gen
        assert gen is not None
        value = proc.pending_value
        proc.pending_value = None
        cmd: Command | None = proc.pending_cmd
        proc.pending_cmd = None
        proc.blocked = None
        # Hot-loop locals: these attributes are stable across the run and
        # each dotted lookup costs a dict probe per command otherwise.
        # _live is constant within one _run_proc activation (it changes
        # only when *this* process finishes, which returns immediately);
        # the queue frontier is not (sends may wake peers), so it is
        # re-read from the queue each iteration.
        queue = self._queue
        gate = self._live > 1
        sink = self.sink
        perturb_compute = self._perturb_compute
        prof = self.profiler
        send = gen.send
        # Bound once per activation; instance-level monkeypatches (the
        # sanitizer's mutant tests) still intercept the hot path.
        do_send = self._do_send
        finish = self._finish_delivery
        while True:
            if cmd is None:
                if prof is not None:
                    # "proc.advance" is the inline execution of process
                    # code between two commands — the sync algorithms'
                    # compute (fitting, offset math, clock reads) lands
                    # here, with finer zones nested by those layers.
                    start = prof.push("proc.advance")
                    try:
                        cmd = send(value)
                    except StopIteration as stop:
                        prof.pop(start)
                        proc.finished = True
                        proc.result = stop.value
                        self._live -= 1
                        return
                    prof.pop(start)
                else:
                    try:
                        cmd = send(value)
                    except StopIteration as stop:
                        proc.finished = True
                        proc.result = stop.value
                        self._live -= 1
                        return
                value = None
            if gate and proc.now > queue.frontier:
                # Ahead of the frontier: defer until the queue catches up.
                # With a single live process there is nobody left to
                # observe shared state out of order, so the round-trip
                # through the queue is skipped entirely.
                proc.pending_cmd = cmd
                self.gate_deferrals += 1
                self._schedule(proc, proc.now)
                return
            cls = type(cmd)
            if cls is SendCmd:
                if prof is not None:
                    start = prof.push("engine.send")
                    do_send(proc, cmd)
                    prof.pop(start)
                else:
                    do_send(proc, cmd)
                if cmd.synchronous:
                    # Sender parks until the receiver matches (rendezvous).
                    proc.blocked = "ssend"
                    return
            elif cls is RecvCmd:
                start = prof.push("engine.recv") if prof is not None else 0
                msg = self._match_mailbox(proc, cmd.source, cmd.tag)
                if msg is None:
                    proc.blocked = RecvDescriptor(
                        proc.rank, cmd.source, cmd.tag, proc.now
                    )
                    if sink is not None:
                        sink.emit(obs_events.ProcBlock(
                            time=proc.now, rank=proc.rank, reason="recv",
                            source=cmd.source, tag=cmd.tag,
                        ))
                    if prof is not None:
                        prof.pop(start)
                    return
                if msg.arrival > proc.now:
                    proc.now = msg.arrival
                value = finish(proc, msg)
                if prof is not None:
                    prof.pop(start)
            elif cls is SendRecvCmd:
                if prof is not None:
                    start = prof.push("engine.send")
                    do_send(proc, cmd)
                    prof.pop(start)
                else:
                    do_send(proc, cmd)
                # Receive half: loop back with a synthesized RecvCmd so
                # the causality gate is re-evaluated between the halves
                # at exactly the point the unfused SendCmd/RecvCmd pair
                # would have re-entered it (the send advanced proc.now).
                cmd = RecvCmd(cmd.source, cmd.recv_tag)
                continue
            elif cls is ElapseCmd:
                # duration >= 0 is guaranteed by ElapseCmd construction.
                duration = cmd.duration
                if perturb_compute is not None and duration > 0.0:
                    # Straggler faults: compute runs slower in the window.
                    duration = perturb_compute(
                        proc.now, proc.rank, duration, proc.get_rng()
                    )
                proc.now += duration
            elif cls is WaitUntilCmd:
                if cmd.true_time > proc.now:
                    proc.now = cmd.true_time
            else:
                raise SimulationError(f"unknown command {cmd!r}")
            cmd = None

    # ------------------------------------------------------------------
    # Point-to-point mechanics
    # ------------------------------------------------------------------
    def _do_send(self, proc: _Proc, cmd: SendCmd | SendRecvCmd) -> None:
        """Price one message, then wake its receiver or mailbox it.

        The engine's only send path.  The delivery policy's resolved
        hooks change the pricing inline, the profiler times it, and the
        sink observes it; each is one ``None`` test when absent.
        """
        if not 0 <= cmd.dest < len(self._procs):
            raise MatchingError(f"send to invalid rank {cmd.dest}")
        # Hot-path locals (one message = one _do_send call).
        network = self.network
        sink = self.sink
        prof = self.profiler
        pool = proc.pool
        if pool is None:
            pool = self._pool_of(proc)
        level_cache = self._level_cache
        pair = proc.rank * self._rank_stride + cmd.dest
        level = level_cache.get(pair)
        if level is None:
            level = level_cache[pair] = self.level_of(proc.rank, cmd.dest)
        send_time = proc.now
        seq = self._msg_seq
        self._msg_seq = seq + 1
        self.messages_sent += 1
        self.bytes_sent += cmd.size
        if sink is not None:
            sink.emit(obs_events.MsgSend(
                time=send_time, rank=proc.rank, dest=cmd.dest, tag=cmd.tag,
                size=cmd.size, seq=seq, level=level.name,
                synchronous=cmd.synchronous,
            ))
            if cmd.synchronous:
                sink.emit(obs_events.ProcBlock(
                    time=send_time, rank=proc.rank, reason="ssend",
                    source=cmd.dest, tag=cmd.tag,
                ))
        if cmd.synchronous:
            self.rendezvous_stalls += 1
        proc.now += network.o_send
        t0 = prof.clock() if prof is not None else 0
        delay = network.delay_from_pool(level, cmd.size, pool)
        if self._perturb_delay is not None:
            # Link faults and adversaries: windowed degradation of the
            # delay draw, keyed on this message's (src, dst) pair.
            delay = self._perturb_delay(
                send_time, level, delay, proc.get_rng(),
                src=proc.rank, dst=cmd.dest,
            )
        nodes = self._node_cache
        if (
            self.extra_node_latency is not None
            and level == Level.REMOTE
        ):
            delay += self.extra_node_latency(
                nodes[proc.rank], nodes[cmd.dest]
            )
        arrival = send_time + network.o_send + delay
        gap = network.nic_gap
        if gap > 0.0 and level == Level.REMOTE:
            # Egress: messages leaving a node serialize at its NIC.
            nic_gap_factor = self._nic_gap_factor
            src_node = nodes[proc.rank]
            egress_gap = gap
            if nic_gap_factor is not None:
                # NIC storm faults: the serialization gap grows.
                egress_gap = gap * nic_gap_factor(proc.now, src_node)
            inject = max(proc.now, self._nic_egress.get(src_node, 0.0))
            self._nic_egress[src_node] = inject + egress_gap
            # Congestion: delay variance grows with the backlog this
            # message found at the NIC (queueing, adaptive routing...).
            backlog = (inject - proc.now) / egress_gap
            cj = network.congestion_jitter
            if cj > 0.0 and backlog > 0.0:
                delay += cj * backlog * -log1p(-pool.next())
            arrival = inject + egress_gap + delay
            # Ingress: arrivals at the destination node serialize too.
            dst_node = nodes[cmd.dest]
            ingress_gap = gap
            if nic_gap_factor is not None:
                ingress_gap = gap * nic_gap_factor(proc.now, dst_node)
            ingress_free = self._nic_ingress.get(dst_node, 0.0)
            if ingress_free > arrival:
                arrival = ingress_free
            self._nic_ingress[dst_node] = arrival + ingress_gap
            if sink is not None:
                sink.emit(obs_events.NicQueue(
                    time=send_time, rank=proc.rank, node=src_node,
                    backlog=backlog, inject_time=inject,
                ))
        if prof is not None:
            # Delay draw + fault perturbation + NIC serialization model:
            # the per-message network pricing.
            prof.add("net.delay", prof.clock() - t0)
        payload = cmd.payload
        if self._perturb_payload is not None:
            # Byzantine adversaries: the sender's wire payload may lie
            # (timestamp tampering at the sync-message boundary).
            payload = self._perturb_payload(
                send_time, proc.rank, cmd.dest, cmd.tag, payload,
                proc.get_rng(),
            )
        msg = Message(
            source=proc.rank,
            dest=cmd.dest,
            tag=cmd.tag,
            payload=payload,
            size=cmd.size,
            send_time=send_time,
            arrival=arrival,
            seq=seq,
            sync_sender=proc if cmd.synchronous else None,
        )
        dest = self._procs[cmd.dest]
        blocked = dest.blocked
        if type(blocked) is RecvDescriptor and msg.matches(
            blocked.source, blocked.tag
        ):
            # Wake the receiver: it resumes once the message arrives.
            dest.blocked = None
            resume_at = dest.now
            if arrival > resume_at:
                resume_at = arrival
            dest.now = resume_at
            if sink is not None:
                sink.emit(obs_events.ProcWake(
                    time=resume_at, rank=dest.rank, cause="deliver", seq=seq,
                ))
            dest.pending_value = self._finish_delivery(dest, msg)
            self._schedule(dest, resume_at)
        else:
            dest.mailbox.append(msg)
            depth = len(dest.mailbox)
            if depth > self.max_mailbox_depth:
                self.max_mailbox_depth = depth
            if sink is not None:
                sink.emit(obs_events.MailboxDeposit(
                    time=send_time, rank=proc.rank, dest=dest.rank,
                    seq=seq, depth=depth,
                ))

    def _match_mailbox(self, proc: _Proc, source: int, tag: int) -> Message | None:
        for i, msg in enumerate(proc.mailbox):
            if msg.matches(source, tag):
                del proc.mailbox[i]
                return msg
        return None

    def _finish_delivery(self, proc: _Proc, msg: Message) -> Message:
        """Charge receive overhead and release a rendezvous sender."""
        # Binding-edge detection for the causal DAG: both call paths
        # assign (never compute past) the arrival when the receiver had
        # to wait for this message, so exact equality is reliable here.
        waited = proc.now == msg.arrival
        proc.now += self.network.o_recv
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        sink = self.sink
        if sink is not None:
            sink.emit(obs_events.MsgDeliver(
                time=proc.now, rank=proc.rank, source=msg.source,
                tag=msg.tag, size=msg.size, seq=msg.seq,
                latency=proc.now - msg.send_time,
                arrival=msg.arrival, waited=waited,
            ))
        sender = msg.sync_sender
        if sender is not None:
            # The ack travels back; the sender resumes after its arrival.
            # Acks take the link perturbation but neither fabric pricing
            # nor NIC serialization (a modelling shortcut, DESIGN.md §6).
            pair = msg.dest * self._rank_stride + msg.source
            level = self._level_cache.get(pair)
            if level is None:
                level = self._level_cache[pair] = self.level_of(
                    msg.dest, msg.source
                )
            pool = proc.pool
            if pool is None:
                pool = self._pool_of(proc)
            prof = self.profiler
            t0 = prof.clock() if prof is not None else 0
            ack_delay = self.network.delay_from_pool(level, 8, pool)
            if self._perturb_delay is not None:
                # The ack travels receiver → original sender.
                ack_delay = self._perturb_delay(
                    proc.now, level, ack_delay, proc.get_rng(),
                    src=msg.dest, dst=msg.source,
                )
            if prof is not None:
                prof.add("net.delay", prof.clock() - t0)
            resume_at = max(proc.now, msg.arrival) + ack_delay
            sender.now = max(sender.now, resume_at)
            sender.blocked = None
            if sink is not None:
                sink.emit(obs_events.ProcWake(
                    time=sender.now, rank=sender.rank, cause="ack",
                    seq=msg.seq,
                ))
            self._schedule(sender, sender.now)
            msg.sync_sender = None
        return msg

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def blocked_ranks(self) -> Iterable[int]:
        """Ranks currently blocked (valid only mid-run; for debugging)."""
        return [p.rank for p in self._procs if p.blocked is not None]

    def stats(self) -> dict[str, int]:
        """Snapshot of the engine's built-in counters.

        Always available (no sink or registry required); the counters are
        plain integer adds on paths the engine executes anyway.
        """
        return {
            "num_ranks": len(self._procs),
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_unreceived": self.messages_unreceived,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "rendezvous_stalls": self.rendezvous_stalls,
            "max_mailbox_depth": self.max_mailbox_depth,
            "gate_deferrals": self.gate_deferrals,
            "events_processed": self.events_processed,
            "max_queue_depth": self.max_queue_depth,
        }
