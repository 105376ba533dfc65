"""Periodic re-synchronization — the paper's future-work extension.

Section III-C2 bounds the validity of a linear clock model to roughly
0–20 s: beyond that, drift non-linearity degrades the global clock, which
is why "MPI tracing tools ... have to re-synchronize clocks periodically"
(Doleschal et al., cited in Section II).  :class:`PeriodicResyncClock`
packages that policy: it owns a synchronization algorithm and re-runs it
whenever the current model is older than ``max_model_age`` seconds,
giving long-running campaigns a clock whose error stays bounded instead
of growing linearly with elapsed time.  :class:`ErrorBoundResyncClock`
is its error-driven sibling: instead of a fixed age it resyncs when the
*predicted* clock error (:func:`repro.analysis.accuracy.error_bound`)
approaches an SLO — the policy the service layer sweeps against
periodic schedules.

Usage (inside an SPMD body)::

    resync = PeriodicResyncClock(h2hca(...), max_model_age=10.0)
    clock = yield from resync.ensure(comm, ctx)   # syncs on first call
    ...
    clock = yield from resync.ensure(comm, ctx)   # re-syncs when stale

``ensure`` is collective: all ranks observe the same staleness decision
because it is based on the *global* clock reading at the previous sync,
agreed via a broadcast of rank 0's ``(stale, age)`` decision payload
(rank 0 is the time source), so ranks never disagree about whether a
resync round happens — and every rank knows the model age, so
service-side staleness bounds hold off-root too.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Generator

from repro.errors import SyncError
from repro.obs.events import PhaseBegin, PhaseEnd, ResyncRound
from repro.simtime.base import Clock
from repro.sync.base import ClockSyncAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator
    from repro.simmpi.process import ProcessContext

#: Simulated size of rank 0's broadcast decision: a flag byte plus the
#: 8-byte model age.
RESYNC_DECISION_BYTES = 9


class ResyncClock(abc.ABC):
    """Keeps a global clock fresh by re-running the sync algorithm.

    Subclasses supply the staleness policy (:meth:`_stale`); the
    collective machinery — decide on rank 0, broadcast ``(stale, age)``,
    re-sync, emit telemetry — is shared.
    """

    def __init__(self, algorithm: ClockSyncAlgorithm) -> None:
        self.algorithm = algorithm
        self._clock: Clock | None = None
        self._synced_at: float | None = None  # global-clock reading
        self.resync_count = 0
        #: Model age at the most recent ``ensure`` decision, in global
        #: seconds; identical on every rank (broadcast from rank 0) and
        #: ``-1.0`` until the first post-sync decision.
        self.last_age = -1.0

    @property
    def clock(self) -> Clock:
        if self._clock is None:
            raise SyncError("ensure() has not run yet")
        return self._clock

    @abc.abstractmethod
    def _stale(self, age: float, ctx: "ProcessContext") -> bool:
        """Rank 0's policy decision: re-sync a model ``age`` seconds old?"""

    @abc.abstractmethod
    def label(self) -> str:
        """Human-readable policy tag for reports and figures."""

    def ensure(
        self, comm: "Communicator", ctx: "ProcessContext"
    ) -> Generator:
        """Return a fresh global clock, re-synchronizing if stale.

        Collective over ``comm``.  The staleness decision is made by rank
        0 against its own (identity) global clock and broadcast together
        with the model age, so every rank takes the same branch *and*
        reports the same age.
        """
        age = -1.0  # unknown before the first sync completes
        if self._clock is None:
            stale = True
        elif comm.rank == 0:
            age = ctx.read_clock(self._clock) - self._synced_at
            stale = self._stale(age, ctx)
        else:
            stale = False  # decided by rank 0 below
        if self._clock is not None:
            stale, age = yield from comm.bcast(
                (stale, age) if comm.rank == 0 else None,
                root=0, size=RESYNC_DECISION_BYTES,
            )
        self.last_age = age
        if stale:
            sink = ctx.engine.sink
            if sink is not None:
                # Bound the round for the causal span recorder; every
                # rank reports the same round_index (collective branch).
                sink.emit(PhaseBegin(
                    time=ctx.now, rank=ctx.rank, name="sync.resync",
                    algorithm=getattr(self.algorithm, "name", ""),
                    round_index=self.resync_count + 1,
                ))
            self._clock = yield from self.algorithm.sync_clocks(
                comm, ctx.hardware_clock
            )
            if sink is not None:
                sink.emit(PhaseEnd(
                    time=ctx.now, rank=ctx.rank, name="sync.resync",
                ))
            self._synced_at = ctx.read_clock(self._clock)
            self.resync_count += 1
            # Recovery is observable: one event + counter tick per round.
            prof = ctx.engine.profiler
            if prof is not None:
                # The round's wall time is spread over the engine zones
                # (the sync traffic yields); count the round itself.
                prof.tick("sync.resync.rounds")
            if sink is not None:
                sink.emit(ResyncRound(
                    time=ctx.now, rank=ctx.rank,
                    round_index=self.resync_count, age=age,
                ))
        return self._clock


class PeriodicResyncClock(ResyncClock):
    """Re-syncs on a fixed model-age schedule (the paper's policy)."""

    def __init__(
        self,
        algorithm: ClockSyncAlgorithm,
        max_model_age: float = 10.0,
    ) -> None:
        if max_model_age <= 0.0:
            raise SyncError("max_model_age must be > 0")
        super().__init__(algorithm)
        self.max_model_age = max_model_age

    def _stale(self, age: float, ctx: "ProcessContext") -> bool:
        return age >= self.max_model_age

    def label(self) -> str:
        return f"resync[{self.max_model_age:g}s]/{self.algorithm.label()}"


class ErrorBoundResyncClock(ResyncClock):
    """Re-syncs when the predicted clock error approaches an SLO.

    Rank 0 evaluates :func:`repro.analysis.accuracy.error_bound` for the
    current model age against its hardware clock's drift family (or an
    explicit ``drift`` rate/model) and triggers a round once the bound
    reaches ``margin * slo``.  With a drifty oscillator this adapts the
    schedule to the drift actually present instead of a fixed worst-case
    period — the trade the ``service_slo`` experiment quantifies.
    """

    def __init__(
        self,
        algorithm: ClockSyncAlgorithm,
        slo: float,
        margin: float = 0.8,
        drift=None,
        base_error: float = 0.0,
    ) -> None:
        if slo <= 0.0:
            raise SyncError("slo must be > 0")
        if not 0.0 < margin <= 1.0:
            raise SyncError("margin must be in (0, 1]")
        if base_error < 0.0:
            raise SyncError("base_error must be >= 0")
        super().__init__(algorithm)
        self.slo = slo
        self.margin = margin
        #: ``DriftModel``, plain rate in s/s, or ``None`` to use rank 0's
        #: hardware-clock drift model at decision time.
        self.drift = drift
        self.base_error = base_error

    def _stale(self, age: float, ctx: "ProcessContext") -> bool:
        from repro.analysis.accuracy import error_bound
        from repro.sync.clocks import effective_model

        drift = (
            self.drift if self.drift is not None
            else ctx.hardware_clock.drift
        )
        model = effective_model(self._clock)
        bound = error_bound(model, age, drift, base_error=self.base_error)
        return bound >= self.margin * self.slo

    def label(self) -> str:
        return (
            f"slo[{self.slo:g}s@{self.margin:g}]/{self.algorithm.label()}"
        )
