"""Engine-side fault application and clock wrapping.

The :class:`FaultInjector` is the engine's
:class:`~repro.simmpi.policy.DeliveryPolicy` for a fault schedule: it
perturbs network delay draws (link degradation/congestion bursts),
scales NIC serialization gaps (backlog storms), stretches compute
durations (stragglers), and publishes the schedule as
:class:`~repro.obs.events.FaultInject` records.  All perturbations are
pure functions of the current true time plus draws from the calling
process's own seeded RNG stream, so a scenario + seed reproduces
bit-identically.

Clock faults are applied *before* the run, by wrapping each node's
hardware clock via :func:`apply_clock_faults` — the engine never sees
them; processes simply observe stepped/bent readings.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.faults.schedule import FaultSchedule
from repro.obs.events import FaultInject
from repro.simmpi.network import Level
from repro.simmpi.policy import DeliveryPolicy
from repro.simtime.hardware import HardwareClock
from repro.simtime.perturb import ExcursionDrift, SteppedClock


def apply_clock_faults(
    clock: HardwareClock, schedule: FaultSchedule, node: int
):
    """Wrap a freshly built node clock with its scheduled clock faults.

    Frequency excursions wrap the clock's drift model (in place — the
    clock must not have been read yet); offset steps wrap the clock
    itself in a :class:`~repro.simtime.perturb.SteppedClock`.  Returns
    the clock to use for ``node`` (the original object when no clock
    fault targets it, preserving shared-time-source identity).
    """
    from repro.faults.model import ClockFrequencyFault, ClockStepFault

    faults = schedule.clock_faults(node)
    windows = [
        (f.start, f.end, f.skew_delta, f.shape)
        for f in faults
        if isinstance(f, ClockFrequencyFault)
    ]
    if windows:
        clock.drift = ExcursionDrift(
            clock.drift, windows, segment_length=clock.segment_length
        )
    steps = [
        (f.start, f.step) for f in faults if isinstance(f, ClockStepFault)
    ]
    if steps:
        return SteppedClock(clock, steps)
    return clock


class FaultInjector(DeliveryPolicy):
    """Applies a :class:`FaultSchedule`'s engine-level faults at run time."""

    def __init__(
        self,
        schedule: FaultSchedule,
        node_of: Callable[[int], int] | None = None,
    ) -> None:
        super().__init__()
        self.schedule = schedule
        self.node_of = node_of or (lambda rank: 0)
        self._links = schedule.link_faults()
        self._storms = schedule.nic_faults()
        self._stragglers = schedule.straggler_faults()
        #: Diagnostics: perturbations actually applied during the run.
        self.delays_perturbed = 0
        self.computes_perturbed = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def schedule_events(self) -> list[FaultInject]:
        """One :class:`FaultInject` record per scheduled fault.

        The schedule is known before the run starts, so fault spans carry
        exact virtual times regardless of when processes observe them.
        """
        records = []
        for f in self.schedule:
            rank = getattr(f, "rank", None)
            records.append(
                FaultInject(
                    time=f.start,
                    rank=rank if rank is not None else -1,
                    kind=f.kind,
                    name=f.name,
                    target=f.target(),
                    duration=f.duration,
                )
            )
        return records

    # ------------------------------------------------------------------
    # Engine hooks (hot paths — all early-out when nothing is active)
    # ------------------------------------------------------------------
    def perturb_delay(
        self,
        time: float,
        level: Level,
        delay: float,
        rng: np.random.Generator,
        *,
        src: int | None = None,
        dst: int | None = None,
    ) -> float:
        """Degrade one network delay draw per the link faults active now.

        ``src``/``dst`` identify the directed message the draw prices
        (the engine supplies them; ack draws travel receiver→sender).
        Directed link faults only match when the pair is known and
        equal; undirected faults behave as before.
        """
        for f in self._links:
            if not f.active(time):
                continue
            if f.level is not None and f.level != level.name:
                continue
            if not f.matches_link(src, dst):
                continue
            delay *= f.latency_factor
            if f.jitter > 0.0:
                delay += rng.exponential(f.jitter)
            if f.outlier_prob > 0.0 and rng.random() < f.outlier_prob:
                delay += rng.exponential(f.outlier_scale)
            self.delays_perturbed += 1
        return delay

    def nic_gap_factor(self, time: float, node: int) -> float:
        """Multiplier on the NIC serialization gap of ``node`` right now."""
        factor = 1.0
        for f in self._storms:
            if f.active(time) and (f.node is None or f.node == node):
                factor *= f.gap_factor
        return factor

    def perturb_compute(
        self,
        time: float,
        rank: int,
        duration: float,
        rng: np.random.Generator,
    ) -> float:
        """Stretch one compute interval per the stragglers active now."""
        for f in self._stragglers:
            if f.active(time) and f.matches(rank, self.node_of(rank)):
                duration *= f.slowdown
                if f.noise > 0.0:
                    duration += rng.exponential(f.noise)
                self.computes_perturbed += 1
        return duration
