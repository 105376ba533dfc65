"""Delivery policy: the one hook that changes how a run is priced.

A :class:`DeliveryPolicy` perturbs delay draws (data messages and
rendezvous acks), scales NIC serialization gaps, stretches compute,
tampers with payloads and publishes its a-priori event schedule; the
methods here are identities, which
:class:`~repro.faults.injector.FaultInjector` and
:class:`~repro.scenarios.apply.AdversaryInjector` override.  ``fabric``
(see :mod:`repro.cluster.fabric`) adds node-pair latency to REMOTE data
messages after :meth:`~DeliveryPolicy.perturb_delay`; acks are not
fabric-priced (DESIGN.md §6).  The engine resolves the hooks once
(:meth:`~DeliveryPolicy.hook`) and never calls identity ones, so a
fabric-only run pays one fabric lookup per remote message and builds no
process RNG stream.
"""

from __future__ import annotations


class DeliveryPolicy:
    """Identity pricing plus an optional fabric."""

    #: Whether :meth:`perturb_payload` can change payloads; the engine
    #: only calls the payload hook when this is set.
    perturbs_payloads: bool = False

    def __init__(self, fabric=None) -> None:
        #: Object with ``extra_latency(node_a, node_b)``, or None.
        self.fabric = fabric

    def hook(self, name: str):
        """The bound hook ``name``, or None when it cannot change a run."""
        if getattr(type(self), name) is getattr(DeliveryPolicy, name):
            return None
        if name == "perturb_payload" and not self.perturbs_payloads:
            return None
        return getattr(self, name)

    def schedule_events(self) -> list:
        """Records the engine emits when the run starts (known a priori)."""
        return []

    def perturb_delay(self, time, level, delay, rng, *, src=None, dst=None):
        """One delay draw of the hop ``src`` → ``dst`` (data or ack)."""
        return delay

    def nic_gap_factor(self, time, node) -> float:
        """Multiplier on the NIC serialization gap of ``node`` right now."""
        return 1.0

    def perturb_compute(self, time, rank, duration, rng) -> float:
        """One compute interval of ``rank``."""
        return duration

    def perturb_payload(self, time, src, dst, tag, payload, rng):
        """The payload ``src`` puts on the wire."""
        return payload
