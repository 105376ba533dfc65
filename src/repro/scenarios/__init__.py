"""Adversarial scenario registry + standing fuzz rig.

The paper's hierarchy assumes honest clocks and well-behaved links; this
package stresses exactly those assumptions.  It layers *adversaries* —
typed, declarative misbehaviour models — on top of the fault subsystem
(:mod:`repro.faults`), composes them into named :class:`Scenario`\\ s,
and applies them to simulated sync campaigns through the engine's
delivery policy (:class:`~repro.scenarios.apply.AdversaryInjector`):

* :class:`~repro.scenarios.adversaries.ByzantineClockAdversary` — ranks
  that lie about timestamps during offset measurement (payload
  tampering at the sync-message boundary).
* :class:`~repro.scenarios.adversaries.DelayAttackAdversary` —
  asymmetric extra delay on chosen directed links, the classic attack
  that defeats two-way time transfer.
* :class:`~repro.scenarios.adversaries.CongestionAdversary` — a
  CoDel-style bottleneck queue adding sojourn-dependent queueing delay.
* :class:`~repro.scenarios.adversaries.RegionTopologyAdversary` —
  region-tiered latency classes (NA/EU/AS) on inter-node traffic.
* :class:`~repro.scenarios.adversaries.ChurnAdversary` — rank churn
  between campaign rounds (topology swap per simulated mpirun).

On top sits a scenario fuzzer (``python -m repro.scenarios.fuzz``) that
draws random scenario × algorithm cells from Hypothesis strategies, runs
them sanitizer-checked, and shrinks + archives violations as replayable
JSON repro files.  See DESIGN.md §16.
"""

from repro.scenarios.adversaries import (
    ADVERSARY_TYPES,
    Adversary,
    ByzantineClockAdversary,
    ChurnAdversary,
    CongestionAdversary,
    DelayAttackAdversary,
    RegionTopologyAdversary,
    adversary_from_dict,
)
from repro.scenarios.apply import AdversaryInjector
from repro.scenarios.scenario import (
    PRESETS,
    Scenario,
    make_preset,
)

__all__ = [
    "ADVERSARY_TYPES",
    "Adversary",
    "AdversaryInjector",
    "ByzantineClockAdversary",
    "ChurnAdversary",
    "CongestionAdversary",
    "DelayAttackAdversary",
    "PRESETS",
    "RegionTopologyAdversary",
    "Scenario",
    "adversary_from_dict",
    "make_preset",
]
