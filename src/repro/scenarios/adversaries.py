"""Typed adversaries: declarative misbehaviour models for clock sync.

Each adversary is a frozen dataclass with a ``kind`` tag, mirroring the
fault model (:mod:`repro.faults.model`): construction validates field
ranges, ``to_dict``/:func:`adversary_from_dict` round-trip through plain
dicts (and therefore JSON), and ``validate(num_ranks, num_nodes,
horizon)`` rejects instances that cannot act on a concrete job *before*
the run starts.

Adversaries are windowed like faults — active over ``[start, start +
length)``, with ``length=None`` meaning "for the whole run" — because
the interesting attacks are often transient: a delay attack during the
fit window corrupts the learned model; the same attack after sync only
perturbs the accuracy check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Union

from repro.errors import ConfigurationError

#: Directed rank pair: a message travelling ``src -> dst``.
Link = tuple[int, int]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _normalize_links(links) -> tuple[Link, ...]:
    """JSON gives lists of lists; canonical form is a tuple of int pairs."""
    out = []
    for pair in links:
        src, dst = pair
        out.append((int(src), int(dst)))
    return tuple(out)


@dataclass(frozen=True)
class _AdversaryBase:
    """Shared window fields/validation of every adversary type."""

    kind: ClassVar[str] = "adversary"
    start: float = 0.0
    length: float | None = None

    def __post_init__(self) -> None:
        _require(self.start >= 0.0, f"adversary start must be >= 0: {self}")
        _require(
            self.length is None or self.length > 0.0,
            "adversary length must be > 0 (or None for the whole run)",
        )

    @property
    def end(self) -> float:
        return (
            float("inf") if self.length is None else self.start + self.length
        )

    def active(self, true_time: float) -> bool:
        return self.start <= true_time < self.end

    def validate(
        self,
        num_ranks: int | None = None,
        num_nodes: int | None = None,
        horizon: float | None = None,
    ) -> "_AdversaryBase":
        """Reject instances that cannot act on the described job."""
        if horizon is not None and self.start >= horizon:
            raise ConfigurationError(
                f"adversary {self.kind!r} starts at t={self.start:g}s, at "
                f"or beyond the run horizon {horizon:g}s — it would never "
                f"act"
            )
        return self

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [
                    list(v) if isinstance(v, tuple) else v for v in value
                ]
            out[f.name] = value
        return out

    def _check_links(self, links, num_ranks: int | None) -> None:
        _require(len(links) > 0, f"{self.kind} needs at least one link")
        for src, dst in links:
            _require(
                src >= 0 and dst >= 0,
                f"{self.kind} link ranks must be >= 0: ({src}, {dst})",
            )
            _require(
                src != dst,
                f"{self.kind} cannot target a self-link: ({src}, {dst})",
            )
            if num_ranks is not None and not (
                src < num_ranks and dst < num_ranks
            ):
                raise ConfigurationError(
                    f"adversary {self.kind!r} targets link "
                    f"({src}, {dst}), but the job has ranks "
                    f"0..{num_ranks - 1}"
                )


@dataclass(frozen=True)
class ByzantineClockAdversary(_AdversaryBase):
    """Ranks that lie about timestamps during offset measurement.

    While active, every sync-protocol timestamp crossing a listed
    rank's boundary (the ping-pong payloads of :mod:`repro.sync.offset`
    it reports as a reference, or records as a client) is shifted by
    ``bias`` seconds plus a zero-mean normal term of standard deviation
    ``noise`` — the lie is injected at the message boundary, so honest
    ranks fit their linear models against poisoned measurements while
    ground-truth clocks stay untouched (which is what lets the
    degradation harness score the damage).
    """

    kind: ClassVar[str] = "byzantine_clock"
    ranks: tuple[int, ...] = (1,)
    bias: float = 0.0
    noise: float = 0.0
    name: str = "byzantine_clock"

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        super().__post_init__()
        _require(len(self.ranks) > 0, "byzantine adversary needs ranks")
        _require(
            all(r >= 0 for r in self.ranks),
            "byzantine ranks must be >= 0",
        )
        _require(self.noise >= 0.0, "byzantine noise must be >= 0")
        _require(
            self.bias != 0.0 or self.noise > 0.0,
            "byzantine adversary must lie somehow (bias or noise)",
        )

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        super().validate(num_ranks, num_nodes, horizon)
        if num_ranks is not None:
            for r in self.ranks:
                if not r < num_ranks:
                    raise ConfigurationError(
                        f"adversary {self.kind!r} targets rank {r}, but "
                        f"the job has ranks 0..{num_ranks - 1}"
                    )
        return self


@dataclass(frozen=True)
class DelayAttackAdversary(_AdversaryBase):
    """Asymmetric/variable extra delay on chosen directed links.

    Two-way time transfer assumes symmetric paths; adding
    ``extra_delay`` seconds (plus exponential ``jitter``, times
    ``factor``) to *one direction* of a link biases the estimated offset
    by about half the asymmetry — the textbook delay attack.  ``links``
    are directed ``(src, dst)`` rank pairs; list both directions to
    model a symmetric (much less harmful) slowdown.
    """

    kind: ClassVar[str] = "delay_attack"
    links: tuple[Link, ...] = ((1, 0),)
    extra_delay: float = 0.0
    factor: float = 1.0
    jitter: float = 0.0
    name: str = "delay_attack"

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _normalize_links(self.links))
        super().__post_init__()
        self._check_links(self.links, None)
        _require(self.extra_delay >= 0.0, "extra_delay must be >= 0")
        _require(self.factor > 0.0, "delay factor must be > 0")
        _require(self.jitter >= 0.0, "delay jitter must be >= 0")
        _require(
            self.extra_delay > 0.0 or self.factor != 1.0 or self.jitter > 0.0,
            "delay attack must perturb something",
        )

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        super().validate(num_ranks, num_nodes, horizon)
        self._check_links(self.links, num_ranks)
        return self


@dataclass(frozen=True)
class CongestionAdversary(_AdversaryBase):
    """A congested bottleneck with CoDel-style queueing delay.

    Messages crossing a matching link (or any link at ``level``, e.g.
    ``"REMOTE"``) pass through a single-server queue with deterministic
    ``service_time`` per message: each one waits for the queue to drain
    before adding its own service time, so sustained traffic builds
    sojourn (queueing delay) exactly like a standing bottleneck buffer.
    The AQM twist follows CoDel: once the sojourn has stayed above
    ``codel_target`` for ``codel_interval`` seconds, the queue is
    drained (the controller "drops" the standing backlog) and the
    interval restarts — so the queueing delay saws between the target
    and the uncontrolled peak rather than growing without bound.
    """

    kind: ClassVar[str] = "congestion"
    level: str | None = "REMOTE"
    links: tuple[Link, ...] = ()
    service_time: float = 20e-6
    codel_target: float = 50e-6
    codel_interval: float = 0.1
    name: str = "congestion"

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _normalize_links(self.links))
        super().__post_init__()
        _require(self.service_time > 0.0, "service_time must be > 0")
        _require(self.codel_target > 0.0, "codel_target must be > 0")
        _require(self.codel_interval > 0.0, "codel_interval must be > 0")
        _require(
            self.level is not None or len(self.links) > 0,
            "congestion adversary needs a level or explicit links",
        )
        if self.links:
            self._check_links(self.links, None)

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        super().validate(num_ranks, num_nodes, horizon)
        if self.links:
            self._check_links(self.links, num_ranks)
        return self


@dataclass(frozen=True)
class RegionTopologyAdversary(_AdversaryBase):
    """Region-tiered topology: NA/EU/AS-style latency classes.

    Nodes are partitioned into ``regions`` (``"blocked"``: contiguous
    node ranges; ``"round_robin"``: node i → region i mod k), and every
    inter-node message between *different* regions gains
    ``cross_latency`` seconds of one-way latency — the WAN gap that
    turns a flat cluster into a geo-distributed one.  ``pair_latency``
    overrides specific region pairs (key ``"A|B"`` with the names
    sorted), e.g. making NA↔AS slower than NA↔EU.  Priced by
    :class:`~repro.scenarios.apply.AdversaryInjector` within the active
    window, on REMOTE (inter-node) traffic only.
    """

    kind: ClassVar[str] = "region_topology"
    regions: tuple[str, ...] = ("NA", "EU", "AS")
    assignment: str = "blocked"
    cross_latency: float = 30e-3
    pair_latency: tuple[tuple[str, float], ...] = ()
    name: str = "region_topology"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "regions", tuple(str(r) for r in self.regions)
        )
        object.__setattr__(
            self,
            "pair_latency",
            tuple((str(k), float(v)) for k, v in self.pair_latency),
        )
        super().__post_init__()
        _require(len(self.regions) >= 2, "need at least two regions")
        _require(
            len(set(self.regions)) == len(self.regions),
            "region names must be unique",
        )
        _require(
            self.assignment in ("blocked", "round_robin"),
            f"unknown region assignment {self.assignment!r}",
        )
        _require(self.cross_latency >= 0.0, "cross_latency must be >= 0")
        known = set(self.regions)
        for key, value in self.pair_latency:
            parts = key.split("|")
            _require(
                len(parts) == 2 and parts[0] < parts[1],
                f"pair_latency key must be 'A|B' with A < B: {key!r}",
            )
            _require(
                parts[0] in known and parts[1] in known,
                f"pair_latency key names unknown regions: {key!r}",
            )
            _require(value >= 0.0, f"pair latency must be >= 0: {key!r}")
        _require(
            self.cross_latency > 0.0
            or any(v > 0.0 for _, v in self.pair_latency),
            "region adversary must price something",
        )

    def region_of(self, node: int, num_nodes: int) -> str:
        """The region node ``node`` belongs to under this assignment."""
        k = len(self.regions)
        if self.assignment == "round_robin":
            return self.regions[node % k]
        # blocked: contiguous, nearly equal-size ranges.
        return self.regions[min(k - 1, node * k // max(1, num_nodes))]

    def latency_between(self, region_a: str, region_b: str) -> float:
        """Extra one-way latency between two regions (0 within one)."""
        if region_a == region_b:
            return 0.0
        key = "|".join(sorted((region_a, region_b)))
        for k, v in self.pair_latency:
            if k == key:
                return v
        return self.cross_latency


@dataclass(frozen=True)
class ChurnAdversary(_AdversaryBase):
    """Rank churn mid-campaign: the topology changes between rounds.

    Mid-run membership change would deadlock MPI collectives (there is
    no fault-tolerant MPI in the simulator), so churn acts at the
    campaign level — each round of a scenario cell is one simulated
    ``mpirun``, and this adversary reshapes the machine between rounds:

    * ``"flap"`` — every ``period`` rounds the job alternates between
      the base node count and ``base - drop`` (nodes leaving and
      rejoining).
    * ``"shrink"`` — ``drop`` nodes leave every ``period`` rounds,
      floored at ``min_nodes``.
    * ``"grow"`` — the job starts at ``min_nodes`` and gains ``drop``
      nodes every ``period`` rounds, capped at the base count.

    Sync state never survives a churn event: each round resynchronizes
    from scratch on the new topology, which is exactly the cost the
    degradation tables surface.
    """

    kind: ClassVar[str] = "churn"
    mode: str = "flap"
    period: int = 1
    drop: int = 1
    min_nodes: int = 2
    name: str = "churn"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.mode in ("flap", "shrink", "grow"),
            f"unknown churn mode {self.mode!r}",
        )
        _require(self.period >= 1, "churn period must be >= 1")
        _require(self.drop >= 1, "churn drop must be >= 1")
        _require(self.min_nodes >= 1, "churn min_nodes must be >= 1")

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        super().validate(num_ranks, num_nodes, horizon)
        if num_nodes is not None and self.min_nodes > num_nodes:
            raise ConfigurationError(
                f"adversary {self.kind!r} keeps min {self.min_nodes} "
                f"nodes, but the job only has {num_nodes}"
            )
        return self

    def nodes_at(self, round_idx: int, base_nodes: int) -> int:
        """Node count for campaign round ``round_idx`` (0-based)."""
        steps = round_idx // self.period
        if self.mode == "flap":
            if steps % 2 == 0:
                return base_nodes
            return max(self.min_nodes, base_nodes - self.drop)
        if self.mode == "shrink":
            return max(self.min_nodes, base_nodes - steps * self.drop)
        # grow
        return min(base_nodes, self.min_nodes + steps * self.drop)


Adversary = Union[
    ByzantineClockAdversary,
    DelayAttackAdversary,
    CongestionAdversary,
    RegionTopologyAdversary,
    ChurnAdversary,
]

ADVERSARY_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        ByzantineClockAdversary,
        DelayAttackAdversary,
        CongestionAdversary,
        RegionTopologyAdversary,
        ChurnAdversary,
    )
}


def adversary_from_dict(data: dict) -> Adversary:
    """Reconstruct an adversary from its ``to_dict`` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    try:
        cls = ADVERSARY_TYPES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary kind {kind!r}; known: "
            f"{sorted(ADVERSARY_TYPES)}"
        ) from None
    if "pair_latency" in payload:
        payload["pair_latency"] = tuple(
            (k, v) for k, v in payload["pair_latency"]
        )
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad fields for {kind!r}: {exc}"
        ) from None
