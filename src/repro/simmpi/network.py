"""LogGP-flavoured network model with per-level parameters.

Message transfer time between two processes is::

    delay = latency(level) + size / bandwidth(level) + jitter(level)

where ``level`` classifies the pair by topological distance (same core,
same socket, same node, different node).  Jitter is a shifted-exponential
draw — a light-tailed body with occasional large outliers (congestion/OS
noise), controlled by ``outlier_prob``/``outlier_scale``.  These outliers
are what invalidates window-based measurements in the paper's discussion
(Section II) and what the Round-Time scheme recovers from.

Sender- and receiver-side CPU overheads (``o_send``/``o_recv``) are charged
to the calling process's time line by the engine, matching the LogGP "o"
parameter.

Randomness contract: every stochastic term is derived from *uniform*
variates by explicit inverse-CDF transforms (``Exp(s) = -s·log1p(-U)``),
consuming exactly one uniform per variate.  The engine feeds these from
chunked :class:`~repro.simmpi.rngpool.UniformPool` buffers; the scalar
:meth:`NetworkModel.delay` entry point consumes the same one-uniform-per-
variate pattern straight from a generator, so pooled and scalar execution
produce bit-identical delay sequences for the same seed.

Message-size validation happens where messages are *constructed*
(:class:`~repro.simmpi.engine.SendCmd` rejects negative sizes), not here:
``delay`` is the per-message hot path and stays branch-minimal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import log1p

import numpy as np

from repro.simmpi.rngpool import UniformPool

#: Entries kept in the per-model ``(level, size) -> base delay`` cache
#: before it is reset.  Sync workloads use a handful of distinct message
#: sizes, so the cache almost never cycles; the bound only guards against
#: adversarial size churn growing memory without limit.
_BASE_CACHE_LIMIT = 4096


class Level(enum.IntEnum):
    """Topological distance between two communicating processes."""

    SELF = 0
    SOCKET = 1
    NODE = 2
    REMOTE = 3


@dataclass(frozen=True)
class LinkParams:
    """Latency/bandwidth/jitter parameters for one topology level.

    Attributes
    ----------
    latency:
        Base one-way latency in seconds (half the zero-jitter ping-pong RTT).
    bandwidth:
        Bytes per second.
    jitter_scale:
        Mean of the exponential jitter term, in seconds.
    outlier_prob:
        Probability that a message additionally suffers an outlier delay.
    outlier_scale:
        Mean of the (exponential) outlier delay, in seconds.
    """

    latency: float
    bandwidth: float
    jitter_scale: float = 0.0
    outlier_prob: float = 0.0
    outlier_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        if self.jitter_scale < 0 or self.outlier_scale < 0:
            raise ValueError("jitter scales must be >= 0")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError("outlier_prob must be in [0, 1]")


@dataclass
class NetworkModel:
    """Per-level link parameters plus CPU send/recv overheads.

    ``levels`` maps each :class:`Level` to its :class:`LinkParams`; missing
    levels fall back to the next-coarser defined level (e.g. a model that
    only defines NODE and REMOTE treats SOCKET/SELF traffic as NODE).
    """

    levels: dict[Level, LinkParams]
    o_send: float = 0.2e-6
    o_recv: float = 0.2e-6
    #: Per-message serialization gap at a node's NIC (LogGP's g), applied
    #: to inter-node traffic on both the egress and the ingress side.  This
    #: is what makes "all ranks of a node communicate off-node at once"
    #: (dissemination/recursive-doubling barriers) slower and more skewed
    #: than leader-only patterns (binomial tree) — the Fig. 7/8 effect.
    nic_gap: float = 0.0
    #: Mean of an additional exponential delay applied per message already
    #: queued at the NIC when a message is injected.  Loaded links do not
    #: just serialize — their delay *variance* grows with backlog
    #: (queueing/congestion), which is what spreads barrier exits apart in
    #: all-ranks communication rounds.
    congestion_jitter: float = 0.0
    name: str = "generic"
    _resolved: dict[Level, LinkParams] = field(init=False, repr=False)
    #: Per-level hot-path parameters, indexed by ``int(level)``:
    #: ``(latency, 1/bandwidth, jitter_scale, outlier_prob, outlier_scale)``.
    _fast: list[tuple[float, float, float, float, float]] = field(
        init=False, repr=False
    )
    #: Bounded ``(level, size) -> latency + size/bandwidth`` cache.
    _base_cache: dict[tuple[int, int], float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("NetworkModel needs at least one level")
        if self.o_send < 0 or self.o_recv < 0:
            raise ValueError("overheads must be >= 0")
        resolved: dict[Level, LinkParams] = {}
        fallback: LinkParams | None = None
        # Walk from coarsest to finest so finer levels inherit coarser params.
        for level in sorted(Level, reverse=True):
            if level in self.levels:
                fallback = self.levels[level]
            if fallback is None:
                # No coarser level defined; use the finest defined one later.
                continue
            resolved[level] = fallback
        finest_defined = self.levels[min(self.levels)]
        for level in Level:
            resolved.setdefault(level, finest_defined)
        self._resolved = resolved
        self._fast = [
            (
                resolved[level].latency,
                1.0 / resolved[level].bandwidth,
                resolved[level].jitter_scale,
                resolved[level].outlier_prob,
                resolved[level].outlier_scale,
            )
            for level in sorted(Level)
        ]
        self._base_cache = {}

    def params_for(self, level: Level) -> LinkParams:
        """The effective link parameters for a topology level."""
        return self._resolved[level]

    def base_delay(self, level: Level, size: int) -> float:
        """Deterministic wire time ``latency + size/bandwidth``, cached.

        The cache is keyed by ``(level, size)`` and bounded (it resets
        after ``_BASE_CACHE_LIMIT`` distinct keys); sync workloads reuse a
        handful of sizes, so the division is paid once per size.
        """
        key = (level, size)
        cache = self._base_cache
        base = cache.get(key)
        if base is None:
            if len(cache) >= _BASE_CACHE_LIMIT:
                cache.clear()
            lat, inv_bw, _, _, _ = self._fast[level]
            base = lat + size * inv_bw
            cache[key] = base
        return base

    def delay(self, level: Level, size: int, rng: np.random.Generator) -> float:
        """Draw the wire time of one ``size``-byte message at ``level``.

        Scalar reference path: consumes one ``rng.random()`` per variate
        in the same order as :meth:`delay_from_pool`, so a pool wrapped
        around an identically seeded generator yields the same delays.
        ``size`` is validated at :class:`~repro.simmpi.engine.SendCmd`
        construction, not here.
        """
        _, _, jitter, outlier_prob, outlier_scale = self._fast[level]
        d = self.base_delay(level, size)
        if jitter > 0.0:
            d += jitter * -log1p(-rng.random())
        if outlier_prob > 0.0 and rng.random() < outlier_prob:
            d += outlier_scale * -log1p(-rng.random())
        return d

    def delay_from_pool(
        self, level: Level, size: int, pool: UniformPool
    ) -> float:
        """Pooled hot-path twin of :meth:`delay` (same variate order)."""
        _, _, jitter, outlier_prob, outlier_scale = self._fast[level]
        d = self.base_delay(level, size)
        if jitter > 0.0:
            d += jitter * -log1p(-pool.next())
        if outlier_prob > 0.0 and pool.next() < outlier_prob:
            d += outlier_scale * -log1p(-pool.next())
        return d

    def expected_delay(self, level: Level, size: int) -> float:
        """Mean wire time (used by latency estimators, not the engine)."""
        p = self._resolved[level]
        return (
            p.latency
            + size / p.bandwidth
            + p.jitter_scale
            + p.outlier_prob * p.outlier_scale
        )
