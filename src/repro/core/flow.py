"""Flow: the unit of network transfer.

A flow is a point-to-point transfer between an ingress port (sender machine)
and an egress port (receiver machine) of the big-switch fabric.  Following
the paper's *volume disposal* abstraction (Section IV-A1), the remaining
work of a flow is a continuous *volume* ``V = d + D`` where

* ``d`` (:attr:`Flow.raw`) is data that is still uncompressed, and
* ``D`` (:attr:`Flow.comp`) is data that has been compressed but not yet
  transmitted.

Compression moves bytes from ``raw`` to ``comp`` at the codec speed ``R``,
shrinking them by the codec ratio ``xi`` on the way (net volume drain
``R * (1 - xi)`` — Eq. 1).  Transmission drains ``comp`` first, then ``raw``,
at the allocated rate (Eq. 2).  A flow completes when its volume reaches
zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError

_flow_ids = itertools.count()


def _next_flow_id() -> int:
    return next(_flow_ids)


def ensure_flow_ids_above(value: int) -> None:
    """Advance the global flow-id counter past ``value``.

    Checkpoint restore (:mod:`repro.service.checkpoint`) brings flows with
    explicit ids into a process whose counter may lag behind them; bumping
    the counter keeps ids of subsequently created flows unique.
    """
    global _flow_ids
    nxt = next(_flow_ids)
    _flow_ids = itertools.count(max(nxt, int(value) + 1))


def flow_id_watermark() -> int:
    """The next flow id that would be assigned (without consuming it)."""
    global _flow_ids
    nxt = next(_flow_ids)
    _flow_ids = itertools.count(nxt)
    return nxt


def reserve_flow_ids(n: int) -> int:
    """Consume ``n`` consecutive flow ids and return the first one.

    The block-columnar ingest path (:mod:`repro.core.ingest`) assigns flow
    ids from arrays instead of constructing :class:`Flow` objects; drawing
    a contiguous block keeps those ids identical to what ``n`` successive
    ``Flow()`` constructions would have produced.
    """
    global _flow_ids
    first = next(_flow_ids)
    _flow_ids = itertools.count(first + int(n))
    return first


@dataclass
class Flow:
    """A single flow of a coflow.

    Parameters
    ----------
    src:
        Ingress port index (sender machine) on the big-switch fabric.
    dst:
        Egress port index (receiver machine).
    size:
        Original (uncompressed) size in bytes.
    arrival:
        Arrival time in seconds.  A :class:`~repro.core.coflow.Coflow`
        stamps its own on its flows, and the engine always takes a
        member flow's arrival from its coflow's current ``arrival``.
    compressible:
        Whether the payload may be compressed at all (Pseudocode 1 line 3).
        Pre-compressed or encrypted payloads should set this to ``False``.
    ratio_override:
        Optional payload-specific compression ratio in ``(0, 1)``, taking
        precedence over the codec's size-dependent model.  Used to carry the
        per-application compressibility of Table I (e.g. Sort shuffles
        compress to ~25%, Logistic Regression only to ~75%).
    flow_id:
        Stable identifier; auto-assigned when omitted.
    """

    src: int
    dst: int
    size: float
    arrival: float = 0.0
    compressible: bool = True
    ratio_override: Optional[float] = None
    flow_id: int = field(default_factory=_next_flow_id)
    coflow_id: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.size < math.inf:
            kind = "positive" if self.size <= 0 else "finite"
            raise ConfigurationError(f"flow size must be {kind}, got {self.size}")
        if self.ratio_override is not None and not 0 < self.ratio_override < 1:
            raise ConfigurationError(
                f"ratio_override must lie in (0, 1), got {self.ratio_override}"
            )
        if self.src < 0 or self.dst < 0:
            raise ConfigurationError(
                f"ports must be non-negative, got src={self.src} dst={self.dst}"
            )
        if not 0 <= self.arrival < math.inf:
            kind = ">= 0" if self.arrival < 0 else "finite"
            raise ConfigurationError(f"arrival must be {kind}, got {self.arrival}")

    def __hash__(self) -> int:  # flows are identity-keyed by id
        return hash(self.flow_id)


@dataclass
class FlowResult:
    """Per-flow outcome of a simulation run.

    Attributes
    ----------
    finish:
        Observed completion time (the slice boundary at which the master
        learns the flow is done).  This is the time coflow/job logic acts on
        and the default used by metrics; the gap to :attr:`finish_physical`
        is the "time-slice waste" the paper discusses in Section VI-A1.
    finish_physical:
        Instant at which the last byte actually drained.
    bytes_sent:
        Bytes that crossed the wire (compressed payload counts at its
        compressed size), for traffic accounting (Table VII).
    bytes_compressed_in:
        Raw bytes that went through the compressor.
    bytes_compressed_out:
        Compressed bytes that crossed the wire (need decompressing).
    decompress_time:
        Receiver-side decompression time for those bytes.  The paper omits
        it from FCT because decompression is several times faster than
        compression; we account it so that omission is *quantified* (see
        ``bench_ablation_decompression.py``) rather than assumed.
    """

    flow_id: int
    coflow_id: Optional[int]
    src: int
    dst: int
    size: float
    arrival: float
    start: float
    finish: float
    finish_physical: float
    bytes_sent: float
    bytes_compressed_in: float
    bytes_compressed_out: float = 0.0
    decompress_time: float = 0.0

    @property
    def fct(self) -> float:
        """Flow completion time: observed finish minus arrival."""
        return self.finish - self.arrival

    @property
    def fct_with_decompression(self) -> float:
        """FCT including receiver-side decompression (the paper omits it)."""
        return self.fct + self.decompress_time

    @property
    def traffic_saved(self) -> float:
        """Bytes kept off the wire by compression."""
        return self.size - self.bytes_sent
