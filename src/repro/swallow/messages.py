"""The records of the Table IV API (paper §V-B).

These mirror the objects the Scala implementation ships over Akka:
``flowInfo``/``coflowInfo`` flowing driver→master, ``schResult`` flowing
to the cluster manager, and the block-level push envelope.  Here they are
plain dataclasses passed to and returned from
:class:`~repro.swallow.context.SwallowContext` calls in one process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

_block_seq = itertools.count()


@dataclass(frozen=True)
class FlowInfo:
    """What a worker's hook() captures about one pending flow."""

    flow_id: int
    src: int
    dst: int
    size: float
    compressible: bool = True
    ratio_override: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError("FlowInfo.size must be positive")


@dataclass(frozen=True)
class CoflowInfo:
    """Aggregated flow information for one coflow (driver → master)."""

    flows: Tuple[FlowInfo, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.flows:
            raise ConfigurationError("CoflowInfo needs at least one flow")

    @property
    def size(self) -> float:
        return sum(f.size for f in self.flows)

    @property
    def width(self) -> int:
        return len(self.flows)


@dataclass(frozen=True)
class CoflowRef:
    """Handle returned by add(); the key for push/pull/remove."""

    coflow_id: int
    label: str = ""


@dataclass(frozen=True)
class SchResult:
    """The FVDF decision: scheduling order, β per flow, rate per flow."""

    order: Tuple[int, ...]  # coflow ids, highest priority first
    compress: Dict[int, bool]  # flow_id -> β
    rates: Dict[int, float]  # flow_id -> granted bytes/s
    gamma: Dict[int, float] = field(default_factory=dict)  # coflow id -> Γ_C
    priority: Dict[int, float] = field(default_factory=dict)  # coflow id -> P

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.rates.values()):
            raise ConfigurationError("SchResult rates must be non-negative")


@dataclass(frozen=True)
class BlockId:
    """Unique block identifier generated by the sender."""

    value: int = field(default_factory=lambda: next(_block_seq))


@dataclass(frozen=True)
class PushMsg:
    """Sender → fabric: one block of (possibly compressed) data."""

    coflow: CoflowRef
    block_id: BlockId
    payload_size: float
    compressed: bool
