"""Coflow: a set of parallel flows with collective semantics.

A coflow (Chowdhury & Stoica, HotNets'12) completes only when *all* of its
flows complete; its completion time (CCT) is the maximum FCT of its members
(Eq. 8).  Coflows are the scheduling unit of SEBF, SCF, NCF, LCF and FVDF.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.flow import Flow, FlowResult
from repro.errors import ConfigurationError

_coflow_ids = itertools.count()


def _next_coflow_id() -> int:
    return next(_coflow_ids)


def ensure_coflow_ids_above(value: int) -> None:
    """Advance the global coflow-id counter past ``value``.

    Mirror of :func:`repro.core.flow.ensure_flow_ids_above`, for coflows
    restored from a checkpoint with explicit ids.
    """
    global _coflow_ids
    nxt = next(_coflow_ids)
    _coflow_ids = itertools.count(max(nxt, int(value) + 1))


def coflow_id_watermark() -> int:
    """The next coflow id that would be assigned (without consuming it)."""
    global _coflow_ids
    nxt = next(_coflow_ids)
    _coflow_ids = itertools.count(nxt)
    return nxt


def reserve_coflow_ids(n: int) -> int:
    """Consume ``n`` consecutive coflow ids and return the first one.

    Mirror of :func:`repro.core.flow.reserve_flow_ids` for the
    block-columnar ingest path, which stamps coflow ids from arrays
    without constructing :class:`Coflow` objects.
    """
    global _coflow_ids
    first = next(_coflow_ids)
    _coflow_ids = itertools.count(first + int(n))
    return first


@dataclass
class Coflow:
    """A coflow: flows that belong to the same computing stage.

    Parameters
    ----------
    flows:
        Member flows.  Their ``coflow_id`` and ``arrival`` are stamped from
        this coflow on construction.
    arrival:
        Coflow arrival time in seconds (e.g. when the shuffle stage starts).
    label:
        Human-readable tag (job/stage name) used in reports.
    deadline:
        Optional completion deadline in seconds *after arrival* — used by
        the deadline-aware schedulers (a Varys-style extension; the paper's
        FVDF ignores it).
    """

    flows: List[Flow]
    arrival: float = 0.0
    label: str = ""
    deadline: Optional[float] = None
    coflow_id: int = field(default_factory=_next_coflow_id)

    def __post_init__(self) -> None:
        if not self.flows:
            raise ConfigurationError("a coflow must contain at least one flow")
        if not 0 <= self.arrival < math.inf:
            kind = ">= 0" if self.arrival < 0 else "finite"
            raise ConfigurationError(f"arrival must be {kind}, got {self.arrival}")
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            kind = "positive" if self.deadline <= 0 else "finite"
            raise ConfigurationError(f"deadline must be {kind}, got {self.deadline}")
        for f in self.flows:
            f.coflow_id = self.coflow_id
            f.arrival = self.arrival

    def __hash__(self) -> int:
        return hash(self.coflow_id)

    def __len__(self) -> int:
        return len(self.flows)

    @property
    def size(self) -> float:
        """Total bytes across all member flows."""
        return float(sum(f.size for f in self.flows))

    @property
    def width(self) -> int:
        """Number of member flows (the coflow's parallelism)."""
        return len(self.flows)

    @property
    def ports(self) -> frozenset:
        """All (kind, index) port endpoints this coflow touches."""
        eps = set()
        for f in self.flows:
            eps.add(("in", f.src))
            eps.add(("out", f.dst))
        return frozenset(eps)

    def bottleneck_load(self, ingress_cap: Sequence[float], egress_cap: Sequence[float]) -> float:
        """Effective bottleneck completion time of this coflow run alone.

        This is Varys' ``Γ`` used by SEBF: the maximum, over ports, of the
        coflow's bytes on that port divided by the port capacity.
        """
        in_load: Dict[int, float] = {}
        out_load: Dict[int, float] = {}
        for f in self.flows:
            in_load[f.src] = in_load.get(f.src, 0.0) + f.size
            out_load[f.dst] = out_load.get(f.dst, 0.0) + f.size
        gamma = 0.0
        for p, load in in_load.items():
            gamma = max(gamma, load / ingress_cap[p])
        for p, load in out_load.items():
            gamma = max(gamma, load / egress_cap[p])
        return gamma


@dataclass
class CoflowResult:
    """Per-coflow outcome of a simulation run."""

    coflow_id: int
    label: str
    arrival: float
    finish: float
    finish_physical: float
    size: float
    width: int
    bytes_sent: float
    flow_results: List[FlowResult]
    deadline: Optional[float] = None

    @property
    def cct(self) -> float:
        """Coflow completion time (observed)."""
        return self.finish - self.arrival

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the coflow met its deadline (None when it had none)."""
        if self.deadline is None:
            return None
        return self.cct <= self.deadline + 1e-9

    @property
    def traffic_saved(self) -> float:
        return self.size - self.bytes_sent


def total_size(coflows: Iterable[Coflow]) -> float:
    """Sum of sizes over coflows (convenience for workload stats)."""
    return float(sum(c.size for c in coflows))
