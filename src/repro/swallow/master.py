"""Swallow master: aggregates cluster state, makes scheduling decisions.

The master (paper §III-B) receives coflow information from drivers and
periodic measurements from worker daemons, and answers ``scheduling()``
requests with an FVDF-ordered plan: which coflow first (Shortest-``Γ_C``-
First with priority classes), which flows to compress (Pseudocode 1), and
the minimal rates ``r = V/Γ_C`` (Pseudocode 2 line 29).

The master reasons *only* over the information it was sent — coflow sizes
and daemon measurements — exactly like the real master, which cannot see
into the fabric.  The physical outcome of its plan is produced by the
simulation engine, which the :class:`~repro.swallow.context.SwallowContext`
drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compression.engine import CompressionEngine
from repro.core.fvdf import DEFAULT_LOGBASE
from repro.errors import ProtocolError
from repro.swallow.messages import CoflowInfo, CoflowRef, MeasurementMsg, SchResult
from repro.swallow.transport import MessageBus


@dataclass
class _Registered:
    info: CoflowInfo
    ref: CoflowRef
    priority_class: float = 1.0


class SwallowMaster:
    """The central decision maker.

    Parameters
    ----------
    bus:
        Message bus; the master subscribes to daemon measurements on topic
        ``"master/measurement"``.
    compression:
        Compression engine (None disables compression decisions — the
        ``swallow.smartCompress=false`` configuration).
    link_bandwidth:
        The fabric's per-port bandwidth, used for Eq. 3 and Γ estimates.
    """

    def __init__(
        self,
        bus: MessageBus,
        link_bandwidth: float,
        compression: Optional[CompressionEngine] = None,
        logbase: float = DEFAULT_LOGBASE,
    ):
        self.bus = bus
        self.link_bandwidth = link_bandwidth
        self.compression = compression
        self.logbase = logbase
        #: Observability: shared with the bus so master decisions land in
        #: the same trace as engine records.
        self.obs = bus.obs
        self._coflows: Dict[int, _Registered] = {}
        self._next_id = 0
        self._measurements: Dict[int, MeasurementMsg] = {}
        bus.subscribe("master/measurement", self._on_measurement)

    def _now(self) -> float:
        return self.bus.clock() if self.bus.clock is not None else -1.0

    # ------------------------------------------------------------- protocol
    def _on_measurement(self, msg: MeasurementMsg) -> None:
        self._measurements[msg.node] = msg

    def free_cores(self, node: int) -> int:
        """Latest daemon-reported free cores (optimistic default: 1)."""
        m = self._measurements.get(node)
        return m.free_cores if m is not None else 1

    def add(self, info: CoflowInfo) -> CoflowRef:
        """Register a coflow; upgrade everyone else's priority class."""
        self._upgrade()
        ref = CoflowRef(coflow_id=self._next_id, label=info.label)
        self._next_id += 1
        self._coflows[ref.coflow_id] = _Registered(info=info, ref=ref)
        return ref

    def remove(self, ref: CoflowRef) -> None:
        """Unregister a completed coflow; upgrade the survivors."""
        if ref.coflow_id not in self._coflows:
            raise ProtocolError(f"remove() of unknown coflow {ref.coflow_id}")
        del self._coflows[ref.coflow_id]
        self._upgrade()

    def _upgrade(self) -> None:
        """Pseudocode 3 Upgrade, triggered at arrivals and completions."""
        for reg in self._coflows.values():
            reg.priority_class *= self.logbase
        if self._coflows:
            self.obs.metrics.counter("master.upgrades").inc(len(self._coflows))

    # ------------------------------------------------------------- decisions
    def _beta(self, flow) -> bool:
        """Pseudocode 1 over reported information."""
        if self.compression is None or not flow.compressible:
            return False
        if self.free_cores(flow.src) <= 0:
            return False
        xi = (
            flow.ratio_override
            if flow.ratio_override is not None
            else self.compression.ratio(flow.size)
        )
        return self.compression.speed * (1.0 - xi) > self.link_bandwidth

    def gamma(self, info: CoflowInfo) -> float:
        """Expected CCT from reported information: the coflow's bottleneck
        completion time (Eq. 8) — the busiest port's bytes over the link
        bandwidth, which dominates the single-flow estimate whenever flows
        share an endpoint."""
        in_load: Dict[int, float] = {}
        out_load: Dict[int, float] = {}
        for f in info.flows:
            in_load[f.src] = in_load.get(f.src, 0.0) + f.size
            out_load[f.dst] = out_load.get(f.dst, 0.0) + f.size
        busiest = max(max(in_load.values()), max(out_load.values()))
        return busiest / self.link_bandwidth

    def scheduling(self, refs: List[CoflowRef]) -> SchResult:
        """Rank the given coflows and decide compression and minimal rates."""
        regs = []
        for ref in refs:
            reg = self._coflows.get(ref.coflow_id)
            if reg is None:
                raise ProtocolError(f"scheduling() over unknown coflow {ref.coflow_id}")
            regs.append(reg)
        regs.sort(key=lambda r: self.gamma(r.info) / r.priority_class)
        flt = self.obs.recorder
        if flt.enabled:
            flt.emit(
                self._now(),
                "master_order",
                units=[
                    [
                        r.ref.coflow_id,
                        self.gamma(r.info),
                        r.priority_class,
                        self.gamma(r.info) / r.priority_class,
                    ]
                    for r in regs
                ],
            )
        compress: Dict[int, bool] = {}
        rates: Dict[int, float] = {}
        for reg in regs:
            g = self.gamma(reg.info)
            for f in reg.info.flows:
                compress[f.flow_id] = self._beta(f)
                rates[f.flow_id] = f.size / g if g > 0 else self.link_bandwidth
        return SchResult(
            order=tuple(r.ref.coflow_id for r in regs),
            compress=compress,
            rates=rates,
        )

    @property
    def registered(self) -> int:
        return len(self._coflows)
