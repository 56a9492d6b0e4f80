"""Swallow master: registers coflows and aggregates daemon measurements.

The master (paper §III-B) receives coflow information from drivers and
periodic measurements from worker daemons.  The scheduling decision
itself — FVDF's order, β and rates — is made by the engine's
:class:`~repro.core.fvdf.FVDFScheduler`, the one implementation of
Eq. 3, Eq. 7–8 and Pseudocode 1–3; the
:class:`~repro.swallow.context.SwallowContext` returns that decision from
``scheduling()``.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ProtocolError
from repro.swallow.messages import CoflowInfo, CoflowRef, MeasurementMsg
from repro.swallow.transport import MessageBus


class SwallowMaster:
    """The coflow registry and the daemons' measurement sink.

    Parameters
    ----------
    bus:
        Message bus; the master subscribes to daemon measurements on topic
        ``"master/measurement"``.
    """

    def __init__(self, bus: MessageBus):
        self.bus = bus
        self._coflows: Dict[int, CoflowInfo] = {}
        self._next_id = 0
        self._measurements: Dict[int, MeasurementMsg] = {}
        bus.subscribe("master/measurement", self._on_measurement)

    # ------------------------------------------------------------- protocol
    def _on_measurement(self, msg: MeasurementMsg) -> None:
        self._measurements[msg.node] = msg

    def free_cores(self, node: int) -> int:
        """Latest daemon-reported free cores (optimistic default: 1)."""
        m = self._measurements.get(node)
        return m.free_cores if m is not None else 1

    def add(self, info: CoflowInfo) -> CoflowRef:
        """Register a coflow and hand out its reference."""
        ref = CoflowRef(coflow_id=self._next_id, label=info.label)
        self._next_id += 1
        self._coflows[ref.coflow_id] = info
        return ref

    def remove(self, ref: CoflowRef) -> None:
        """Unregister a completed coflow."""
        if self._coflows.pop(ref.coflow_id, None) is None:
            raise ProtocolError(f"remove() of unknown coflow {ref.coflow_id}")

    @property
    def registered(self) -> int:
        return len(self._coflows)
