"""Swallow worker: per-node daemon, executor hook and block store.

Workers (paper §III-B) do three things:

* the **daemon** periodically measures node status (CPU, free cores,
  bandwidth headroom) and ships it to the master;
* the **hook** captures intermediate data when the framework invokes a
  network transfer (e.g. a Spark shuffle), producing ``flowInfo`` records;
* the **block store** holds serialized blocks between ``push()`` and
  ``pull()``, optionally running the payload through a real codec so the
  byte-level path is exercised too.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.flow import Flow
from repro.cpu.cores import CpuModel
from repro.errors import ProtocolError
from repro.swallow.messages import BlockId, CoflowRef, FlowInfo, MeasurementMsg
from repro.swallow.transport import MessageBus


@dataclass
class Executor:
    """A framework executor with transfers waiting to happen.

    In the Spark integration this is the executor whose shuffle-map output
    awaits fetching; ``hook()`` reads its pending flows.
    """

    node: int
    pending_flows: List[Flow] = field(default_factory=list)


def hook_executor(executor: Executor) -> List[FlowInfo]:
    """The hook(): capture flowInfo from an executor's pending transfers."""
    return [
        FlowInfo(
            flow_id=f.flow_id,
            src=f.src,
            dst=f.dst,
            size=f.size,
            compressible=f.compressible,
            ratio_override=f.ratio_override,
        )
        for f in executor.pending_flows
    ]


class SwallowWorker:
    """One worker process: daemon + block store for its node."""

    def __init__(self, node: int, bus: MessageBus, real_compression: bool = False):
        self.node = node
        self.bus = bus
        self.real_compression = real_compression
        self._blocks: Dict[Tuple[int, int], Tuple[bytes, bool]] = {}

    # ------------------------------------------------------------- daemon
    def report(self, cpu: CpuModel, t: float, bandwidth_free: float) -> MeasurementMsg:
        """Measure and publish one daemon heartbeat."""
        msg = MeasurementMsg(
            node=self.node,
            time=t,
            cpu_busy=float(cpu.busy_fraction(t)[self.node]),
            free_cores=int(cpu.free_cores(t)[self.node]),
            bandwidth_free=bandwidth_free,
        )
        flt = self.bus.obs.recorder
        if flt.enabled:
            flt.emit(t, "heartbeat", node=self.node, free_cores=msg.free_cores)
        self.bus.publish("master/measurement", msg)
        return msg

    # ---------------------------------------------------------- block store
    def store_block(
        self, ref: CoflowRef, block_id: BlockId, payload: bytes, compress: bool
    ) -> Tuple[int, bool]:
        """Store an outgoing block, compressing for real when asked.

        Returns (stored size, compressed?).  With ``real_compression`` the
        payload goes through zlib — a genuine byte-level codec standing in
        for LZ4 — so pull() exercises real decompression.
        """
        if compress and self.real_compression:
            data, compressed = zlib.compress(payload, 1), True
        else:
            data, compressed = payload, False
        self._blocks[(ref.coflow_id, block_id.value)] = (data, compressed)
        return len(data), compressed

    def fetch_block(self, ref: CoflowRef, block_id: BlockId) -> bytes:
        """Retrieve and (if needed) decompress a block for the receiver."""
        key = (ref.coflow_id, block_id.value)
        try:
            data, compressed = self._blocks.pop(key)
        except KeyError:
            raise ProtocolError(
                f"pull() of unknown block {block_id.value} in coflow {ref.coflow_id}"
            ) from None
        return zlib.decompress(data) if compressed else data

    @property
    def stored_blocks(self) -> int:
        return len(self._blocks)
