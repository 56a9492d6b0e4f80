"""Swallow worker: executor hook and per-node block store.

Workers (paper §III-B) do two things here:

* the **hook** captures intermediate data when the framework invokes a
  network transfer (e.g. a Spark shuffle), producing ``flowInfo`` records;
* the **block store** holds serialized blocks between ``push()`` and
  ``pull()``, optionally running the payload through a real codec so the
  byte-level path is exercised too.

The paper's third worker duty, the daemon that reports node status to the
master, has no counterpart: the engine reads free cores straight from its
:class:`~repro.cpu.cores.CpuModel`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.flow import Flow
from repro.errors import ProtocolError
from repro.swallow.messages import BlockId, CoflowRef, FlowInfo


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
    """One worker process: the block store of its node."""

    def __init__(self, node: int, real_compression: bool = False):
        self.node = node
        self.real_compression = real_compression
        self._blocks: Dict[Tuple[int, int], Tuple[bytes, bool]] = {}

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
