"""SwallowContext — the Table IV programming API.

This is the object cluster frameworks interact with (paper §V-B)::

    sc = SwallowContext(num_nodes=4, bandwidth=gbps(1))
    infos = sc.hook(executor)          # Driver
    cinfo = sc.aggregate(infos)        # Driver
    ref = sc.add(cinfo)                # Driver
    plan = sc.scheduling([ref])        # Driver
    sc.alloc(plan)                     # ClusterManager
    sc.push(ref, block_id, payload)    # Sender
    data = sc.pull(ref, block_id)      # Receiver
    sc.remove(ref)                     # Driver

Division of labour: the context registers coflows and hands out their
refs, the paper master's bookkeeping; the **engine** (a
:class:`~repro.core.simulator.SliceSimulator` running
:class:`~repro.core.fvdf.FVDFScheduler`) makes the scheduling decision and
carries the transfer out, and ``scheduling()`` returns that decision;
**workers** hold the actual block bytes between push and pull, optionally
compressing them for real.  The paper's Akka messages between these parts
are plain calls here.  ``pull()`` is time-decoupled as in the paper:
it drives the simulation forward until the requested block's coflow has
finished transferring, then hands over (and decompresses) the data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.fvdf import Decision, FVDFConfig, FVDFScheduler
from repro.core.simulator import SliceSimulator
from repro.cpu.cores import CpuModel
from repro.errors import ConfigurationError, ProtocolError
from repro.fabric.bigswitch import BigSwitch
from repro.swallow.messages import (
    BlockId,
    CoflowInfo,
    CoflowRef,
    FlowInfo,
    PushMsg,
    SchResult,
)
from repro.swallow.worker import Executor, SwallowWorker, hook_executor
from repro.units import gbps


#: The compression codec (LZ4, as Swallow ships), the cores of each node
#: and the engine's time slice.
CODEC = "lz4"
CORES_PER_NODE = 4
SLICE_LEN = 0.01


def _unit_coflows(d: Decision) -> np.ndarray:
    """Engine coflow id of each scheduling unit of the decision ``d``."""
    return d.coflow_ids[d.perm[d.starts[:-1]]]


@dataclass
class _Live:
    """One added coflow's state in the context; remove() drops it whole."""

    coflow: Coflow
    #: flows still waiting for a push, in registration order
    unpushed: List[Flow]
    #: block id -> flow, for blocks pushed and not yet pulled
    blocks: Dict[int, Flow] = field(default_factory=dict)
    #: the engine's finish time of the coflow, once its transfer is done
    finish: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.finish is not None


class SwallowContext:
    """A Swallow-enabled cluster in one object.

    Parameters
    ----------
    num_nodes:
        Machines (fabric ports / workers).
    bandwidth:
        Per-port link speed, bytes/s.
    smart_compress:
        The ``swallow.smartCompress`` option; ``False`` disables all
        compression decisions.
    real_compression:
        Also run pushed payload bytes through a real codec (zlib) so pull()
        exercises genuine decompression.
    obs:
        Observability bundle of the engine (default: disabled).
    """

    _instance: Optional["SwallowContext"] = None

    def __init__(
        self,
        num_nodes: int = 4,
        bandwidth: float = gbps(1),
        smart_compress: bool = True,
        real_compression: bool = False,
        obs=None,
    ):
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        self.cpu = CpuModel(num_nodes, cores_per_node=CORES_PER_NODE)
        self.engine = SliceSimulator(
            BigSwitch(num_nodes, bandwidth),
            FVDFScheduler(FVDFConfig(compress=smart_compress)),
            slice_len=SLICE_LEN,
            cpu=self.cpu,
            compression=CompressionEngine(CODEC) if smart_compress else None,
            obs=obs,
        )
        self.obs = self.engine.obs
        self.workers = [
            SwallowWorker(n, real_compression=real_compression)
            for n in range(num_nodes)
        ]
        self._next_ref = itertools.count()
        self._live: Dict[int, _Live] = {}  # ref id -> state
        self._ref_of: Dict[int, int] = {}  # engine coflow id -> ref id
        self.engine.on_coflow_complete(self._on_engine_complete)
        SwallowContext._instance = self

    # --------------------------------------------------------------- lifecycle
    @classmethod
    def get_instance(cls) -> "SwallowContext":
        """The singleton accessor from the paper's usage example."""
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    @classmethod
    def reset_instance(cls) -> None:
        cls._instance = None

    # ----------------------------------------------------------- Table IV API
    def hook(self, executor: Executor) -> List[FlowInfo]:
        """Capture flow information from an executor's pending transfers."""
        return hook_executor(executor)

    def aggregate(self, flow_infos: List[FlowInfo], label: str = "") -> CoflowInfo:
        """Merge flowInfo records into one coflowInfo."""
        return CoflowInfo(flows=tuple(flow_infos), label=label)

    def add(self, info: CoflowInfo) -> CoflowRef:
        """Register a coflow, submit it to the fabric and hand out its ref."""
        ref = CoflowRef(coflow_id=next(self._next_ref), label=info.label)
        flows = [
            Flow(
                src=f.src,
                dst=f.dst,
                size=f.size,
                compressible=f.compressible,
                ratio_override=f.ratio_override,
                flow_id=f.flow_id,
            )
            for f in info.flows
        ]
        coflow = Coflow(flows, arrival=self.engine.now, label=info.label)
        self.engine.submit(coflow)
        self._live[ref.coflow_id] = _Live(coflow, flows)
        self._ref_of[coflow.coflow_id] = ref.coflow_id
        return ref

    def remove(self, ref: CoflowRef) -> None:
        """Unregister a coflow once its transfer has completed."""
        live = self._state(ref, "remove")
        if not live.completed:
            raise ProtocolError(
                f"remove() before coflow {ref.coflow_id} completed transfer"
            )
        del self._live[ref.coflow_id]
        del self._ref_of[live.coflow.coflow_id]

    def scheduling(self, refs: List[CoflowRef]) -> SchResult:
        """The plan the engine runs, over the given coflows.

        The order and each coflow's ``Γ_C`` and ``P`` are the ranking of
        the engine's latest FVDF decision; β and the per-flow rates are
        the allocation in force.  If no decision has seen one of the
        coflows yet (it was just add()ed), the engine first steps one
        slice: the decision at ``now`` governs ``[now, now + slice_len)``,
        and a coflow add()ed *after* this call arrives one slice later.
        The step is a horizon of the engine's run: the same calls give the
        same CCTs on every run, but they need not equal, bit for bit, the
        CCTs of one uninterrupted ``run()`` of the same coflows.
        A coflow that has finished transferring appears in no field of
        the plan.
        """
        ref_of = {
            self._state(ref, "scheduling").coflow.coflow_id: ref.coflow_id
            for ref in refs
        }
        d = self.engine.scheduler.last
        seen = set() if d is None else set(_unit_coflows(d).tolist())
        if any(
            cid not in seen and not self._live[rid].completed
            for cid, rid in ref_of.items()
        ):
            self.engine.run(until=self.engine.now + self.engine.slice_len)
            d = self.engine.scheduler.last
        if d is None:
            return SchResult(order=(), compress={}, rates={})
        ids = list(ref_of)
        unit_cf = _unit_coflows(d)
        units = d.order[np.isin(unit_cf[d.order], ids)]
        order = tuple(ref_of[cid] for cid in unit_cf[units].tolist())
        flows = np.isin(d.coflow_ids, ids)
        fids = d.flow_ids[flows].tolist()
        return SchResult(
            order=order,
            compress=dict(zip(fids, d.beta[flows].tolist())),
            rates=dict(zip(fids, d.rates[flows].tolist())),
            gamma=dict(zip(order, d.gamma[units].tolist())),
            priority=dict(zip(order, d.priority[units].tolist())),
        )

    def alloc(self, plan: SchResult) -> None:
        """Cluster-manager step: a no-op.

        The plan is the engine's own decision and is already in force, so
        there is nothing to hand to the engine or the workers.
        """

    def push(self, ref: CoflowRef, block_id: BlockId, payload: bytes) -> PushMsg:
        """Sender side: hand one block to Swallow for transfer.

        Blocks map onto the coflow's flows in registration order; pushing
        more blocks than the coflow has flows is a protocol error.  The
        worker compresses the block iff its flow's β in the allocation in
        force is set; this does not step the engine.
        """
        live = self._state(ref, "push")
        if not live.unpushed:
            raise ProtocolError(
                f"coflow {ref.coflow_id}: more blocks pushed than flows"
            )
        flow = live.unpushed.pop(0)
        d = self.engine.scheduler.last
        beta = d is not None and bool(d.beta[d.flow_ids == flow.flow_id].any())
        stored, compressed = self.workers[flow.src].store_block(
            ref, block_id, payload, beta
        )
        live.blocks[block_id.value] = flow
        return PushMsg(
            coflow=ref, block_id=block_id, payload_size=stored, compressed=compressed
        )

    def pull(self, ref: CoflowRef, block_id: BlockId) -> bytes:
        """Receiver side: obtain a block, driving the fabric as needed.

        Time-decoupled: if the coflow's transfer has not finished yet, the
        simulation advances slice by slice until it has (the receiver
        "waits"), so the clock stops within one slice of the finish.
        ``results()`` holds the coflow's finish time.
        """
        live = self._state(ref, "pull")
        flow = live.blocks.get(block_id.value)
        if flow is None:
            raise ProtocolError(f"pull() of unpushed block {block_id.value}")
        while not live.completed:
            if not self.engine.pending:
                raise ProtocolError(
                    f"coflow {ref.coflow_id} cannot complete: engine drained"
                )
            self.engine.run(until=self.engine.now + SLICE_LEN)
        data = self.workers[flow.src].fetch_block(ref, block_id)
        del live.blocks[block_id.value]
        return data

    # ------------------------------------------------------------- internals
    def _state(self, ref: CoflowRef, call: str) -> _Live:
        live = self._live.get(ref.coflow_id)
        if live is None:
            raise ProtocolError(f"{call}() of unknown ref {ref.coflow_id}")
        return live

    def _on_engine_complete(self, cr) -> None:
        rid = self._ref_of.get(cr.coflow_id)
        if rid is not None:
            self._live[rid].finish = cr.finish

    # ------------------------------------------------------------- inspection
    def results(self):
        """The engine's metrics so far (FCT/CCT/traffic)."""
        return self.engine.result()
