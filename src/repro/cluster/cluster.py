"""Cluster deployment simulator — the stand-in for the paper's 100-VM testbed.

Jobs (map → shuffle → reduce → result) run over a simulated cluster: map and
reduce stages occupy CPU cores on their nodes (which is exactly the
background load Swallow's compression has to coexist with), shuffles become
coflows on the shared :class:`~repro.core.simulator.SliceSimulator`, and the
result stage writes output to disk.  Everything Fig. 7 and Tables V–VIII
report is measured here: per-stage durations, JCT, shuffle traffic, GC time
and CPU utilisation.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.failures import NO_FAILURES, FailureModel
from repro.cluster.gc_model import GcModel
from repro.cluster.job import JobResult, JobSpec, StageRecord
from repro.cluster.node import ClusterNode, NodeSpec
from repro.cluster.shuffle import build_shuffle_coflow, place_tasks
from repro.compression.engine import CompressionEngine
from repro.core.coflow import CoflowResult
from repro.core.scheduler import Scheduler
from repro.core.simulator import SliceSimulator
from repro.cpu.cores import CpuModel
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.units import gbps


@dataclass
class ClusterConfig:
    """Cluster-wide knobs.

    Setting ``num_racks`` places the nodes behind a two-tier fabric with
    rack uplinks of ``uplink_bandwidth`` (defaults to 1:1, i.e. no
    oversubscription); otherwise the ideal big switch is used.
    """

    num_nodes: int = 16
    bandwidth: float = gbps(1)
    node_spec: NodeSpec = field(default_factory=NodeSpec)
    gc: GcModel = field(default_factory=GcModel)
    failures: FailureModel = NO_FAILURES
    num_racks: Optional[int] = None
    uplink_bandwidth: Optional[float] = None
    slice_len: float = 0.01
    sample_cpu: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.num_racks is not None:
            if self.num_racks <= 0 or self.num_nodes % self.num_racks != 0:
                raise ConfigurationError(
                    f"num_racks={self.num_racks} must divide num_nodes={self.num_nodes}"
                )
        elif self.uplink_bandwidth is not None:
            raise ConfigurationError("uplink_bandwidth requires num_racks")

    def build_fabric(self) -> BigSwitch:
        if self.num_racks is None:
            return BigSwitch(self.num_nodes, self.bandwidth)
        hosts = self.num_nodes // self.num_racks
        uplink = (
            self.uplink_bandwidth
            if self.uplink_bandwidth is not None
            else hosts * self.bandwidth
        )
        from repro.fabric.twotier import TwoTierFabric

        return TwoTierFabric(self.num_racks, hosts, self.bandwidth, uplink)


@dataclass
class ClusterResult:
    """Aggregate outcome of a cluster run."""

    job_results: List[JobResult]
    makespan: float
    cpu_recorder: Optional[object] = None

    @property
    def successful(self) -> List[JobResult]:
        return [j for j in self.job_results if not j.failed]

    @property
    def failed_jobs(self) -> int:
        return sum(1 for j in self.job_results if j.failed)

    @property
    def avg_jct(self) -> float:
        """Mean JCT over *successful* jobs (failed jobs have no JCT)."""
        ok = self.successful
        if not ok:
            return 0.0
        return float(np.mean([j.jct for j in ok]))

    def stage_means(self) -> Dict[str, float]:
        """Mean duration per stage across successful jobs (Fig. 7a)."""
        ok = self.successful
        if not ok:
            return {}
        return {
            stage: float(
                np.mean([getattr(j, f"{stage}_stage").duration for j in ok])
            )
            for stage in ("map", "shuffle", "reduce", "result")
        }

    @property
    def shuffle_bytes_original(self) -> float:
        return float(sum(j.spec.shuffle_bytes for j in self.successful))

    @property
    def shuffle_bytes_sent(self) -> float:
        return float(sum(j.shuffle_bytes_sent for j in self.successful))

    @property
    def traffic_reduction(self) -> float:
        """Fraction of shuffle bytes kept off the wire (Table VII)."""
        orig = self.shuffle_bytes_original
        return 1.0 - self.shuffle_bytes_sent / orig if orig > 0 else 0.0

    def gc_summary(self) -> Dict[str, float]:
        """Mean GC seconds per map / reduce stage (Table VIII)."""
        ok = self.successful
        if not ok:
            return {"map": 0.0, "reduce": 0.0}
        return {
            "map": float(np.mean([j.gc_map for j in ok])),
            "reduce": float(np.mean([j.gc_reduce for j in ok])),
        }

    def completions(self) -> List[float]:
        """Job completion instants (Table V throughput windows)."""
        return sorted(j.result_stage.end for j in self.successful)


class _JobState:
    __slots__ = (
        "spec", "mapper_nodes", "reducer_nodes", "map_rec", "shuffle_rec",
        "reduce_rec", "result_rec", "gc_map", "gc_reduce", "bytes_sent",
        "failed", "map_attempts", "reduce_attempts", "round",
        "shuffle_elapsed", "reduce_elapsed", "round_start",
    )

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.mapper_nodes: Optional[np.ndarray] = None
        self.reducer_nodes: Optional[np.ndarray] = None
        self.map_rec = StageRecord()
        self.shuffle_rec = StageRecord()
        self.reduce_rec = StageRecord()
        self.result_rec = StageRecord()
        self.gc_map = 0.0
        self.gc_reduce = 0.0
        self.bytes_sent = 0.0
        self.failed = False
        self.map_attempts = 0
        self.reduce_attempts = 0
        self.round = 1
        self.shuffle_elapsed = 0.0
        self.reduce_elapsed = 0.0
        self.round_start = 0.0


class ClusterSimulator:
    """Runs a job mix over the network engine + CPU + GC models.

    Parameters
    ----------
    config:
        Cluster hardware and timing knobs.
    scheduler:
        Network scheduling policy (Swallow = FVDF with compression; the
        "without Swallow" baselines are SEBF/FIFO/FAIR without an engine).
    compression:
        Compression engine.  When present and the scheduler uses it, the
        shuffle traffic shrinks, reduce-side GC drops and the result stage
        writes compressed output — the three effects behind Fig. 7 and
        Tables VII/VIII.
    """

    def __init__(
        self,
        config: ClusterConfig,
        scheduler: Scheduler,
        compression: Optional[CompressionEngine] = None,
        obs=None,
    ):
        self.config = config
        self.nodes = [ClusterNode(i, config.node_spec) for i in range(config.num_nodes)]
        self.fabric = config.build_fabric()
        self.cpu = CpuModel(config.num_nodes, cores_per_node=config.node_spec.cores)
        if compression is None and scheduler.uses_compression:
            compression = CompressionEngine()
        self.compression = compression
        self.net = SliceSimulator(
            self.fabric,
            scheduler,
            slice_len=config.slice_len,
            cpu=self.cpu,
            compression=compression,
            sample_cpu=config.sample_cpu,
            obs=obs,
        )
        self.obs = self.net.obs
        self.net.on_coflow_complete(self._on_shuffle_done)
        self._rng = np.random.default_rng(config.seed)
        self._events: List = []
        self._seq = itertools.count()
        self._jobs: Dict[int, _JobState] = {}
        self._coflow_to_job: Dict[int, int] = {}
        self._results: List[JobResult] = []
        self._idle_chunk = max(1.0, 100 * config.slice_len)

    # -------------------------------------------------------------------- API
    @property
    def compressing(self) -> bool:
        """Whether this run compresses shuffles (the "-c" configurations)."""
        return self.compression is not None and self.net.scheduler.uses_compression

    def submit_job(self, spec: JobSpec) -> None:
        if spec.job_id in self._jobs:
            raise ConfigurationError(f"job {spec.job_id} submitted twice")
        self._jobs[spec.job_id] = _JobState(spec)
        self._push(spec.arrival, "arrival", spec.job_id)

    def submit_jobs(self, specs: List[JobSpec]) -> None:
        for s in specs:
            self.submit_job(s)

    def run(self) -> ClusterResult:
        while self._events or self.net.pending:
            if not self._events:
                # Only shuffles in flight: step the network in bounded chunks
                # so completions surface (and enqueue reduce stages) promptly.
                self.net.run(until=self.net.now + self._idle_chunk)
                continue
            t = self._events[0][0]
            if self.net.pending and self.net.now < t:
                self.net.run(until=t)
                if self._events and self._events[0][0] < t:
                    continue  # a shuffle finished and enqueued earlier work
            _, _, kind, job_id = heapq.heappop(self._events)
            flt = self.obs.recorder
            if flt.enabled:
                flt.emit(t, "job_stage", stage=kind, job_id=job_id)
            getattr(self, f"_on_{kind}")(t, self._jobs[job_id])
        makespan = max(
            [self.net.now] + [r.result_stage.end for r in self._results], default=0.0
        )
        rec = self.net.result().cpu_recorder
        return ClusterResult(
            job_results=list(self._results), makespan=makespan, cpu_recorder=rec
        )

    # -------------------------------------------------------------- stages
    def _push(self, t: float, kind: str, job_id: int) -> None:
        heapq.heappush(self._events, (t, next(self._seq), kind, job_id))

    def _waves(self, task_nodes: np.ndarray) -> int:
        """Execution waves: tasks beyond a node's core count queue behind
        the first wave (Spark's slot model)."""
        counts = np.bincount(task_nodes, minlength=self.config.num_nodes)
        return int(np.ceil(counts.max() / self.config.node_spec.cores))

    def _on_arrival(self, t: float, js: _JobState) -> None:
        spec = js.spec
        js.mapper_nodes = place_tasks(self._rng, spec.num_mappers, self.config.num_nodes)
        js.reducer_nodes = place_tasks(self._rng, spec.num_reducers, self.config.num_nodes)
        for n in js.mapper_nodes:
            self.cpu.claim(int(n))
        js.map_rec.start = t
        spec_hw = self.config.node_spec
        per_mapper_in = spec.input_bytes / spec.num_mappers
        # Map-side spill buffers hold the shuffle output; compressed spills
        # are smaller, which is Table VIII's map-column effect.
        per_mapper_out = spec.shuffle_bytes / spec.num_mappers
        if self.compressing:
            per_mapper_out *= spec.app.ratio
        js.gc_map = self.config.gc.gc_time(per_mapper_out)
        base_task = per_mapper_in / spec_hw.map_speed + js.gc_map
        map_time, js.map_attempts, failed = self.config.failures.stage_time(
            base_task, spec.num_mappers, self._rng
        )
        map_time *= self._waves(js.mapper_nodes)
        if failed:
            js.failed = True
        self._push(t + map_time, "map_done", spec.job_id)

    def _on_map_done(self, t: float, js: _JobState) -> None:
        for n in js.mapper_nodes:
            self.cpu.release(int(n))
        js.map_rec.end = t
        if js.failed:
            # A map task exhausted its retries: the job aborts before its
            # shuffle ever reaches the fabric.
            self._finalize(js)
            return
        js.shuffle_rec.start = t
        self._start_shuffle_round(t, js)

    def _start_shuffle_round(self, t: float, js: _JobState) -> None:
        arrival = max(t, self.net.now)
        js.round_start = arrival
        coflow = build_shuffle_coflow(
            js.spec, js.mapper_nodes, js.reducer_nodes, arrival
        )
        self._coflow_to_job[coflow.coflow_id] = js.spec.job_id
        self.net.submit(coflow)

    def _on_shuffle_done(self, cr: CoflowResult) -> None:
        job_id = self._coflow_to_job.pop(cr.coflow_id, None)
        if job_id is None:
            return  # a coflow not owned by this cluster (shared engine)
        js = self._jobs[job_id]
        t = cr.finish
        js.shuffle_elapsed += t - js.round_start
        js.bytes_sent += cr.bytes_sent
        for n in js.reducer_nodes:
            self.cpu.claim(int(n))
        js.round_start = t  # reduce phase of this round starts now
        spec, hw = js.spec, self.config.node_spec
        per_reducer_logical = spec.shuffle_bytes_per_round / spec.num_reducers
        per_reducer_physical = cr.bytes_sent / spec.num_reducers
        js.gc_reduce = self.config.gc.gc_time(per_reducer_physical)
        base_task = per_reducer_logical / hw.reduce_speed + js.gc_reduce
        if self.compression is not None and cr.bytes_sent < spec.shuffle_bytes_per_round:
            base_task += per_reducer_physical / self.compression.codec.decompression_speed
        reduce_time, attempts, failed = self.config.failures.stage_time(
            base_task, spec.num_reducers, self._rng
        )
        js.reduce_attempts += attempts
        reduce_time *= self._waves(js.reducer_nodes)
        if failed:
            js.failed = True
        self._push(t + reduce_time, "reduce_done", job_id)

    def _on_reduce_done(self, t: float, js: _JobState) -> None:
        for n in js.reducer_nodes:
            self.cpu.release(int(n))
        js.reduce_elapsed += t - js.round_start
        if js.failed:
            self._finalize(js)
            return
        if js.round < js.spec.rounds:
            # Iterative job: the next round's shuffle starts now.
            js.round += 1
            self._start_shuffle_round(t, js)
            return
        js.result_rec.start = t
        spec, hw = js.spec, self.config.node_spec
        out = spec.output_bytes
        if self.compressing:
            out *= spec.app.ratio  # Swallow writes compressed output files
        result_time = out / spec.num_reducers / hw.disk_bandwidth
        self._push(t + result_time, "result_done", spec.job_id)

    def _on_result_done(self, t: float, js: _JobState) -> None:
        js.result_rec.end = t
        self._finalize(js)

    def _finalize(self, js: _JobState) -> None:
        # Synthesize the shuffle/reduce stage records from accumulated
        # per-round time (rounds interleave, so start/end alone mislead).
        js.shuffle_rec.end = js.shuffle_rec.start + js.shuffle_elapsed
        js.reduce_rec.start = js.shuffle_rec.end
        js.reduce_rec.end = js.reduce_rec.start + js.reduce_elapsed
        self._results.append(
            JobResult(
                spec=js.spec,
                map_stage=js.map_rec,
                shuffle_stage=js.shuffle_rec,
                reduce_stage=js.reduce_rec,
                result_stage=js.result_rec,
                gc_map=js.gc_map,
                gc_reduce=js.gc_reduce,
                shuffle_bytes_sent=js.bytes_sent,
                failed=js.failed,
                map_attempts=js.map_attempts,
                reduce_attempts=js.reduce_attempts,
            )
        )
