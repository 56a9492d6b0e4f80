"""The sparklite driver: execute lineages, shuffling through Swallow.

This is the reproduction's analogue of the paper's Spark-2.2.0
integration: a working data-parallel framework whose *computation* runs in
plain Python but whose *shuffles* are real — each map task's output is
partitioned, serialized and pushed block-by-block through the
:class:`~repro.swallow.context.SwallowContext`, which schedules the
resulting coflow with FVDF (compressing payloads when worthwhile) on the
simulated fabric.  Simulated time advances exactly by the network
transfers; per-shuffle timings and byte counts come back in
:attr:`SparkLiteContext.shuffle_reports`.

Results are *correct* end to end: a wordcount through sparklite equals a
wordcount in plain Python, with every shuffled byte having crossed the
(simulated) datacenter.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.flow import Flow
from repro.errors import ConfigurationError
from repro.sparklite.partition import (
    HashPartitioner,
    RangePartitioner,
    bucket_by_key,
    split_evenly,
)
from repro.sparklite.rdd import RDD, ShuffledRDD, SourceRDD
from repro.sparklite.serializer import deserialize_block, serialize_block
from repro.sparklite.stages import build_stages
from repro.swallow.context import SwallowContext
from repro.swallow.messages import BlockId, FlowInfo
from repro.units import gbps


@dataclass
class ShuffleReport:
    """What one shuffle cost on the fabric."""

    label: str
    start: float
    end: float
    payload_bytes: int
    wire_bytes: float
    num_flows: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def traffic_reduction(self) -> float:
        if self.payload_bytes <= 0:
            return 0.0
        return 1.0 - self.wire_bytes / self.payload_bytes


class SparkLiteContext:
    """Driver + cluster: the entry point of the mini-framework.

    Parameters
    ----------
    num_nodes:
        Executors (one per fabric port); task *p* of a stage runs on node
        ``p % num_nodes``.
    bandwidth:
        Fabric port speed, bytes/s.
    smart_compress:
        Swallow's compression switch.
    real_compression:
        Run shuffle payload bytes through a real codec in the workers.
    """

    def __init__(
        self,
        num_nodes: int = 4,
        bandwidth: float = gbps(1),
        smart_compress: bool = True,
        real_compression: bool = True,
        slice_len: float = 0.01,
        default_parallelism: Optional[int] = None,
    ):
        self.swallow = SwallowContext(
            num_nodes=num_nodes,
            bandwidth=bandwidth,
            smart_compress=smart_compress,
            slice_len=slice_len,
            real_compression=real_compression,
        )
        self.num_nodes = num_nodes
        self.default_parallelism = default_parallelism or num_nodes
        self.shuffle_reports: List[ShuffleReport] = []
        self._job_seq = 0

    # ------------------------------------------------------------------ API
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.swallow.engine.now

    def parallelize(self, records: Sequence[Any], num_partitions: Optional[int] = None) -> SourceRDD:
        """Distribute an in-memory collection."""
        n = self.default_parallelism if num_partitions is None else num_partitions
        return SourceRDD(self, split_evenly(list(records), n))

    def text_file(self, path, num_partitions: Optional[int] = None) -> SourceRDD:
        """Read a text file into an RDD of lines (no trailing newlines)."""
        from pathlib import Path as _P

        lines = _P(path).read_text().splitlines()
        return self.parallelize(lines, num_partitions)

    def union(self, *rdds: RDD) -> SourceRDD:
        """Concatenate datasets into one (eager: runs each lineage now).

        sparklite lineages are single-parent chains, so union materialises
        its inputs — each input's shuffles run (advancing simulated time)
        before the combined dataset is re-parallelized.
        """
        if not rdds:
            raise ConfigurationError("union() needs at least one RDD")
        records: List[Any] = []
        for r in rdds:
            records.extend(self.run(r))
        return self.parallelize(records)

    def join(
        self, left: RDD, right: RDD, num_partitions: Optional[int] = None
    ) -> SourceRDD:
        """Inner join of two key-value datasets (eager, like union()).

        Both lineages run; the tagged union is shuffled once by key and
        matching (left, right) value pairs are emitted — the classic
        reduce-side join, with the join shuffle crossing the fabric.
        """
        n = num_partitions or self.default_parallelism
        tagged = [("L", kv) for kv in self.run(left)] + [
            ("R", kv) for kv in self.run(right)
        ]
        grouped = (
            self.parallelize(tagged, n)
            .map(lambda t: (t[1][0], (t[0], t[1][1])))
            .group_by_key(n)
            .flat_map(
                lambda kv: [
                    (kv[0], (lv, rv))
                    for side_l, lv in kv[1]
                    if side_l == "L"
                    for side_r, rv in kv[1]
                    if side_r == "R"
                ]
            )
        )
        return self.parallelize(grouped.collect(), n)

    def run(self, rdd: RDD) -> List[Any]:
        """Execute an action: run every stage, shuffling between them."""
        source, plans = build_stages(rdd)
        partitions = [list(p) for p in source.partitions]
        self._job_seq += 1
        for stage_idx, plan in enumerate(plans):
            if plan.shuffle is not None:
                partitions = self._shuffle(
                    partitions, plan.shuffle,
                    label=f"job{self._job_seq}-stage{stage_idx}",
                )
            for fn in plan.transforms:
                partitions = [fn(p) for p in partitions]
        return [r for p in partitions for r in p]

    # ------------------------------------------------------------- internals
    def _node_of(self, task: int) -> int:
        return task % self.num_nodes

    def _combine(self, sh: ShuffledRDD, records: List[Any]) -> List[Any]:
        """Map-side combining (Spark's combiners) when a reduce fn exists."""
        if sh.reduce_fn is None:
            return records
        acc: Dict[Any, Any] = {}
        for k, v in records:
            acc[k] = sh.reduce_fn(acc[k], v) if k in acc else v
        return list(acc.items())

    def _merge(self, sh: ShuffledRDD, records: List[Any]) -> List[Any]:
        """Reduce-side merge: fold, group, or sort."""
        if sh.reduce_fn is not None:
            acc: Dict[Any, Any] = {}
            for k, v in records:
                acc[k] = sh.reduce_fn(acc[k], v) if k in acc else v
            return list(acc.items())
        if sh.sort:
            return sorted(records, key=lambda r: r[0])
        grouped: Dict[Any, List[Any]] = {}
        for k, v in records:
            grouped.setdefault(k, []).append(v)
        return list(grouped.items())

    def _shuffle(
        self, map_parts: List[List[Any]], sh: ShuffledRDD, label: str
    ) -> List[List[Any]]:
        n_reduce = sh.num_partitions
        combined = [self._combine(sh, p) for p in map_parts]
        if sh.sort:
            all_keys = [r[0] for p in combined for r in p]
            partitioner = RangePartitioner.from_keys(all_keys, n_reduce)
        else:
            partitioner = sh.partitioner
        # bucket[m][r]: records from map task m bound for reduce task r.
        buckets = [bucket_by_key(p, partitioner, n_reduce) for p in combined]

        # Serialize non-empty buckets and describe them as flows.  Each
        # block's *measured* compressibility (a quick zlib probe — the
        # profiling pass the paper describes in Section IV-B1) rides along
        # as the flow's ratio_override, so the fabric-level accounting
        # matches the data's actual entropy rather than a generic curve.
        blobs: List[Tuple[int, int, bytes]] = []
        flows: List[Flow] = []
        for m, row in enumerate(buckets):
            for r, records in enumerate(row):
                if not records:
                    continue
                blob = serialize_block(records)
                blobs.append((m, r, blob))
                ratio = min(max(len(zlib.compress(blob, 1)) / len(blob), 0.02), 0.98)
                flows.append(
                    Flow(src=self._node_of(m), dst=self._node_of(r),
                         size=float(len(blob)), ratio_override=ratio)
                )
        out: List[List[Any]] = [[] for _ in range(n_reduce)]
        if not flows:
            return out

        sc = self.swallow
        infos = [
            FlowInfo(flow_id=f.flow_id, src=f.src, dst=f.dst, size=f.size,
                     compressible=f.compressible,
                     ratio_override=f.ratio_override)
            for f in flows
        ]
        ref = sc.add(sc.aggregate(infos, label=label))
        sc.heartbeat()
        sc.alloc(sc.scheduling([ref]))
        block_ids: Dict[Tuple[int, int], BlockId] = {}
        wire = 0.0
        for (m, r, blob) in blobs:  # push order matches flow order (FIFO)
            bid = BlockId()
            msg = sc.push(ref, bid, blob)
            wire += msg.payload_size
            block_ids[(m, r)] = bid
        for (m, r, _blob) in blobs:
            out[r].extend(deserialize_block(sc.pull(ref, block_ids[(m, r)])))
        sc.remove(ref)
        # Wire bytes as scheduled by the fabric (model-level accounting).
        cres = next(
            c for c in sc.results().coflow_results if c.label == label
        )
        self.shuffle_reports.append(
            ShuffleReport(
                label=label,
                start=cres.arrival,
                end=cres.finish,
                payload_bytes=sum(len(b) for _, _, b in blobs),
                wire_bytes=cres.bytes_sent,
                num_flows=len(flows),
            )
        )
        return [self._merge(sh, p) for p in out]
