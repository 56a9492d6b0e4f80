"""Canonical scenarios from the paper, reusable by tests/examples/benches.

The centrepiece is the Fig. 3/4 motivating example: two coflows on a 3×3
fabric whose per-policy average FCT/CCT the paper states exactly
(PFF 4.6/5.5, WSS 5.2/6, FIFO 4.4/5.5, PFP 3.8/5.5, SEBF 4/4.5, FVDF
2.8/3.25 with compression).  The paper's figure does not state the port
assignment; the one below is derived analytically in DESIGN.md and
reproduces *all five* baseline numbers simultaneously, which pins it down.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.scheduler import Scheduler
from repro.core.simulator import SimulationResult, SliceSimulator
from repro.cpu.cores import CpuModel
from repro.fabric.bigswitch import BigSwitch

#: Exact values the paper states for Fig. 4, keyed by policy name.
FIG4_PAPER_NUMBERS: Dict[str, Tuple[float, float]] = {
    "pff": (4.6, 5.5),
    "fair": (4.6, 5.5),  # PFF == Spark FAIR at this granularity
    "wss": (5.2, 6.0),
    "fifo": (4.4, 5.5),
    "pfp": (3.8, 5.5),
    "sebf": (4.0, 4.5),
    "fvdf": (2.8, 3.25),
}


def motivating_example(bandwidth: float = 1.0) -> Tuple[BigSwitch, List[Coflow]]:
    """The Fig. 3 workload: C1 = {4, 4, 2}, C2 = {2, 3} on a 3×3 fabric.

    Port assignment (derived, see DESIGN.md):

    ========  =====  =======  ======  ====
    flow      size   ingress  egress  FIFO
    ========  =====  =======  ======  ====
    C1.f1     4      0        0       1st
    C1.f2     4      1        1       3rd
    C1.f3     2      2        2       5th
    C2.f4     2      0        0       4th
    C2.f5     3      2        2       2nd
    ========  =====  =======  ======  ====

    Flow ids encode the interleaved FIFO arrival order
    (f1, f5, f2, f4, f3), matching the paper's "five flows are interleaved".
    Sizes are in abstract data units (bytes here) against unit bandwidth.
    """
    fabric = BigSwitch(num_ports=3, bandwidth=bandwidth)
    u = bandwidth  # one paper "data unit" takes one time unit on the wire
    f1 = Flow(src=0, dst=0, size=4 * u, flow_id=0)
    f5 = Flow(src=2, dst=2, size=3 * u, flow_id=1)
    f2 = Flow(src=1, dst=1, size=4 * u, flow_id=2)
    f4 = Flow(src=0, dst=0, size=2 * u, flow_id=3)
    f3 = Flow(src=2, dst=2, size=2 * u, flow_id=4)
    c1 = Coflow([f1, f2, f3], arrival=0.0, label="C1")
    c2 = Coflow([f4, f5], arrival=0.0, label="C2")
    return fabric, [c1, c2]


def motivating_compression_engine(bandwidth: float = 1.0) -> CompressionEngine:
    """A codec matching Fig. 4(f): ratio 47.59%, fast enough to pay off.

    ``R(1-ξ) = 4·0.5241 ≈ 2.1 > B = 1``, so Eq. 3 enables compression, and
    a flow's volume shrinks by the paper's "2 data units per coflow" scale.
    """
    codec = Codec(
        name="fig4",
        speed=4.0 * bandwidth,
        decompression_speed=16.0 * bandwidth,
        ratio=0.4759,
    )
    return CompressionEngine(codec=codec, size_dependent=False)


def run_motivating_example(
    scheduler: Scheduler,
    slice_len: float = 0.01,
    bandwidth: float = 1.0,
    cores_per_node: int = 1,
    obs=None,
) -> SimulationResult:
    """Run one policy on the Fig. 3 workload and return the result."""
    fabric, coflows = motivating_example(bandwidth)
    sim = SliceSimulator(
        fabric,
        scheduler,
        slice_len=slice_len,
        cpu=CpuModel(fabric.num_ingress, cores_per_node=cores_per_node),
        compression=motivating_compression_engine(bandwidth)
        if scheduler.uses_compression
        else None,
        obs=obs,
    )
    sim.submit_many(coflows)
    return sim.run()


def synthetic_workload(num_coflows: int = 40, num_ports: int = 16, max_width: int = 8,
                       arrival_rate: float = 4.0, seed: int = 0) -> List[Coflow]:
    """The seeded trace of ``repro compare`` and ``repro trace synthetic``:
    Spark shuffle flow sizes, log-uniform widths ``1..max_width`` and
    Poisson arrivals at ``arrival_rate`` coflows/s."""
    from repro.traces.generator import WorkloadConfig, generate_workload

    cfg = WorkloadConfig(num_coflows=num_coflows, num_ports=num_ports,
                         width=(1, max_width), arrival_rate=arrival_rate)
    return generate_workload(cfg, np.random.default_rng(seed))
