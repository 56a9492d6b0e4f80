"""repro — a reproduction of *Swallow: Joint Online Scheduling and Coflow
Compression in Datacenter Networks* (Zhou et al., IPDPS 2018).

The package implements, in pure Python/NumPy:

* the big-switch datacenter fabric, CPU and compression substrates;
* a slice-granular coflow simulation engine;
* the paper's FVDF scheduler and every baseline it compares against
  (FIFO, FAIR, SRTF, PFP, WSS, PFF, SEBF/Varys, SCF, NCF, LCF);
* workload generators and the public Facebook coflow-trace format;
* a Spark-like cluster simulator (HiBench workloads, GC model) standing in
  for the paper's 100-VM deployment;
* the Swallow system layer: the Table IV API over the engine.

Quickstart::

    import repro
    from repro.units import MB, gbps

    fabric = repro.BigSwitch(num_ports=3, bandwidth=gbps(1))
    coflow = repro.Coflow([
        repro.Flow(src=0, dst=1, size=400 * MB),
        repro.Flow(src=1, dst=2, size=200 * MB),
    ])
    sim = repro.SliceSimulator(fabric, repro.FVDFScheduler())
    sim.submit(coflow)
    result = sim.run()
    print(result.avg_cct, result.traffic_reduction)
"""

from repro.compression import Codec, CompressionEngine, default_codec, get_codec
from repro.core import (
    Allocation,
    Coflow,
    CoflowResult,
    Flow,
    FlowResult,
    FVDFConfig,
    FVDFScheduler,
    Scheduler,
    SchedulerView,
    SimulationResult,
    SliceSimulator,
)
from repro.cpu import CpuModel, UtilizationRecorder
from repro.fabric import BigSwitch
from repro.schedulers import make_scheduler, scheduler_names

__version__ = "1.31.0"

__all__ = [
    "Flow", "FlowResult", "Coflow", "CoflowResult",
    "BigSwitch", "CpuModel", "UtilizationRecorder",
    "Codec", "CompressionEngine", "get_codec", "default_codec",
    "Scheduler", "SchedulerView", "Allocation",
    "SliceSimulator", "SimulationResult",
    "FVDFScheduler", "FVDFConfig",
    "make_scheduler", "scheduler_names",
    "__version__",
]
