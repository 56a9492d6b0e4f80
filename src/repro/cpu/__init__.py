"""CPU substrate: per-node cores, background load and utilisation monitoring."""

from repro.cpu.cores import CpuModel, PiecewiseConstantBackground, random_background
from repro.cpu.monitor import UtilizationRecorder

__all__ = [
    "CpuModel",
    "PiecewiseConstantBackground",
    "random_background",
    "UtilizationRecorder",
]
