"""CPU substrate: per-node cores, their claims and utilisation monitoring."""

from repro.cpu.cores import CpuModel
from repro.cpu.monitor import UtilizationRecorder

__all__ = ["CpuModel", "UtilizationRecorder"]
