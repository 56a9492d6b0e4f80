"""CPU-utilisation measurement (paper Fig. 2).

A :class:`UtilizationRecorder` samples busy fractions over time and
derives the idle statistics the paper quotes ("more than 30.77% of CPU
time is wasted at 10 Gbps, 69.23% at 100 Mbps").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cpu.cores import CpuModel
from repro.errors import ConfigurationError


class UtilizationRecorder:
    """Collects (time, per-node busy fraction) samples."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._times: List[float] = []
        self._samples: List[np.ndarray] = []

    def sample(self, t: float, busy: np.ndarray) -> None:
        busy = np.broadcast_to(np.asarray(busy, dtype=np.float64), (self.num_nodes,))
        self._times.append(float(t))
        self._samples.append(busy.copy())

    def sample_model(self, t: float, cpu: CpuModel) -> None:
        self.sample(t, cpu.busy_fraction())

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times)

    @property
    def busy(self) -> np.ndarray:
        """Array of shape ``(num_samples, num_nodes)``."""
        if not self._samples:
            return np.zeros((0, self.num_nodes))
        return np.vstack(self._samples)

    # -- statistics ------------------------------------------------------------
    def mean_utilization(self) -> float:
        """Average busy fraction over all samples and nodes."""
        b = self.busy
        return float(b.mean()) if b.size else 0.0

    def idle_time_fraction(self, threshold: float = 0.05) -> float:
        """Fraction of (sample, node) points with busy fraction <= threshold.

        This is the paper's "wasted CPU time" metric: the share of time a
        CPU sits (nearly) idle and could be compressing instead.
        """
        b = self.busy
        if not b.size:
            return 0.0
        return float((b <= threshold).mean())

    def node_timeline(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """(times, busy fraction) series for one node — Fig. 2 panels."""
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(f"node {node} out of range")
        return self.times, self.busy[:, node]

    def idle_periods(self, node: int, threshold: float = 0.05) -> List[Tuple[float, float]]:
        """Contiguous idle intervals ``(start, end)`` for one node.

        These are the "blank areas" of Fig. 2.
        """
        times, busy = self.node_timeline(node)
        periods: List[Tuple[float, float]] = []
        start: Optional[float] = None
        for t, b in zip(times, busy):
            if b <= threshold:
                if start is None:
                    start = t
            else:
                if start is not None:
                    periods.append((start, t))
                    start = None
        if start is not None and len(times):
            periods.append((start, float(times[-1])))
        return periods
