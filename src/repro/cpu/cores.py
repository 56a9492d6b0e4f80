"""Per-node CPU model.

Each machine behind an ingress port has a fixed number of cores.  A core
is busy only while someone holds a claim on it: the cluster simulator's
computation tasks (map/reduce work) claim cores for their duration, and
the engine claims a whole core while a flow is being compressed
(Pseudocode 1 line 4: "if CPU resources are enough").

The paper's motivation (Fig. 2) is that computation leaves frequent idle
periods; Swallow spends exactly those on compression.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class CpuModel:
    """Cores per node and the claims held on them.

    Parameters
    ----------
    num_nodes:
        One node per ingress port of the fabric.
    cores_per_node:
        Physical cores per machine.
    """

    def __init__(self, num_nodes: int, cores_per_node: int = 4):
        if num_nodes <= 0 or cores_per_node <= 0:
            raise ConfigurationError("num_nodes and cores_per_node must be positive")
        self.num_nodes = num_nodes
        self.cores_per_node = cores_per_node
        self._claimed = np.zeros(num_nodes, dtype=np.int64)

    # -- claims ---------------------------------------------------------------
    @property
    def claimed(self) -> np.ndarray:
        """Cores currently claimed, per node."""
        return self._claimed.copy()

    def claim(self, node: int, n: int = 1) -> None:
        """Claim ``n`` cores on ``node``; caller must have checked headroom."""
        self._claimed[node] += n

    def release(self, node: int, n: int = 1) -> None:
        self._claimed[node] -= n
        if self._claimed[node] < 0:
            raise ConfigurationError(f"released more cores than claimed on node {node}")

    def release_all(self) -> None:
        self._claimed[:] = 0

    # -- queries ---------------------------------------------------------------
    def free_cores(self) -> np.ndarray:
        """Whole unclaimed cores per node (never negative)."""
        return np.maximum(self.cores_per_node - self._claimed, 0)

    def busy_fraction(self) -> np.ndarray:
        """Claimed fraction of each node's cores, clipped to ``[0, 1]``."""
        return np.clip(self._claimed / self.cores_per_node, 0.0, 1.0)
