"""Port-capacity bookkeeping for the big-switch fabric.

A :class:`PortSet` is one side (ingress or egress) of the fabric: an array
of link capacities, fixed when the fabric is built, plus transient
*remaining capacity* used while building a rate allocation.
Rate-allocation policies consume capacity from two port sets (sender
side and receiver side) as they hand out rates.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError

ArrayLike = Union[float, Sequence[float], np.ndarray]


class PortSet:
    """Capacities of one side of the fabric.

    Parameters
    ----------
    num_ports:
        Number of ports on this side.
    capacity:
        Either a scalar (homogeneous links) or a per-port array, in bytes/s.
    """

    def __init__(self, num_ports: int, capacity: ArrayLike):
        if num_ports <= 0:
            raise ConfigurationError(f"num_ports must be positive, got {num_ports}")
        cap = np.broadcast_to(np.asarray(capacity, dtype=np.float64), (num_ports,)).copy()
        if not np.all((cap > 0) & (cap < np.inf)):
            raise ConfigurationError("all port capacities must be positive and finite")
        self._capacity = cap
        self._capacity.setflags(write=False)

    def __len__(self) -> int:
        return len(self._capacity)

    @property
    def capacity(self) -> np.ndarray:
        """Read-only per-port capacity array (bytes/s)."""
        return self._capacity

    def remaining(self) -> np.ndarray:
        """A fresh writable copy of the capacities, for allocation passes."""
        return self._capacity.copy()


def port_loads(ports: np.ndarray, amounts: np.ndarray, num_ports: int) -> np.ndarray:
    """Sum ``amounts`` by port index (vectorised ``bincount``).

    Used to compute per-port byte loads (for SEBF's bottleneck ``Γ``) and
    per-port allocated-rate sums (for feasibility checks).
    """
    return np.bincount(ports, weights=amounts, minlength=num_ports).astype(np.float64)
