"""Per-node CPU model.

Each machine behind an ingress port has a fixed number of cores.  Two things
occupy them:

* **background load** — computation tasks (map/reduce work in the cluster
  simulator, or a synthetic utilisation trace), expressed as a busy
  fraction per node as a function of time, and
* **compression claims** — whole cores claimed by the engine while a flow
  is being compressed (Pseudocode 1 line 4: "if CPU resources are enough").

The paper's motivation (Fig. 2) is that background load leaves frequent idle
periods; Swallow spends exactly those on compression.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError

BackgroundFn = Callable[[float], Union[float, np.ndarray]]


class PiecewiseConstantBackground:
    """Busy-fraction trace: per-node step function of time.

    Parameters
    ----------
    times:
        Sorted breakpoints (seconds); ``values[i]`` holds on
        ``[times[i], times[i+1])``.  Before ``times[0]`` and after the last
        breakpoint the edge values hold.
    values:
        Array of shape ``(len(times), num_nodes)`` or ``(len(times),)``
        (same load on every node), entries in ``[0, 1]``.
    """

    def __init__(self, times: Sequence[float], values: np.ndarray):
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if len(self.times) == 0:
            raise ConfigurationError("need at least one breakpoint")
        if np.any(np.diff(self.times) < 0):
            raise ConfigurationError("breakpoints must be sorted")
        if self.values.shape[0] != self.times.shape[0]:
            raise ConfigurationError("values must have one row per breakpoint")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ConfigurationError("busy fractions must lie in [0, 1]")

    def __call__(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = min(max(i, 0), len(self.times) - 1)
        return self.values[i]


def random_background(
    rng: np.random.Generator,
    num_nodes: int,
    horizon: float,
    busy_level: float = 0.6,
    mean_period: float = 5.0,
) -> PiecewiseConstantBackground:
    """Synthetic bursty background load (alternating busy/idle periods).

    Produces the Fig.-2-style pattern: nodes oscillate between busy spells
    (fraction ``busy_level``) and idle spells, with exponentially
    distributed period lengths of mean ``mean_period`` seconds.
    """
    if not 0 <= busy_level <= 1:
        raise ConfigurationError("busy_level must lie in [0, 1]")
    n_steps = max(2, int(np.ceil(horizon / mean_period * 2)) + 1)
    durations = rng.exponential(mean_period, size=n_steps)
    times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    # Independent busy/idle phase per node per step.
    busy = rng.random((n_steps, num_nodes)) < 0.5
    jitter = rng.uniform(0.8, 1.2, size=(n_steps, num_nodes))
    values = np.where(busy, np.clip(busy_level * jitter, 0, 1), 0.0)
    return PiecewiseConstantBackground(times, values)


class CpuModel:
    """Cores per node + background load + dynamic compression claims.

    Parameters
    ----------
    num_nodes:
        One node per ingress port of the fabric.
    cores_per_node:
        Physical cores per machine.
    background:
        Optional callable ``t -> busy fraction`` (scalar or per-node array).
        Defaults to always idle.
    """

    def __init__(
        self,
        num_nodes: int,
        cores_per_node: int = 4,
        background: Optional[BackgroundFn] = None,
    ):
        if num_nodes <= 0 or cores_per_node <= 0:
            raise ConfigurationError("num_nodes and cores_per_node must be positive")
        self.num_nodes = num_nodes
        self.cores_per_node = cores_per_node
        self._background = background
        self._claimed = np.zeros(num_nodes, dtype=np.int64)

    # -- background -----------------------------------------------------------
    def background_busy(self, t: float) -> np.ndarray:
        """Background busy fraction per node at time ``t``."""
        if self._background is None:
            return np.zeros(self.num_nodes)
        b = np.asarray(self._background(t), dtype=np.float64)
        return np.broadcast_to(np.clip(b, 0.0, 1.0), (self.num_nodes,))

    # -- claims ---------------------------------------------------------------
    @property
    def claimed(self) -> np.ndarray:
        """Cores currently claimed for compression, per node."""
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
    def free_cores(self, t: float) -> np.ndarray:
        """Whole cores available for compression per node at time ``t``.

        Background load occupies ``busy * cores`` (rounded up — partial use
        of a core blocks it for the exclusive compression claim), then
        current claims are subtracted.  Without a background model no
        core is busy (``ceil(0 - 1e-9)`` is 0), so only claims count.
        """
        if self._background is None:
            return np.maximum(self.cores_per_node - self._claimed, 0)
        bg_cores = np.ceil(self.background_busy(t) * self.cores_per_node - 1e-9)
        free = self.cores_per_node - bg_cores.astype(np.int64) - self._claimed
        return np.maximum(free, 0)

    def busy_fraction(self, t: float) -> np.ndarray:
        """Total busy fraction per node (background + compression claims)."""
        total = self.background_busy(t) + self._claimed / self.cores_per_node
        return np.clip(total, 0.0, 1.0)
