"""Compression engine: turns codec + ratio model into per-flow parameters.

The simulation engine integrates flow volumes itself; this class answers the
questions schedulers and the engine ask about compression:

* what is the effective ratio ``xi`` for a flow of a given original size?
* at what speed does one core compress (``R``), and what is the net volume
  disposal speed ``R (1 - xi)``?
* given a wish-list of flows to compress and the free cores per node, which
  flows actually get a core (Pseudocode 1 line 4)?
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.compression.codecs import Codec, default_codec, get_codec
from repro.compression.model import SizeDependentRatio


class CompressionEngine:
    """Scheduling-facing view of a compression codec.

    Parameters
    ----------
    codec:
        A :class:`~repro.compression.codecs.Codec` or registry name.
        Defaults to LZ4 (the paper's default).
    size_dependent:
        When ``True`` (default) the effective ratio follows the Table III
        curve shifted to the codec's reference ratio; when ``False`` the
        flat Table II ratio applies to every flow.
    speed_scale:
        Multiplier on the codec's per-core speed (models slower/faster CPUs
        than the paper's testbed Xeons).
    """

    def __init__(
        self,
        codec: Union[Codec, str, None] = None,
        size_dependent: bool = True,
        speed_scale: float = 1.0,
    ):
        if codec is None:
            codec = default_codec()
        elif isinstance(codec, str):
            codec = get_codec(codec)
        self.codec = codec
        self.speed_scale = float(speed_scale)
        self._ratio_model: Optional[SizeDependentRatio] = (
            SizeDependentRatio(codec) if size_dependent else None
        )

    @property
    def speed(self) -> float:
        """Input bytes compressed per second by one core."""
        return self.codec.speed * self.speed_scale

    def ratio(self, size: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Effective compression ratio for flows of ``size`` original bytes."""
        if self._ratio_model is None:
            s = np.asarray(size, dtype=np.float64)
            out = np.full_like(s, self.codec.ratio)
            return float(out) if out.ndim == 0 else out
        return self._ratio_model(size)

    def disposal_speed(self, size: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Net volume drain of compressing, ``R (1 - xi(size))`` (Eq. 1)."""
        return self.speed * (1.0 - np.asarray(self.ratio(size)))

    def beats_bandwidth(
        self, size: Union[float, np.ndarray], bandwidth: Union[float, np.ndarray]
    ) -> Union[bool, np.ndarray]:
        """Eq. 3 test per flow: is compressing faster than transmitting?"""
        out = np.asarray(self.disposal_speed(size)) > np.asarray(bandwidth)
        return bool(out) if out.ndim == 0 else out

    def grant_cores(
        self,
        want: np.ndarray,
        src: np.ndarray,
        free_cores: np.ndarray,
        priority: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Resolve compression wishes against per-node core budgets.

        Parameters
        ----------
        want:
            Boolean mask of flows that would like to compress.
        src:
            Per-flow source node indices.
        free_cores:
            Cores available for compression per node.
        priority:
            Optional flow ordering (indices, most important first) used to
            break ties when a node has fewer cores than requests; defaults
            to ascending flow index.

        Returns
        -------
        numpy.ndarray
            Boolean mask of flows actually granted a core (one core per
            flow, never exceeding ``free_cores`` on any node).

        Notes
        -----
        Walking ``priority`` and granting each wanting flow a core while
        its node has one left is the same as: every node grants its first
        ``free_cores[node]`` wanting entries of ``priority``.  That is
        computed without a per-flow step — a stable sort of the wanting
        entries by node keeps priority order within each node, and an
        entry is granted when its rank within its node is below the
        node's budget.  A repeated index is one entry per occurrence, as
        in the walk.
        """
        want = np.asarray(want, dtype=bool)
        granted = np.zeros(len(want), dtype=bool)
        if priority is None:
            cand = np.flatnonzero(want)
        else:
            order = np.asarray(priority, dtype=np.intp)
            cand = order[want[order]]
        if cand.size == 0:
            return granted
        nodes = np.asarray(src)[cand]
        by_node = np.argsort(nodes, kind="stable")
        sorted_nodes = nodes[by_node]
        rank = np.arange(cand.size) - np.searchsorted(
            sorted_nodes, sorted_nodes, side="left"
        )
        budget = np.asarray(free_cores, dtype=np.int64)
        granted[cand[by_node[rank < budget[sorted_nodes]]]] = True
        return granted
