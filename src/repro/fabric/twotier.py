"""Two-tier oversubscribed fabric (extension beyond the paper).

The paper analyses the ideal *giant switch*; production datacenters are
usually leaf-spine with **oversubscribed** rack uplinks — the very
bandwidth scarcity that motivates compression.  This fabric groups hosts
into racks: intra-rack flows see only their host links, while inter-rack
flows additionally traverse the source rack's uplink and the destination
rack's downlink, each of capacity ``uplink_bandwidth``.

With ``hosts_per_rack · host_bw / uplink_bw = k``, the fabric is "k:1
oversubscribed"; ``k = 1`` degenerates to the big switch for inter-rack
traffic.  All scheduling policies honour the extra constraints through the
generalised allocation dimensions (see
:mod:`repro.core.rate_allocation`), and
``benchmarks/bench_ext_oversubscription.py`` shows compression gains grow
with oversubscription.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.rate_allocation import Dimension
from repro.errors import ConfigurationError, SchedulingError
from repro.fabric.bigswitch import FEASIBILITY_RTOL, BigSwitch, worst_violator
from repro.fabric.ports import ArrayLike, PortSet


class TwoTierFabric(BigSwitch):
    """Racks of hosts behind shared uplinks.

    Parameters
    ----------
    num_racks:
        Number of racks (leaf switches).
    hosts_per_rack:
        Hosts per rack; total ports = ``num_racks * hosts_per_rack``.
    bandwidth:
        Host link speed (both directions), bytes/s.
    uplink_bandwidth:
        Rack uplink/downlink capacity, bytes/s.
    """

    def __init__(
        self,
        num_racks: int,
        hosts_per_rack: int,
        bandwidth: ArrayLike,
        uplink_bandwidth: ArrayLike,
    ):
        if num_racks <= 0 or hosts_per_rack <= 0:
            raise ConfigurationError("num_racks and hosts_per_rack must be positive")
        super().__init__(num_racks * hosts_per_rack, bandwidth)
        self.num_racks = num_racks
        self.hosts_per_rack = hosts_per_rack
        self.uplink = PortSet(num_racks, uplink_bandwidth)
        self.downlink = PortSet(num_racks, uplink_bandwidth)

    @property
    def oversubscription(self) -> float:
        """Worst-case rack oversubscription ratio (host bytes per uplink byte)."""
        host_total = float(self.ingress.capacity.max()) * self.hosts_per_rack
        return host_total / float(self.uplink.capacity.min())

    def rack_of(self, ports: np.ndarray) -> np.ndarray:
        """Rack index of each host port."""
        return np.asarray(ports) // self.hosts_per_rack

    def _rack_groups(self, src: np.ndarray, dst: np.ndarray):
        """(uplink groups, downlink groups); −1 for intra-rack flows."""
        src_rack = self.rack_of(src)
        dst_rack = self.rack_of(dst)
        inter = src_rack != dst_rack
        up = np.where(inter, src_rack, -1).astype(np.intp)
        down = np.where(inter, dst_rack, -1).astype(np.intp)
        return up, down

    def fresh_extra(self, src: np.ndarray, dst: np.ndarray) -> List[Dimension]:
        up, down = self._rack_groups(src, dst)
        return [(up, self.uplink.remaining()), (down, self.downlink.remaining())]

    def check_feasible(self, src: np.ndarray, dst: np.ndarray, rates: np.ndarray) -> None:
        super().check_feasible(src, dst, rates)
        if len(rates) == 0:
            return
        up, down = self._rack_groups(src, dst)
        for label, groups, caps in (
            ("uplink", up, self.uplink.capacity),
            ("downlink", down, self.downlink.capacity),
        ):
            member = groups >= 0
            if not member.any():
                continue
            load = np.bincount(
                groups[member], weights=rates[member], minlength=self.num_racks
            )
            over = load > caps * (1 + FEASIBILITY_RTOL)
            if over.any():
                r = worst_violator(load, caps, over)
                raise SchedulingError(
                    f"rack {r} {label} oversubscribed: "
                    f"{load[r]:.6g} > {caps[r]:.6g} B/s"
                )

    def flow_link_cap(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        cap = super().flow_link_cap(src, dst)
        up, down = self._rack_groups(src, dst)
        inter = up >= 0
        cap = cap.copy()
        cap[inter] = np.minimum(cap[inter], self.uplink.capacity[up[inter]])
        cap[inter] = np.minimum(cap[inter], self.downlink.capacity[down[inter]])
        return cap
