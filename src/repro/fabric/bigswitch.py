"""The giant non-blocking switch abstraction (paper Fig. 3).

The datacenter fabric is modelled as one logical switch interconnecting all
machines: machine *i*'s uplink is ingress port *i*, its downlink egress port
*i*.  The fabric core is non-blocking, so the only constraints on a rate
allocation are the per-port capacities:

    sum of rates of flows with src == p  <=  ingress capacity of p
    sum of rates of flows with dst == p  <=  egress capacity of p

This is the standard model of Varys, Aalo and the coflow literature.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.fabric.ports import ArrayLike, PortSet

#: Relative tolerance accepted on port-capacity feasibility checks.
FEASIBILITY_RTOL = 1e-6


def worst_violator(load: np.ndarray, caps: np.ndarray, over: np.ndarray) -> int:
    """The violating constraint (``over``) with the largest excess.

    Ports within tolerance are never named, however large their
    absolute excess over the nominal capacity.
    """
    return int(np.argmax(np.where(over, load - caps, -np.inf)))


class BigSwitch:
    """An ``n_in x n_out`` non-blocking fabric with per-port capacities.

    Parameters
    ----------
    num_ports:
        Number of machines; creates symmetric ingress/egress sides.
    bandwidth:
        Scalar or per-port link speed, bytes/s.  Applied to both sides
        unless ``egress_bandwidth`` is given.
    egress_bandwidth:
        Optional distinct egress-side capacity.
    num_egress_ports:
        Optional distinct egress port count (asymmetric fabrics, e.g. the
        ``m x r`` shuffle view).
    """

    def __init__(
        self,
        num_ports: int,
        bandwidth: ArrayLike,
        egress_bandwidth: Optional[ArrayLike] = None,
        num_egress_ports: Optional[int] = None,
    ):
        self.ingress = PortSet(num_ports, bandwidth)
        self.egress = PortSet(
            num_egress_ports if num_egress_ports is not None else num_ports,
            egress_bandwidth if egress_bandwidth is not None else bandwidth,
        )
        # Per-port feasibility limits ``caps·(1 + FEASIBILITY_RTOL)``;
        # capacities are fixed, so they are computed once.
        self._limit_in = self.ingress.capacity * (1 + FEASIBILITY_RTOL)
        self._limit_out = self.egress.capacity * (1 + FEASIBILITY_RTOL)

    @property
    def num_ingress(self) -> int:
        return len(self.ingress)

    @property
    def num_egress(self) -> int:
        return len(self.egress)

    def bad_endpoint(
        self, src: np.ndarray, dst: np.ndarray
    ) -> Optional[Tuple[int, str]]:
        """The first flow that references a non-existent port, as
        ``(flow index, message)``, or ``None``."""
        bad = []
        for side, ports, n in (
            ("src", src, self.num_ingress), ("dst", dst, self.num_egress)
        ):
            if len(ports) and (ports.min() < 0 or ports.max() >= n):
                j = int(((ports < 0) | (ports >= n)).argmax())
                bad.append((j, f"flow {side} {int(ports[j])} out of range "
                               f"for fabric of {n} ports"))
        return min(bad) if bad else None

    def validate_endpoints(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Raise if any flow references a non-existent port."""
        bad = self.bad_endpoint(src, dst)
        if bad is not None:
            raise ConfigurationError(bad[1])

    def check_feasible(self, src: np.ndarray, dst: np.ndarray, rates: np.ndarray) -> None:
        """Verify a rate vector respects every port capacity.

        Raises
        ------
        SchedulingError
            If any ingress or egress port is oversubscribed beyond
            :data:`FEASIBILITY_RTOL`.
        """
        if len(rates) == 0:
            return
        if rates.min() < 0:
            raise SchedulingError("negative rate in allocation")
        for side, ports, limit in (
            ("ingress", src, self._limit_in),
            ("egress", dst, self._limit_out),
        ):
            load = np.bincount(ports, weights=rates, minlength=len(limit))
            over = load > limit
            if np.count_nonzero(over):
                caps = getattr(self, side).capacity
                p = worst_violator(load, caps, over)
                raise SchedulingError(
                    f"{side} port {p} oversubscribed: "
                    f"{load[p]:.6g} > {caps[p]:.6g} B/s"
                )

    def flow_link_cap(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per-flow end-to-end link capacity ``min(B_s, B_r)`` (Eq. 2)."""
        return np.minimum(self.ingress.capacity[src], self.egress.capacity[dst])

    def fresh_extra(self, src: np.ndarray, dst: np.ndarray) -> list:
        """Additional capacity dimensions beyond the two port sides.

        The ideal big switch has none; oversubscribed fabrics
        (:class:`repro.fabric.twotier.TwoTierFabric`) return their rack
        uplink/downlink constraints here, as writable fresh copies.
        """
        return []
