"""Sincronia-style BSSI coflow ordering (extension baseline).

Sincronia (Agarwal et al., SIGCOMM 2018 — published months after Swallow)
showed that a good *order* alone, combined with any work-conserving
per-flow mechanism, is 4-approximate for average weighted CCT.  Its
Bottleneck-Sensitive Smallest-job-first ordering is the classic
primal-dual for concurrent open shop (Mastrolilli et al.'s MUSSQ):

1. find the bottleneck port ``b`` (largest aggregate remaining load);
2. among unordered coflows, place **last** the one minimising
   ``w_c / d_{c,b}`` (Smith's rule on the bottleneck: cheapest weight per
   byte of bottleneck load goes last);
3. charge the chosen coflow's ratio against everyone's weight
   (``w_c -= θ · d_{c,b}``) and recurse on the rest.

We recompute the order at every decision point over *remaining* volumes
(Sincronia recomputes per epoch) and serve flows greedily in that order —
making this the strongest ordering-only baseline in the registry, a
natural yardstick for what FVDF's compression adds beyond ordering.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core import rate_allocation as ra
from repro.core.scheduler import Allocation, Scheduler, SchedulerView
from repro.errors import ConfigurationError


def bssi_order(
    loads: np.ndarray, weights: Optional[np.ndarray] = None
) -> List[int]:
    """Order coflows by BSSI/MUSSQ.

    Parameters
    ----------
    loads:
        Array of shape ``(num_coflows, num_ports)``: each coflow's
        remaining bytes on each port (both fabric sides concatenated).
    weights:
        Per-coflow weights (default 1): higher weight = more urgent.

    Returns
    -------
    list of coflow indices, highest priority first.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 2:
        raise ConfigurationError("loads must be (num_coflows, num_ports)")
    n = loads.shape[0]
    w = (
        np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64).copy()
    )
    if len(w) != n or np.any(w < 0):
        raise ConfigurationError("weights must align with loads and be >= 0")
    remaining = list(range(n))
    order_rev: List[int] = []
    while remaining:
        sub = loads[remaining]
        b = int(np.argmax(sub.sum(axis=0)))
        col = sub[:, b]
        with np.errstate(divide="ignore"):
            ratio = np.where(col > 0, w[remaining] / np.maximum(col, 1e-300), np.inf)
        if not np.isfinite(ratio).any():
            # nobody loads the bottleneck (all drained): arbitrary order.
            order_rev.extend(reversed(remaining))
            break
        pick = int(np.argmin(ratio))
        c_star = remaining[pick]
        theta = w[c_star] / col[pick] if col[pick] > 0 else 0.0
        for i, c in enumerate(remaining):
            w[c] = max(w[c] - theta * col[i], 0.0)
        order_rev.append(c_star)
        remaining.pop(pick)
    return list(reversed(order_rev))


class Sincronia(Scheduler):
    """BSSI ordering + work-conserving greedy rates.

    Per-coflow weights come from ``weight_of`` (default: 1 for every
    coflow, i.e. plain average CCT).
    """

    name = "sincronia"

    def __init__(self, weight_of=None):
        self.weight_of = weight_of or (lambda coflow: 1.0)

    def schedule(self, view: SchedulerView) -> Allocation:
        if view.num_flows == 0:
            return Allocation.idle(0)
        n_ports = view.fabric.num_ingress + view.fabric.num_egress
        coflows = view.coflows
        loads = np.zeros((len(coflows), n_ports))
        for i, cs in enumerate(coflows):
            idx = cs.flow_idx
            vol = view.volume[idx]
            loads[i, : view.fabric.num_ingress] = np.bincount(
                view.src[idx], weights=vol, minlength=view.fabric.num_ingress
            )
            loads[i, view.fabric.num_ingress :] = np.bincount(
                view.dst[idx], weights=vol, minlength=view.fabric.num_egress
            )
        weights = np.asarray([self.weight_of(cs.coflow) for cs in coflows])
        order = bssi_order(loads, weights)
        flow_order = np.concatenate([coflows[i].flow_idx for i in order])
        rem_in, rem_out = view.fresh_capacity()
        rates = ra.greedy_priority(
            flow_order, view.src, view.dst, rem_in, rem_out,
            extra=view.fresh_extra(),
        )
        return Allocation(rates=rates)
