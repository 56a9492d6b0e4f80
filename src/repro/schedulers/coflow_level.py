"""Coflow-level baselines: PFF, WSS, FIFO, PFP, SEBF, SCF, NCF, LCF.

The comparison set of Fig. 4, Fig. 6(e) and Table VI.  PFF/WSS/PFP are
coflow-*agnostic* (they act on flows and are simply *measured* at coflow
granularity); FIFO/SEBF/SCF/NCF/LCF order whole coflows.

``SEBF`` is Varys' Smallest-Effective-Bottleneck-First: a coflow's priority
is its bottleneck completion time ``Γ = max_port load/cap`` computed from
*remaining* volumes, so priorities sharpen as coflows drain.

``LCF`` is never defined in the paper (Table VI lumps "SCF/NCF/LCF"); we
implement Least-Contention-First — fewest ports shared with other active
coflows — and record the interpretation in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.core import rate_allocation as ra
from repro.core.scheduler import SchedulerView, segment_sums
from repro.schedulers.base import OrderedCoflowScheduler
from repro.schedulers.flow_level import FlowFAIR, FlowPFP, FlowWSS


class CoflowPFF(FlowFAIR):
    """Per-Flow Fairness measured at coflow granularity (same allocation)."""

    name = "pff"


class CoflowWSS(FlowWSS):
    """Weighted Shuffle Scheduling measured at coflow granularity."""

    name = "wss"


class CoflowPFP(FlowPFP):
    """Per-flow smallest-size-first measured at coflow granularity."""

    name = "pfp"


class CoflowFIFO(OrderedCoflowScheduler):
    """Whole-coflow FIFO: the earliest-arrived coflow owns the fabric."""

    name = "coflow-fifo"

    def coflow_keys(self, view: SchedulerView) -> np.ndarray:
        return view.coflow_columns()[1]


def _unit_of_pos(starts: np.ndarray) -> np.ndarray:
    """Coflow ordinal of every position of the view's unit permutation."""
    n_cof = len(starts) - 1
    return np.arange(n_cof, dtype=np.intp).repeat(starts[1:] - starts[:-1])


class SEBF(OrderedCoflowScheduler):
    """Varys' Smallest-Effective-Bottleneck-First."""

    name = "sebf"

    def coflow_keys(self, view: SchedulerView) -> np.ndarray:
        """Γ of every coflow: ``max_c load_c / cap_c`` over every capacity
        dimension (rack dimensions included), infinite when a used
        constraint has no capacity.  One ``bincount`` per dimension over
        (coflow, group) bins accumulates each bin in the coflow's flow
        order, as a per-coflow ``bincount`` would."""
        perm, starts = view.unit_offsets()
        n_cof = len(starts) - 1
        unit = _unit_of_pos(starts)
        vol = view.volume[perm]
        gamma = np.zeros(n_cof)
        dims = ra.build_dims(
            view.src, view.dst, view.fabric.ingress.capacity,
            view.fabric.egress.capacity, view.fresh_extra(),
        )
        for groups, caps in dims:
            g = groups[perm]
            member = g >= 0
            m = len(caps)
            load = np.bincount(
                unit[member] * m + g[member], weights=vol[member],
                minlength=n_cof * m,
            ).reshape(n_cof, m)
            used = load > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(used, load / caps, 0.0)
            ratio[used & (caps <= 0)] = np.inf
            np.maximum(gamma, ratio.max(axis=1, initial=0.0), out=gamma)
        return gamma


class SCF(OrderedCoflowScheduler):
    """Smallest-Coflow-First: total remaining bytes ascending."""

    name = "scf"

    def coflow_keys(self, view: SchedulerView) -> np.ndarray:
        perm, starts = view.unit_offsets()
        return segment_sums((view.volume[perm],), starts[1:] - starts[:-1])[0]


class NCF(OrderedCoflowScheduler):
    """Narrowest-Coflow-First: smallest width (static member count) first.

    Width is a static property of the coflow — using the *remaining* flow
    count instead would flip priorities mid-run as wide coflows drain.
    """

    name = "ncf"

    def coflow_keys(self, view: SchedulerView) -> np.ndarray:
        return view.coflow_columns()[2].astype(np.float64)


class LCF(OrderedCoflowScheduler):
    """Least-Contention-First: fewest ports shared with other coflows."""

    name = "lcf"

    def coflow_keys(self, view: SchedulerView) -> np.ndarray:
        """Ports shared with each other coflow, summed: with ``M`` the
        coflow × port presence matrix (ingress ports, then egress), a
        coflow shares port ``p`` with ``colsum[p] - 1`` others."""
        perm, starts = view.unit_offsets()
        n_in = view.fabric.num_ingress
        presence = np.zeros(
            (len(starts) - 1, n_in + view.fabric.num_egress), dtype=np.int64
        )
        unit = _unit_of_pos(starts)
        presence[unit, view.src[perm]] = 1
        presence[unit, n_in + view.dst[perm]] = 1
        contention = presence @ (presence.sum(axis=0) - 1)
        return contention.astype(np.float64)
