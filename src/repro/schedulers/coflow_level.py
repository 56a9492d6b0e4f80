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
        constraint has no capacity.  One ``bincount`` over (coflow,
        constraint) bins, the constraints of every dimension on one
        axis, accumulates each bin in the coflow's flow order, as a
        per-coflow ``bincount`` would; an exempt flow (group -1) lands
        in a last column of capacity +inf, whose ratio is 0."""
        perm, starts = view.unit_offsets()
        n_cof = len(starts) - 1
        dims = ra.build_dims(
            view.src, view.dst, view.fabric.ingress.capacity,
            view.fabric.egress.capacity, view.fresh_extra(),
        )
        caps = np.concatenate([c for _, c in dims] + [[np.inf]])
        slot = len(caps) - 1
        cols = []
        offset = 0
        for groups, c in dims:
            g = groups[perm]
            cols.append(np.where(g >= 0, g + offset, slot))
            offset += len(c)
        unit = _unit_of_pos(starts) * len(caps)
        load = np.bincount(
            np.concatenate([unit + col for col in cols]),
            weights=np.concatenate([view.volume[perm]] * len(dims)),
            minlength=n_cof * len(caps),
        ).reshape(n_cof, len(caps))
        used = load > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(used, load / caps, 0.0)
        ratio[used & (caps <= 0)] = np.inf
        return ratio.max(axis=1, initial=0.0)


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
