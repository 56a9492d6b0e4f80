"""Shared machinery for the baseline scheduling policies.

Most baselines are "order the work, then fill greedily": flow-level
policies order individual flows, coflow-level policies order coflows and
serve all flows of a higher-priority coflow before any flow of a lower one.
The two base classes here factor that out so each concrete policy is just a
key function.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core import rate_allocation as ra
from repro.core.scheduler import Allocation, Scheduler, SchedulerView
from repro.errors import ConfigurationError


class OrderedFlowScheduler(Scheduler):
    """Greedy priority filling over a per-flow ordering.

    Subclasses implement :meth:`flow_keys` returning one or more key arrays
    (least-significant last, as for :func:`numpy.lexsort` reversed); flows
    are served in ascending key order, each taking all the port capacity it
    can.
    """

    def flow_keys(self, view: SchedulerView) -> List[np.ndarray]:
        raise NotImplementedError

    def schedule(self, view: SchedulerView) -> Allocation:
        n = view.num_flows
        if n == 0:
            return Allocation.idle(0)
        keys = self.flow_keys(view)
        # lexsort sorts by the *last* key primarily.
        order = np.lexsort(tuple(reversed(keys)))
        rem_in, rem_out = view.fresh_capacity()
        rates = ra.greedy_priority(
            order, view.src, view.dst, rem_in, rem_out, extra=view.fresh_extra()
        )
        return Allocation(rates=rates)


class OrderedCoflowScheduler(Scheduler):
    """Strict coflow-priority policies (SEBF, SCF, NCF, LCF, coflow-FIFO).

    Subclasses implement :meth:`coflow_keys`, one key per coflow of the
    view; coflows are served in ascending key order (ties broken by
    arrival, then id).  Within a coflow, flows are served in index order.
    ``rate_policy`` selects between work-conserving strict priority
    ("greedy", the default — matches the paper's Fig. 4 numbers) and
    Varys' MADD ("madd").
    """

    def __init__(self, rate_policy: str = "greedy"):
        if rate_policy not in ("greedy", "madd"):
            raise ConfigurationError(f"unknown rate_policy {rate_policy!r}")
        self.rate_policy = rate_policy

    def coflow_keys(self, view: SchedulerView) -> np.ndarray:
        """Priority key of every coflow, aligned with ``view.coflows``."""
        raise NotImplementedError

    def schedule(self, view: SchedulerView) -> Allocation:
        n = view.num_flows
        if n == 0:
            return Allocation.idle(0)
        perm, starts = view.unit_offsets()
        # The ranked coflows' segments of ``perm``, in rank order; a lone
        # coflow has nothing to rank.
        ranked = np.zeros(1, dtype=np.intp)
        if len(starts) > 2:
            ids, arrivals, _ = view.coflow_columns()
            ranked = np.lexsort((ids, arrivals, self.coflow_keys(view)))
        rem_in, rem_out = view.fresh_capacity()
        extra = view.fresh_extra()
        if self.rate_policy == "madd":
            groups = [perm[starts[u] : starts[u + 1]] for u in ranked.tolist()]
            rates = ra.madd(
                groups, view.src, view.dst, view.volume, rem_in, rem_out,
                extra=extra,
            )
        else:
            order = perm
            if len(ranked) > 1:
                width = (starts[1:] - starts[:-1])[ranked]
                base = starts[ranked] - (width.cumsum() - width)
                order = perm[base.repeat(width) + np.arange(starts[-1])]
            rates = ra.greedy_priority(
                order, view.src, view.dst, rem_in, rem_out, extra=extra
            )
        return Allocation(rates=rates)
