"""Deadline-aware coflow scheduling (Varys-style extension).

Varys' second objective — which the Swallow paper inherits the machinery
for but does not evaluate — is *guaranteed coflow completion within
deadline*: a coflow is **admitted** only if the minimum rates that finish
it by its deadline fit into the capacity left over by previously admitted
coflows; admitted coflows then receive exactly those rates
(earliest-deadline-first), and leftover bandwidth serves best-effort
traffic.

Deadlines are per-coflow (``Coflow.deadline``, seconds after arrival);
coflows without one are best-effort and scheduled SEBF-style behind the
admitted set.  Rejected coflows are not dropped (the simulator must finish
them) — they are demoted to best-effort, mirroring Varys' practice of
running rejected coflows without guarantees.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.core import rate_allocation as ra
from repro.core.scheduler import Allocation, CoflowState, Scheduler, SchedulerView


class DeadlineEDF(Scheduler):
    """Earliest-deadline-first with Varys-style admission control.

    Parameters
    ----------
    admission:
        When ``True`` (default), a newly arrived deadline coflow is
        admitted only if its required rates fit the residual capacity; when
        ``False`` every deadline coflow is treated as admitted (EDF without
        guarantees — the classic comparison point).
    """

    name = "edf-deadline"

    def __init__(self, admission: bool = True):
        self.admission = admission
        self._admitted: Set[int] = set()
        self._rejected: Set[int] = set()

    def reset(self) -> None:
        self._admitted.clear()
        self._rejected.clear()

    # ------------------------------------------------------------------ state
    def was_admitted(self, coflow_id: int) -> bool:
        return coflow_id in self._admitted

    @property
    def rejected_count(self) -> int:
        return len(self._rejected)

    # -------------------------------------------------------------- mechanics
    def _required_rates(
        self, view: SchedulerView, cs: CoflowState
    ) -> np.ndarray:
        """Minimum per-flow rates finishing the coflow by its deadline.

        Targets one slice *before* the deadline: completions are observed
        only at slice boundaries, so a flow draining exactly at its
        deadline would be reported one slice late and counted as a miss.
        """
        deadline_abs = cs.coflow.arrival + float(cs.coflow.deadline)
        remaining = max(deadline_abs - view.time - view.slice_len, view.slice_len)
        return view.volume[cs.flow_idx] / remaining

    def _try_admit(self, view, cs, dims) -> bool:
        """Check the newcomer's demands against residual capacity.

        ``dims`` already has every admitted coflow's demand subtracted; the
        newcomer fits iff *all* of its flows find their required rates
        simultaneously — so the check consumes on a scratch copy (two flows
        of one coflow may share a port).
        """
        scratch = [(groups, caps.copy()) for groups, caps in dims]
        req = self._required_rates(view, cs)
        for i, r in zip(cs.flow_idx, req):
            if ra.flow_headroom(int(i), scratch) < r * (1 - 1e-9):
                return False
            ra.consume(int(i), float(r), scratch)
        return True

    def schedule(self, view: SchedulerView) -> Allocation:
        n = view.num_flows
        if n == 0:
            return Allocation.idle(0)
        rem_in, rem_out = view.fresh_capacity()
        extra = view.fresh_extra()
        dims = ra.build_dims(view.src, view.dst, rem_in, rem_out, extra)
        rates = np.zeros(n)

        with_deadline = [
            cs for cs in view.coflows if cs.coflow.deadline is not None
        ]
        best_effort = [cs for cs in view.coflows if cs.coflow.deadline is None]
        with_deadline.sort(key=lambda cs: cs.coflow.arrival + cs.coflow.deadline)

        # Serve the already-admitted set first (EDF), consuming capacity.
        newcomers: List[CoflowState] = []
        for cs in with_deadline:
            if not self.admission:
                self._admitted.add(cs.coflow_id)
            if cs.coflow_id in self._admitted:
                req = self._required_rates(view, cs)
                for i, r in zip(cs.flow_idx, req):
                    r = min(float(r), ra.flow_headroom(int(i), dims))
                    rates[i] = r
                    ra.consume(int(i), r, dims)
            elif cs.coflow_id not in self._rejected:
                newcomers.append(cs)

        # Admission decisions for newcomers, earliest deadline first.
        for cs in newcomers:
            if self._try_admit(view, cs, dims):
                self._admitted.add(cs.coflow_id)
                req = self._required_rates(view, cs)
                for i, r in zip(cs.flow_idx, req):
                    rates[i] = float(r)
                    ra.consume(int(i), float(r), dims)
            else:
                self._rejected.add(cs.coflow_id)
                best_effort.append(cs)

        # Rejected + deadline-less coflows share the leftovers, smallest
        # remaining volume first, then everything backfills work-conservingly.
        best_effort.sort(key=lambda cs: float(view.volume[cs.flow_idx].sum()))
        for group in (best_effort, with_deadline):
            for cs in group:
                for i in cs.flow_idx:
                    room = ra.flow_headroom(int(i), dims)
                    if room <= 0 or view.volume[i] <= 0:
                        continue
                    rates[i] += room
                    ra.consume(int(i), room, dims)
        return Allocation(rates=rates)


def deadline_stats(coflow_results) -> Dict[str, float]:
    """Fraction of deadline coflows that met their deadline, plus counts."""
    with_deadline = [c for c in coflow_results if c.deadline is not None]
    met = sum(1 for c in with_deadline if c.met_deadline)
    return {
        "with_deadline": len(with_deadline),
        "met": met,
        "met_fraction": met / len(with_deadline) if with_deadline else 1.0,
    }
