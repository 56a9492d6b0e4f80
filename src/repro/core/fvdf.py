"""Fastest-Volume-Disposal-First — the paper's algorithm (Section IV).

The three pseudocode procedures map onto this module as:

* **Pseudocode 1** (CompressionStrategy) → :func:`compression_strategy`:
  β=1 iff the flow is compressible, a CPU core is free on its source node,
  and compression outruns transmission — ``R·(1-ξ) > B`` (Eq. 3).
* **Pseudocode 2** (FVDF / TimeCalculation / VolumeDisposal) →
  :func:`expected_fct` (Eq. 7), :func:`coflow_gamma` (Eq. 8) and
  :meth:`FVDFScheduler.schedule` (Shortest-``Γ_C``-First ordering plus the
  minimal-bandwidth allocation ``r = V / Γ_C``).
* **Pseudocode 3** (OnlineScheduling / Upgrade) → the priority classes
  ``P`` stored on :class:`~repro.core.scheduler.CoflowState`, multiplied by
  ``logbase`` at every arrival/completion and used as ``Γ_C / P``.

Volume disposal itself (line 24–35) is executed by the engine
(:mod:`repro.core.simulator`), which integrates the chosen rates and
compression assignments over the slice window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import rate_allocation as ra
from repro.core.scheduler import Allocation, Scheduler, SchedulerView
from repro.errors import ConfigurationError

#: Pseudocode 3 line 16: exponential priority-upgrade base.
DEFAULT_LOGBASE = 1.2


def compression_strategy(
    view: SchedulerView,
    enable: bool = True,
    order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-flow β (Pseudocode 1), resolved against per-node core budgets.

    Parameters
    ----------
    view:
        Current scheduler view.
    enable:
        Master switch (the ``swallow.smartCompress`` option).
    order:
        Flow indices in descending scheduling importance; when a node has
        fewer free cores than candidate flows, earlier flows win.

    Returns
    -------
    numpy.ndarray
        Boolean β per active flow.
    """
    want = _compression_want(view, enable)
    if not want.any():
        return want
    return view.compression.grant_cores(
        want, view.src, view.free_cores, priority=order
    )


def _compression_want(view: SchedulerView, enable: bool) -> np.ndarray:
    """The Eq. 3 wish-list: flows that *want* a core, before budgeting."""
    n = view.num_flows
    if not enable or view.compression is None or n == 0:
        return np.zeros(n, dtype=bool)
    engine = view.compression
    want = view.compressible & (view.raw > 0)
    # Eq. 3: only compress when it disposes volume faster than the wire can.
    want &= engine.speed * (1.0 - view.xi) > view.link_cap
    # Eq. 3 compares full-slice disposals; when transmission would already
    # finish the whole flow within one slice (Δt >= V), compressing first
    # can only add slice waste — never compress such flows.
    want &= view.volume > view.link_cap * view.slice_len
    return want


def expected_fct(view: SchedulerView, beta: np.ndarray) -> np.ndarray:
    """Eq. 7: worst-case expected FCT per flow.

    One slice proceeds under the chosen β; afterwards the estimate
    pessimistically assumes compression stays off, so the residual volume
    drains at the link bandwidth ``B``.
    """
    delta = view.slice_len
    B = view.link_cap
    vol = view.volume
    if view.compression is not None:
        dc = view.compression.speed * (1.0 - view.xi) * delta
    else:
        dc = np.zeros(view.num_flows)
    dt = B * delta
    disposed = np.where(beta, dc, dt)
    residual = np.maximum(vol - disposed, 0.0)
    return delta + residual / B


def coflow_gamma(view: SchedulerView, beta: np.ndarray) -> np.ndarray:
    """Eq. 8: ``Γ_C = max_f Γ_F(f)`` for every coflow in the view.

    Returns an array aligned with ``view.coflows``.  Computed as one
    segment-max over the view's precomputed unit offsets instead of a
    Python loop per coflow.
    """
    if not view.coflows:
        return np.empty(0)
    gamma_f = expected_fct(view, beta)
    perm, starts = view.unit_offsets()
    return np.maximum.reduceat(gamma_f[perm], starts[:-1])


def upgrade(view: SchedulerView, logbase: float = DEFAULT_LOGBASE) -> None:
    """Pseudocode 3 Upgrade: exponential priority growth for waiting coflows."""
    for cs in view.coflows:
        cs.priority_class *= logbase


@dataclass
class FVDFConfig:
    """Tunable knobs of FVDF (ablation targets; defaults match the paper)."""

    #: master compression switch (``swallow.smartCompress``).
    compress: bool = True
    #: starvation-freedom upgrade base; 1.0 disables priority classes.
    logbase: float = DEFAULT_LOGBASE
    #: "minimal" (paper: r = V/Γ_C then backfill), "greedy" (strict
    #: priority), or "madd" (Varys-style minimum allocation).
    rate_policy: str = "minimal"
    #: starvation-freedom aging policy.  "paper": P grows ×logbase for
    #: *every* waiting coflow at every arrival/completion, unboundedly
    #: (Pseudocode 3 verbatim) — on event-dense traces this degenerates
    #: into arrival-order scheduling.  "starved" (default): P grows only
    #: for coflows that received no service (zero rate, no compression) in
    #: the previous window — the paper's own justification ("preempted by
    #: small coflows exceeding a certain number of times") made literal;
    #: served coflows keep their class, so aging targets exactly the
    #: starving.  "decay"/"reset": age everyone but decay/clear the head's
    #: class — kept for the ablation (both re-starve large coflows that
    #: are only served in arrival gaps).  Compared empirically in
    #: benchmarks/bench_ablation_aging.py.
    aging: str = "starved"
    #: scheduling unit: "coflow" (the paper) or "flow" (each flow treated as
    #: its own unit — the Fig. 6(a–d) flow-level comparisons).
    granularity: str = "coflow"

    def __post_init__(self) -> None:
        if self.rate_policy not in ("minimal", "greedy", "madd"):
            raise ConfigurationError(f"unknown rate_policy {self.rate_policy!r}")
        if self.granularity not in ("coflow", "flow"):
            raise ConfigurationError(f"unknown granularity {self.granularity!r}")
        if self.logbase < 1.0:
            raise ConfigurationError("logbase must be >= 1")
        if self.aging not in ("paper", "starved", "decay", "reset"):
            raise ConfigurationError(f"unknown aging policy {self.aging!r}")


class FVDFScheduler(Scheduler):
    """Fastest-Volume-Disposal-First (the paper's contribution).

    At every decision point:

    1. ``Upgrade`` priority classes if the trigger is an arrival/completion.
    2. Decide β per flow (Pseudocode 1) under per-node core budgets.
    3. Compute ``Γ_C`` per scheduling unit (Eq. 7/8) and sort by
       ``Γ_C / P`` — Shortest-``Γ_C``-First with starvation freedom.
    4. Allocate bandwidth: compressing flows sit out this window; the rest
       receive rates per the configured policy, then leftover capacity
       backfills in priority order (work conservation).
    """

    uses_compression = True

    def __init__(self, config: Optional[FVDFConfig] = None, name: Optional[str] = None):
        self.config = config or FVDFConfig()
        self.name = name or ("fvdf" if self.config.compress else "fvdf-nocompress")
        #: coflow_id -> whether it received service in the last window
        self._last_served: dict = {}

    def reset(self) -> None:
        self._last_served.clear()

    # -- helpers ---------------------------------------------------------------
    def _unit_segments(self, view: SchedulerView):
        """Scheduling units as segment arrays over the active positions.

        Returns ``(perm, starts, P, owner)``: ``perm[starts[u]:starts[u+1]]``
        are unit *u*'s flow positions, ``P[u]`` its priority class and
        ``owner[u]`` the index of its coflow in ``view.coflows``.  Coflow
        granularity reuses the view's precomputed offsets verbatim; flow
        granularity splits every position into its own unit (inheriting
        its coflow's class) without materializing per-flow arrays.
        """
        perm, starts = view.unit_offsets()
        n_cof = len(view.coflows)
        p_cof = np.fromiter(
            (cs.priority_class for cs in view.coflows),
            dtype=np.float64,
            count=n_cof,
        )
        if self.config.granularity == "coflow":
            return perm, starts, p_cof, np.arange(n_cof, dtype=np.intp)
        owner = np.repeat(np.arange(n_cof, dtype=np.intp), np.diff(starts))
        starts_f = np.arange(len(perm) + 1, dtype=np.intp)
        return perm, starts_f, p_cof[owner], owner

    @staticmethod
    def _flows_in_unit_order(perm, starts, order) -> np.ndarray:
        """Active positions concatenated unit-by-unit in ``order``.

        Equivalent to ``np.concatenate([flows(u) for u in order])`` but via
        one stable argsort over a per-position unit rank — no per-unit
        Python iteration.
        """
        n_units = len(starts) - 1
        rank = np.empty(n_units, dtype=np.intp)
        rank[order] = np.arange(n_units, dtype=np.intp)
        key = np.repeat(rank, np.diff(starts))
        return perm[np.argsort(key, kind="stable")]

    def schedule(self, view: SchedulerView) -> Allocation:
        n = view.num_flows
        if n == 0:
            return Allocation.idle(0)
        cfg = self.config
        if cfg.logbase > 1.0 and view.trigger.is_preemption_point:
            if cfg.aging == "starved":
                upgraded = 0
                for cs in view.coflows:
                    if self._last_served.get(cs.coflow_id, True) is False:
                        cs.priority_class *= cfg.logbase
                        upgraded += 1
            else:
                upgrade(view, cfg.logbase)
                upgraded = len(view.coflows)
            if upgraded:
                self.obs.metrics.counter("fvdf.upgrades").inc(upgraded)

        perm, starts, P, owner = self._unit_segments(view)

        # Pass 1: optimistic β (budget resolved in arrival order) to get a
        # provisional urgency ranking, which then decides who actually wins
        # the contended cores.
        want = _compression_want(view, cfg.compress)
        if want.any():
            beta0 = view.compression.grant_cores(
                want, view.src, view.free_cores
            )
        else:
            beta0 = want
        gamma0 = self._unit_gammas(view, beta0, perm, starts)
        provisional = np.argsort(gamma0 / P, kind="stable")

        if bool((want & ~beta0).any()):
            # Pass 2: some node had more candidates than free cores, so the
            # urgency order decides who wins — re-grant and re-rank.
            flow_order = self._flows_in_unit_order(perm, starts, provisional)
            beta = view.compression.grant_cores(
                want, view.src, view.free_cores, priority=flow_order
            )
            gamma = self._unit_gammas(view, beta, perm, starts)
            order = np.argsort(gamma / P, kind="stable")
        else:
            # Every compression wish was granted (no contended cores), so
            # priority cannot change β; β unchanged ⇒ Γ unchanged ⇒ the
            # provisional ranking is already final — skip pass 2.
            beta, gamma, order = beta0, gamma0, provisional
        flt = self.obs.recorder
        if flt.enabled:
            ranked = perm[starts[:-1]][order]
            flt.add_order(
                view.time, view.coflow_ids[ranked], gamma[order], P[order]
            )
        if cfg.aging in ("decay", "reset") and len(order) and view.trigger.is_preemption_point:
            cs = view.coflows[int(owner[order[0]])]
            if cfg.aging == "reset":
                cs.priority_class = 1.0
            else:  # decay: undo this event's upgrade and one more
                cs.priority_class = max(1.0, cs.priority_class / cfg.logbase**2)

        rates = self._allocate(view, perm, starts, order, gamma, beta)
        served_pos = (rates > 0) | beta
        cperm, cstarts = view.unit_offsets()
        served = np.logical_or.reduceat(served_pos[cperm], cstarts[:-1])
        self._last_served = {
            cs.coflow_id: bool(served[k]) for k, cs in enumerate(view.coflows)
        }
        return Allocation(rates=rates, compress=beta)

    def _unit_gammas(self, view, beta, perm, starts) -> np.ndarray:
        """Γ per unit: one segment-max over the unit offsets (Eq. 8)."""
        if len(perm) == 0:
            return np.empty(0)
        gamma_f = expected_fct(view, beta)
        return np.maximum.reduceat(gamma_f[perm], starts[:-1])

    def _allocate(self, view, perm, starts, order, gamma, beta) -> np.ndarray:
        rem_in, rem_out = view.fresh_capacity()
        extra = view.fresh_extra()
        vol = view.volume
        n = view.num_flows
        sendable = ~beta & (vol > 0)
        if self.config.rate_policy == "madd":
            groups = []
            for u in order:
                idx = perm[starts[u] : starts[u + 1]]
                groups.append(idx[sendable[idx]])
            return ra.madd(
                groups, view.src, view.dst, vol, rem_in, rem_out, extra=extra
            )
        flow_order = self._flows_in_unit_order(perm, starts, order)
        flow_order = flow_order[sendable[flow_order]]
        if self.config.rate_policy == "minimal":
            # Paper line 29: r = f.V / C.Γ_C — the minimum rate finishing the
            # flow within its coflow's expected completion time.  Both the
            # minimal pass and the work-conserving backfill are one
            # priority fill each: same flow order, with/without the V/Γ
            # demand cap.
            dims = ra.build_dims(view.src, view.dst, rem_in, rem_out, extra)
            unit_of_pos = np.empty(n, dtype=np.intp)
            unit_of_pos[perm] = np.repeat(
                np.arange(len(starts) - 1, dtype=np.intp), np.diff(starts)
            )
            demands = vol / np.maximum(gamma, view.slice_len)[unit_of_pos]
            rates = np.zeros(n)
            gathers = ra.gather_groups(flow_order, dims)
            ra.priority_fill(
                flow_order, dims, demands=demands, out=rates, gathers=gathers
            )
            minimal_total = float(rates.sum())
            # Work conservation: hand out leftovers in priority order.
            ra.priority_fill(flow_order, dims, out=rates, gathers=gathers)
            backfill = float(rates.sum()) - minimal_total
            if backfill > 0:
                self.obs.metrics.counter("fvdf.backfill_rate").inc(backfill)
            return rates
        # "greedy": strict priority in unit order.
        return ra.greedy_priority(
            flow_order, view.src, view.dst, rem_in, rem_out, extra=extra,
        )
