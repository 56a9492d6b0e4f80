"""Fastest-Volume-Disposal-First — the paper's algorithm (Section IV).

The three pseudocode procedures map onto this module as:

* **Pseudocode 1** (CompressionStrategy) → :func:`compression_strategy`:
  β=1 iff the flow is compressible, a CPU core is free on its source node,
  and compression outruns transmission — ``R·(1-ξ) > B`` (Eq. 3).
* **Pseudocode 2** (FVDF / TimeCalculation / VolumeDisposal) →
  :func:`expected_fct` (Eq. 7), :func:`coflow_gamma` (Eq. 8) and
  :meth:`FVDFScheduler.schedule` (Shortest-``Γ_C``-First ordering plus the
  minimal-bandwidth allocation ``r = V / Γ_C``).
* **Pseudocode 3** (OnlineScheduling / Upgrade) → :func:`upgrade`: the
  priority classes ``P``, a per-coflow engine column read and written
  through :meth:`~repro.core.scheduler.SchedulerView.priority_columns`,
  multiplied by ``logbase`` at every arrival/completion and used as
  ``Γ_C / P``.

Volume disposal itself (line 24–35) is executed by the engine
(:mod:`repro.core.simulator`), which integrates the chosen rates and
compression assignments over the slice window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    if not np.count_nonzero(want):
        return want
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
    disposed = B * delta
    if np.count_nonzero(beta):
        if view.compression is not None:
            dc = view.compression.speed * (1.0 - view.xi) * delta
        else:
            dc = np.zeros(view.num_flows)
        disposed = np.where(beta, dc, disposed)
    residual = np.maximum(vol - disposed, 0.0)
    return delta + residual / B


def coflow_gamma(view: SchedulerView, beta: np.ndarray) -> np.ndarray:
    """Eq. 8: ``Γ_C = max_f Γ_F(f)`` for every coflow in the view.

    Returns an array in the view's coflow-grouping order.  Computed as
    one segment-max over the view's precomputed unit offsets instead of
    a Python loop per coflow.
    """
    perm, starts = view.unit_offsets()
    if len(starts) < 2:
        return np.empty(0)
    gamma_f = expected_fct(view, beta)
    return np.maximum.reduceat(gamma_f[perm], starts[:-1])


def upgrade(
    view: SchedulerView, logbase: float = DEFAULT_LOGBASE, waiting=True
) -> np.ndarray:
    """Pseudocode 3 Upgrade: exponential priority growth for waiting coflows.

    Multiplies ``P`` by ``logbase`` for the coflows that ``waiting``
    masks (in grouping order; every coflow by default), writes it back
    to the view's priority column and returns it in grouping order.
    """
    slots, prio, _ = view.priority_columns()
    p = prio[slots]
    np.multiply(p, logbase, out=p, where=waiting)
    prio[slots] = p
    return p


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
    #: starving.  "reset": age everyone but clear the head's class at
    #: each event.  It is in the ablation
    #: (benchmarks/bench_ablation_aging.py) because it re-starves a large
    #: coflow that is only served in arrival gaps, just as aging off does
    #: (there both leave the large coflow a 41 s CCT).
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
        if self.aging not in ("paper", "starved", "reset"):
            raise ConfigurationError(f"unknown aging policy {self.aging!r}")


class Decision(NamedTuple):
    """What one :meth:`FVDFScheduler.schedule` call decided.

    References to arrays the decision built anyway, kept until the next
    one.  Per-flow arrays are aligned with the view's active positions;
    ``perm[starts[u]:starts[u+1]]`` are unit *u*'s positions and
    ``order`` ranks the units, highest priority first.
    """

    flow_ids: np.ndarray
    coflow_ids: np.ndarray
    perm: np.ndarray
    starts: np.ndarray
    order: np.ndarray
    #: per unit: ``Γ_C`` (Eq. 8) and priority class ``P`` (Pseudocode 3)
    gamma: np.ndarray
    priority: np.ndarray
    #: per flow: granted rate and β
    rates: np.ndarray
    beta: np.ndarray


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

    The decision stays in :attr:`last` until the next one; the Table IV
    ``scheduling()`` (:class:`~repro.swallow.context.SwallowContext`)
    returns it.
    """

    uses_compression = True

    def __init__(self, config: Optional[FVDFConfig] = None, name: Optional[str] = None):
        self.config = config or FVDFConfig()
        self.name = name or ("fvdf" if self.config.compress else "fvdf-nocompress")
        #: the most recent decision, i.e. the allocation in force
        self.last: Optional[Decision] = None

    def reset(self) -> None:
        self.last = None

    def __getstate__(self) -> dict:
        # ``last`` holds the engine's arrays, not policy state.
        state = super().__getstate__()
        state["last"] = None
        return state

    # -- helpers ---------------------------------------------------------------
    def _unit_segments(self, view: SchedulerView, p_cof: np.ndarray):
        """Scheduling units as segment arrays over the active positions.

        Returns ``(perm, starts, P, owner)``: ``perm[starts[u]:starts[u+1]]``
        are unit *u*'s flow positions, ``P[u]`` its priority class and
        ``owner[u]`` the index of its coflow in the grouping, whose
        classes are ``p_cof``.  Coflow granularity reuses the view's
        precomputed offsets verbatim; flow granularity splits every
        position into its own unit (inheriting its coflow's class)
        without materializing per-flow arrays.
        """
        perm, starts = view.unit_offsets()
        n_cof = len(p_cof)
        if self.config.granularity == "coflow":
            return perm, starts, p_cof, np.arange(n_cof, dtype=np.intp)
        owner = np.arange(n_cof, dtype=np.intp).repeat(starts[1:] - starts[:-1])
        starts_f = np.arange(len(perm) + 1, dtype=np.intp)
        return perm, starts_f, p_cof[owner], owner

    @staticmethod
    def _flows_in_unit_order(perm, starts, order) -> np.ndarray:
        """Active positions concatenated unit-by-unit in ``order``.

        Equivalent to ``np.concatenate([flows(u) for u in order])`` but as
        one O(n) gather, no sort and no per-unit Python iteration: output
        slot ``k`` of unit ``order[j]``'s run reads ``perm`` at that unit's
        start plus ``k``, i.e. at ``repeat(start − out_start, L) + arange``
        with ``L`` the units' lengths in ``order`` and ``out_start`` their
        exclusive running sum.
        """
        lengths = (starts[1:] - starts[:-1])[order]
        shift = (starts[:-1][order] - (lengths.cumsum() - lengths)).repeat(
            lengths
        )
        return perm[shift + np.arange(len(shift), dtype=np.intp)]

    def schedule(self, view: SchedulerView) -> Allocation:
        n = view.num_flows
        if n == 0:
            return Allocation.idle(0)
        cfg = self.config
        # P and the served flags of the grouping's coflows: gathered once,
        # aged in one masked multiply, scattered back once each.
        slots, prio, served = view.priority_columns()
        event = view.trigger.is_preemption_point
        upgraded = 0
        if cfg.logbase > 1.0 and event:
            if cfg.aging == "starved":
                # Age only the coflows the last window left idle; one
                # that arrived since then counts as served.
                waiting = ~served[slots]
                upgraded = int(np.count_nonzero(waiting))
            else:
                waiting, upgraded = True, len(slots)
        if upgraded:
            p_cof = upgrade(view, cfg.logbase, waiting)
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("fvdf.upgrades").inc(upgraded)
        else:
            p_cof = prio[slots]

        perm, starts, P, owner = self._unit_segments(view, p_cof)

        # Pass 1: optimistic β (budget resolved in arrival order) to get a
        # provisional urgency ranking, which then decides who actually wins
        # the contended cores.
        want = _compression_want(view, cfg.compress)
        wanted = np.count_nonzero(want)
        if wanted:
            beta0 = view.compression.grant_cores(
                want, view.src, view.free_cores
            )
        else:
            beta0 = want
        gamma0 = self._unit_gammas(view, beta0, perm, starts)
        provisional = (gamma0 / P).argsort(kind="stable")

        if wanted and np.count_nonzero(want & ~beta0):
            # Pass 2: some node had more candidates than free cores, so the
            # urgency order decides who wins — re-grant and re-rank.
            flow_order = self._flows_in_unit_order(perm, starts, provisional)
            beta = view.compression.grant_cores(
                want, view.src, view.free_cores, priority=flow_order
            )
            gamma = self._unit_gammas(view, beta, perm, starts)
            order = (gamma / P).argsort(kind="stable")
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
        if cfg.aging == "reset" and len(order) and event:
            prio[slots[owner[order[0]]]] = 1.0

        rates = self._allocate(view, perm, starts, order, gamma, beta)
        served_pos = (rates > 0) | beta
        cperm, cstarts = view.unit_offsets()
        served[slots] = np.logical_or.reduceat(served_pos[cperm], cstarts[:-1])
        self.last = Decision(
            view.flow_ids, view.coflow_ids, perm, starts, order, gamma, P,
            rates, beta,
        )
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
            unit_of_pos[perm] = np.arange(len(starts) - 1, dtype=np.intp).repeat(
                starts[1:] - starts[:-1]
            )
            demands = vol / np.maximum(gamma, view.slice_len)[unit_of_pos]
            rates = np.zeros(n)
            # priority_fill reads the gathers only past 8 flows.
            gathers = (
                ra.gather_groups(flow_order, dims) if len(flow_order) > 8
                else None
            )
            ra.priority_fill(
                flow_order, dims, demands=demands, out=rates, gathers=gathers
            )
            metrics = self.obs.metrics
            if metrics.enabled:
                minimal_total = float(rates.sum())
            # Work conservation: hand out leftovers in priority order.
            ra.priority_fill(flow_order, dims, out=rates, gathers=gathers)
            if metrics.enabled:
                backfill = float(rates.sum()) - minimal_total
                if backfill > 0:
                    metrics.counter("fvdf.backfill_rate").inc(backfill)
            return rates
        # "greedy": strict priority in unit order.
        return ra.greedy_priority(
            flow_order, view.src, view.dst, rem_in, rem_out, extra=extra,
        )
