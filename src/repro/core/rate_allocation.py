"""Rate-allocation policies on the fabric's capacity constraints.

Every scheduler in this library reduces to one of three primitives over a
set of linear capacity *dimensions*:

* :func:`greedy_priority` — serve flows in a strict priority order, each
  taking as much of the remaining capacity as it can.  This is the
  work-conserving preemptive-priority allocation used by FIFO, SRTF, PFP,
  SEBF ("greedy" policy) and the backfill stages of MADD/FVDF.
* :func:`maxmin_fair` — (weighted) max-min fairness via progressive
  filling.  With unit weights this is Per-Flow Fairness (PFF/FAIR); with
  weights proportional to flow size it is Orchestra's Weighted Shuffle
  Scheduling (WSS).
* :func:`madd` — Varys' Minimum-Allocation-for-Desired-Duration: each
  coflow, in priority order, receives the *minimum* rates that finish all
  its flows exactly at its bottleneck completion time, leaving the rest of
  the fabric to lower-priority coflows.

A *dimension* is a pair ``(groups, caps)``: ``groups[i]`` is the index of
the constraint flow *i* occupies in that dimension (−1 = exempt) and
``caps`` the per-constraint remaining capacity, mutated in place as rates
are handed out.  The paper's big switch has exactly two dimensions —
(src, ingress capacities) and (dst, egress capacities) — which the public
signatures take directly; oversubscribed fabrics
(:class:`repro.fabric.twotier.TwoTierFabric`) add rack-uplink dimensions
through the ``extra`` parameter, and every policy honours them without
change.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import fill
from repro.errors import ConfigurationError

#: Relative epsilon used to decide saturation in iterative filling.
_EPS = 1e-12

#: Below this many unsettled flows, fill rounds hand off to the list-based
#: scalar tail (~0.25 µs/flow): per-round numpy-call overhead (~30 kernel
#: launches over the contention-chain depth) only amortizes once the
#: working set is large enough for memory bandwidth to dominate.  Tuned on
#: the bench grid's burst case, where the pure list tail beat the
#: vectorized rounds for every pool up to several thousand flows.
_SCALAR_TAIL = 4096

#: One capacity dimension: (per-flow group index with -1 = exempt, caps).
Dimension = Tuple[np.ndarray, np.ndarray]


def build_dims(
    src: np.ndarray,
    dst: np.ndarray,
    rem_in: np.ndarray,
    rem_out: np.ndarray,
    extra: Optional[Sequence[Dimension]],
) -> List[Dimension]:
    dims: List[Dimension] = [(src, rem_in), (dst, rem_out)]
    if extra:
        for groups, caps in extra:
            dims.append((np.asarray(groups, dtype=np.intp), caps))
    return dims


def flow_headroom(i: int, dims: Sequence[Dimension]) -> float:
    """Remaining end-to-end capacity available to flow ``i``."""
    room = np.inf
    for groups, caps in dims:
        g = groups[i]
        if g >= 0:
            room = min(room, caps[g])
    return float(max(room, 0.0))


def consume(i: int, rate: float, dims: Sequence[Dimension]) -> None:
    """Charge ``rate`` to every constraint flow ``i`` occupies."""
    for groups, caps in dims:
        g = groups[i]
        if g >= 0:
            caps[g] -= rate


def headroom_all(dims: Sequence[Dimension], n: int) -> np.ndarray:
    """Per-flow end-to-end headroom over all dimensions, vectorized.

    Equivalent to ``[flow_headroom(i, dims) for i in range(n)]``: the
    min over member dimensions of the group's remaining capacity,
    clipped at zero; flows exempt everywhere get ``inf``.
    """
    room = np.full(n, np.inf)
    for groups, caps in dims:
        member = groups >= 0
        np.minimum(
            room, caps[np.clip(groups, 0, None)], where=member, out=room
        )
    return np.maximum(room, 0.0)


def gather_groups(
    order: np.ndarray, dims: Sequence[Dimension]
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """Pre-gather each dimension's group column in priority order.

    Returns ``(ogroups, members, safe)`` for :func:`priority_fill`'s
    ``gathers`` parameter, so callers issuing several fills with the same
    ``order`` (e.g. a minimal pass plus its backfill) pay the gathers
    once.
    """
    ogroups = [np.asarray(groups, dtype=np.intp)[order] for groups, _ in dims]
    members = [og >= 0 for og in ogroups]
    safe = [np.clip(og, 0, None) for og in ogroups]
    return ogroups, members, safe


def priority_fill(
    order: np.ndarray,
    dims: Sequence[Dimension],
    demands: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    n: Optional[int] = None,
    gathers: Optional[Tuple[List[np.ndarray], ...]] = None,
) -> np.ndarray:
    """Sequential priority filling, computed with whole-group steps.

    Semantically identical to the scalar loop every priority policy used
    to run::

        for i in order:
            r = flow_headroom(i, dims)
            if demands is not None:
                r = min(r, demands[i])
            if r <= 0.0:
                continue
            rates[i] += r
            consume(i, r, dims)

    but instead of paying two Python calls per flow it settles flows in
    bulk.  With ``demands``, flows whose every constraint group can
    absorb the *total* demand of its members are granted exactly their
    demand wholesale (the fabric's steady state); the contended remainder
    is settled by :func:`_fill_contended_demands` in prefix-sized rounds.
    Without ``demands`` (backfill), flows settle in head-rounds: per
    round, the highest-priority unsettled flow of every constraint group
    (its "head") has every higher-priority competitor already settled, so
    its headroom against the current capacities is final and it is
    granted immediately.  Either way each round settles at least the
    globally first unsettled flow and drained constraints collapse their
    whole remaining queue, so the number of rounds tracks the deepest
    contention chain, not the flow count.

    Parameters
    ----------
    order:
        Flow indices from highest to lowest priority.
    dims:
        Capacity dimensions; ``caps`` arrays are mutated in place.
    demands:
        Optional per-flow rate caps (indexed by flow id, like ``order``).
    out:
        Optional rates array to accumulate into (created when omitted).
    n:
        Length of the rates array when ``out`` is omitted; defaults to
        the max dimension group array length.
    gathers:
        Optional ``(ogroups, members, safe)`` from :func:`gather_groups`
        for this exact ``order``, letting repeated fills skip the
        per-dimension gathers.

    Returns
    -------
    numpy.ndarray
        The (accumulated) per-flow rates.
    """
    if out is None:
        if n is None:
            n = max((len(groups) for groups, _ in dims), default=0)
        out = np.zeros(n, dtype=np.float64)
    order = np.asarray(order, dtype=np.intp)
    m = len(order)
    if m == 0:
        return out
    if m <= 8:
        # Tiny fills: the scalar loop beats any vectorized setup cost.
        for i in order:
            r = flow_headroom(i, dims)
            if demands is not None:
                r = min(r, float(demands[i]))
            if r <= 0.0:
                continue
            out[i] += r
            consume(i, r, dims)
        return out
    # Gather each dimension's group column once, in priority order
    # (reused across fills when the caller passes them in).
    if gathers is None:
        ogroups, members, safe = gather_groups(order, dims)
    else:
        ogroups, members, safe = gathers
    ndim = len(ogroups)
    if demands is not None:
        odemand = np.asarray(demands, dtype=np.float64)[order]
        # A non-positive demand is skipped without consuming: settled.
        settled = odemand <= 0.0
        # Contention partition.  A constraint group is *overloaded* when
        # the total demand of its unsettled members exceeds its remaining
        # capacity; a flow is *contended* when any of its groups is
        # overloaded.  Every uncontended flow receives exactly its demand
        # under sequential filling — each of its groups can absorb the
        # demand of all members (contended members never take more than
        # their demand either), so its headroom is >= its demand at its
        # turn regardless of position — and can be granted wholesale.
        # Only the contended remainder needs the rounds loop below.  This
        # is the steady state of FVDF's minimal pass (rates r = V/Γ fit
        # by construction unless the fabric is overloaded), where it
        # settles the whole fill in one shot.
        want = np.where(settled, 0.0, odemand)
        contended = np.zeros(m, dtype=bool)
        loads = []
        for (_, caps), og, member, sg in zip(dims, ogroups, members, safe):
            load = np.bincount(
                og[member], weights=want[member], minlength=len(caps)
            )
            over = load > caps
            if over.any():
                contended |= member & over[sg]
            loads.append(load)
        unc = ~settled & ~contended
        if not contended.any():
            if unc.any():
                np.add.at(out, order[unc], want[unc])
                for (_, caps), load in zip(dims, loads):
                    caps -= load
            return out
        if unc.any():
            np.add.at(out, order[unc], want[unc])
            for (_, caps), og, member in zip(dims, ogroups, members):
                mu = member & unc
                caps -= np.bincount(
                    og[mu], weights=want[mu], minlength=len(caps)
                )
        return _fill_contended_demands(
            out, order, dims, want, ~settled & contended,
            ogroups, members, safe,
        )
    # Backfill rounds over the shrinking open set.  A flow is ready when
    # it heads the remaining queue of every group it occupies: all
    # higher-priority competitors settled, so its headroom against the
    # current caps is final.  Heads of one round never share a group, so
    # the whole round commits with plain fancy indexing — no ``ufunc.at``
    # scatter needed for the capacity update.  ``op`` holds the
    # still-open positions in priority order; each round settles at least
    # the globally first open flow, and drained constraints collapse
    # their whole queue at once (caps never grow during a fill, so a zero
    # now is a zero at their turn too), so the number of rounds tracks
    # the deepest contention chain, not the flow count.  Small open sets
    # finish in the scalar loop — chain tails cost less flow-by-flow than
    # round-by-round.  Flows with no headroom *now* are dropped up front:
    # capacities only shrink during a fill, so they could never receive
    # anything at their turn either — this makes backfill after a
    # saturating pass (FVDF minimal, MADD) nearly free.
    room0 = np.full(m, np.inf)
    for (_, caps), member, sg in zip(dims, members, safe):
        np.minimum(room0, caps[sg], where=member, out=room0)
    op = np.flatnonzero(room0 > 0.0)
    while op.size:
        if op.size <= _SCALAR_TAIL:
            # Chain tail: backfill is the demand-capped loop with an
            # infinite demand (r = headroom at the flow's turn).
            _scalar_tail_demands(
                out,
                dims,
                order[op],
                np.full(op.size, math.inf),
                [mem[op] for mem in members],
                [s[op] for s in safe],
            )
            break
        ready = np.ones(op.size, dtype=bool)
        for d in range(ndim):
            memb = members[d][op]
            mp = np.flatnonzero(memb)
            if mp.size == 0:
                continue
            gm = safe[d][op[mp]]
            # First open member of each group, via reversed last-wins
            # scatter: O(num_groups) per round, no sort.
            first = np.full(len(dims[d][1]), -1, dtype=np.intp)
            first[gm[::-1]] = mp[::-1]
            heads = np.zeros(op.size, dtype=bool)
            heads[first[gm]] = True
            ready &= heads | ~memb
        rp = op[ready]
        room = np.full(rp.size, np.inf)
        for d, (_, caps) in enumerate(dims):
            np.minimum(room, caps[safe[d][rp]], where=members[d][rp], out=room)
        r = np.maximum(room, 0.0)
        give = r > 0.0
        gp = rp[give]
        rg = r[give]
        if gp.size:
            np.add.at(out, order[gp], rg)
            for d, (_, caps) in enumerate(dims):
                gm = members[d][gp]
                caps[safe[d][gp][gm]] -= rg[gm]
        op = op[~ready]
        if op.size:
            drop = np.zeros(op.size, dtype=bool)
            for d, (_, caps) in enumerate(dims):
                dead = caps <= 0.0
                if dead.any():
                    drop |= members[d][op] & dead[safe[d][op]]
            if drop.any():
                op = op[~drop]
    return out


def _scalar_tail_demands(
    out: np.ndarray,
    dims: Sequence[Dimension],
    osub: np.ndarray,
    wsub: np.ndarray,
    memb_s: Sequence[np.ndarray],
    safe_s: Sequence[np.ndarray],
) -> None:
    """Settle a demand-capped pool flow-by-flow on plain Python lists.

    Bit-identical to the scalar reference loop (Python floats are IEEE
    doubles) but ~10x cheaper per flow than numpy scalar indexing.  The
    two-dimension case (the big switch without extra uplink dims) runs a
    dedicated ``zip`` loop; capacities are written back at the end.
    """
    ndim = len(memb_s)
    caps_l = [caps.tolist() for _, caps in dims]
    gi: list = []
    gr: list = []
    if ndim == 2:
        c0, c1 = caps_l
        for pos, (w, m0, g0, m1, g1) in enumerate(
            zip(
                wsub.tolist(),
                memb_s[0].tolist(),
                safe_s[0].tolist(),
                memb_s[1].tolist(),
                safe_s[1].tolist(),
            )
        ):
            r = w
            if m0 and c0[g0] < r:
                r = c0[g0]
            if m1 and c1[g1] < r:
                r = c1[g1]
            if r <= 0.0:
                continue
            gi.append(pos)
            gr.append(r)
            if m0:
                c0[g0] -= r
            if m1:
                c1[g1] -= r
    else:
        gl = [s.tolist() for s in safe_s]
        ml = [m.tolist() for m in memb_s]
        wl = wsub.tolist()
        for pos in range(len(wl)):
            r = wl[pos]
            for d in range(ndim):
                if ml[d][pos]:
                    c = caps_l[d][gl[d][pos]]
                    if c < r:
                        r = c
            if r <= 0.0:
                continue
            gi.append(pos)
            gr.append(r)
            for d in range(ndim):
                if ml[d][pos]:
                    caps_l[d][gl[d][pos]] -= r
    for d, (_, caps) in enumerate(dims):
        caps[:] = caps_l[d]
    if gi:
        np.add.at(out, osub[gi], gr)


def _fill_contended_demands(
    out: np.ndarray,
    order: np.ndarray,
    dims: Sequence[Dimension],
    want: np.ndarray,
    live: np.ndarray,
    ogroups: Sequence[np.ndarray],
    members: Sequence[np.ndarray],
    safe: Sequence[np.ndarray],
) -> np.ndarray:
    """Settle the contended remainder of a demand-capped priority fill.

    Rounds over the contended subset, settling whole *prefixes* per
    round: a flow is ready when, in every dimension it occupies, it
    either (a) *fits* — the cumulative demand of all still-live members
    up to and including itself is within the group's remaining capacity,
    so no matter what its live predecessors actually take (never more
    than their demand) its headroom at its turn is at least its demand —
    or (b) *heads* the group's live queue, so its headroom against the
    current capacities is exact.  Flows fitting everywhere are granted
    exactly their demand; heads take ``min(headroom, demand)``.  This
    drains a long same-group queue (e.g. a wide coflow funnelling through
    one port) in O(1) rounds instead of one flow per round.  Grants of
    one round may share groups, so capacity updates go through
    ``np.bincount``.

    ``want``/``ogroups``/``members``/``safe`` are in ``order``-gathered
    coordinates; ``live`` masks the contended, still-unsettled entries.
    ``caps`` arrays are mutated in place.

    Settled entries are *compacted out* of the pool after every round
    rather than masked: filtering a group-sorted row list by a keep mask
    preserves the sort, so compaction only recomputes segment boundaries
    (an elementwise comparison), never re-sorts.  Each round then costs
    O(pool size) and the pool shrinks geometrically — and because
    everything in the pool is unsettled, the "heads its group's queue"
    test degenerates to the segment-start mask.

    All dimensions share one fused layout: each (entry, member dim) pair
    is one *row*, with group ids offset per dimension so they never
    collide.  One sort and one cumsum chain per round cover every
    dimension at once, and an entry is ready when none of its rows fail.

    This function builds the fused rows; :func:`repro.core.kernels.fill.
    fill_pool` shards them along contention components and runs the
    rounds (and the scalar tail below the crossover) shard by shard.
    """
    sel = np.flatnonzero(live)
    osub = order[sel]
    wsub = want[sel]
    memb_s = [member[sel] for member in members]
    safe_s = [sg[sel] for sg in safe]
    ndim = len(memb_s)
    # Fused row layout, sorted once.  Group ids are dim-disjoint, so a
    # segment's rows all come from one dimension and (concatenation
    # order, stable sort) keep them in pool = priority order.  int32
    # keys make the radix sort measurably faster; group counts are tiny.
    goff = 0
    row_entry, row_group = [], []
    for d in range(ndim):
        mp = np.flatnonzero(memb_s[d])
        row_entry.append(mp)
        row_group.append((ogroups[d][sel][mp] + goff).astype(np.int32))
        goff += len(dims[d][1])
    rows = np.concatenate(row_entry)
    rowg = np.concatenate(row_group)
    srt = np.argsort(rowg, kind="stable")
    rows = rows[srt]
    rowg = rowg[srt]
    # _SCALAR_TAIL is read here (not at import) so tests pinning the
    # crossover via monkeypatch exercise both regimes.
    return fill.fill_pool(
        out, dims, osub, wsub, memb_s, safe_s, rows, rowg, _SCALAR_TAIL
    )


def greedy_priority(
    order: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    rem_in: np.ndarray,
    rem_out: np.ndarray,
    demands: Optional[np.ndarray] = None,
    extra: Optional[Sequence[Dimension]] = None,
) -> np.ndarray:
    """Strict-priority work-conserving allocation.

    Parameters
    ----------
    order:
        Flow indices from highest to lowest priority.
    src, dst:
        Per-flow port indices.
    rem_in, rem_out:
        Remaining capacities (mutated in place).
    demands:
        Optional per-flow rate cap (e.g. remaining volume / slice to avoid
        allocating more than a flow can use).
    extra:
        Additional capacity dimensions (rack uplinks etc.).

    Returns
    -------
    numpy.ndarray
        Per-flow rates aligned with ``src``/``dst`` (zeros for flows not in
        ``order``).
    """
    dims = build_dims(src, dst, rem_in, rem_out, extra)
    rates = np.zeros(len(src), dtype=np.float64)
    priority_fill(order, dims, demands=demands, out=rates)
    return rates


def maxmin_fair(
    src: np.ndarray,
    dst: np.ndarray,
    rem_in: np.ndarray,
    rem_out: np.ndarray,
    weights: Optional[np.ndarray] = None,
    demands: Optional[np.ndarray] = None,
    active: Optional[np.ndarray] = None,
    extra: Optional[Sequence[Dimension]] = None,
) -> np.ndarray:
    """Weighted max-min fair rates via progressive filling.

    Every active flow's rate grows proportionally to its weight until one
    of its constraints saturates or it reaches its demand; saturated flows
    freeze and filling continues.  Terminates after at most
    ``num_flows + num_constraints`` rounds.

    Parameters
    ----------
    weights:
        Per-flow weights (default all ones).  WSS passes flow sizes.
    demands:
        Optional per-flow rate caps.
    active:
        Optional boolean mask restricting which flows participate.
    extra:
        Additional capacity dimensions.
    """
    n = len(src)
    rates = np.zeros(n, dtype=np.float64)
    if n == 0:
        return rates
    dims = build_dims(src, dst, rem_in, rem_out, extra)
    if weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64).copy()
        if np.any(w < 0):
            raise ConfigurationError("weights must be non-negative")
    live = np.ones(n, dtype=bool) if active is None else active.copy()
    live &= w > 0
    if demands is not None:
        live &= demands > 0

    while live.any():
        w_live = np.where(live, w, 0.0)
        # Per-constraint growth-rate limit lam = rem_cap / total weight.
        lam_flow = np.full(n, np.inf)
        for groups, caps in dims:
            member = groups >= 0
            gsum = np.bincount(
                groups[member], weights=w_live[member], minlength=len(caps)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = np.where(gsum > 0, caps / gsum, np.inf)
            lam_flow[member] = np.minimum(lam_flow[member], lam[groups[member]])
        if demands is not None:
            with np.errstate(divide="ignore"):
                lam_demand = np.where(live, (demands - rates) / w, np.inf)
            lam_flow = np.minimum(lam_flow, lam_demand)
        lam_flow = np.where(live, lam_flow, np.inf)
        lam_star = lam_flow.min()
        if not np.isfinite(lam_star) or lam_star < 0:
            break
        inc = np.where(live, w * lam_star, 0.0)
        rates += inc
        newly_frozen = live & (lam_flow <= lam_star * (1 + 1e-9) + _EPS)
        for groups, caps in dims:
            member = groups >= 0
            caps -= np.bincount(
                groups[member], weights=inc[member], minlength=len(caps)
            )
            np.clip(caps, 0.0, None, out=caps)
            sat = caps <= _EPS * (1 + caps)
            # Exempt flows (group == -1) are clipped to index 0 purely to
            # keep the fancy index in bounds; the ``member`` mask discards
            # those lanes, so a saturated constraint 0 can never freeze a
            # flow that is exempt from this dimension.
            newly_frozen |= live & member & sat[np.clip(groups, 0, None)]
        if not newly_frozen.any():
            break  # numerical guard; should not happen
        live &= ~newly_frozen
    return rates


def coflow_gamma(
    volumes: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    rem_in: np.ndarray,
    rem_out: np.ndarray,
    extra: Optional[Sequence[Dimension]] = None,
) -> float:
    """Bottleneck completion time of one coflow under given free capacity.

    ``Γ = max_c (coflow bytes through constraint c) / (free capacity of c)``
    over every dimension — infinite when some needed constraint has no
    capacity left.
    """
    dims = build_dims(src, dst, rem_in, rem_out, extra)
    gamma = 0.0
    for groups, caps in dims:
        member = groups >= 0
        if not member.any():
            continue
        load = np.bincount(
            groups[member], weights=volumes[member], minlength=len(caps)
        )
        used = load > 0
        if not used.any():
            continue
        if np.any(caps[used] <= 0):
            return float("inf")
        gamma = max(gamma, float((load[used] / caps[used]).max()))
    return gamma


def madd(
    coflow_order: Sequence[np.ndarray],
    src: np.ndarray,
    dst: np.ndarray,
    volumes: np.ndarray,
    rem_in: np.ndarray,
    rem_out: np.ndarray,
    backfill: bool = True,
    extra: Optional[Sequence[Dimension]] = None,
) -> np.ndarray:
    """Minimum-Allocation-for-Desired-Duration (Varys) over a coflow order.

    Parameters
    ----------
    coflow_order:
        Coflows from highest to lowest priority; each entry is an array of
        flow indices belonging to that coflow.
    volumes:
        Per-flow remaining volume (bytes).
    backfill:
        When ``True``, leftover capacity is handed out greedily in the
        same priority order after the MADD pass (work conservation — Varys
        does the same).
    extra:
        Additional capacity dimensions.

    Returns
    -------
    numpy.ndarray
        Per-flow rates.
    """
    dims = build_dims(src, dst, rem_in, rem_out, extra)
    rates = np.zeros(len(src), dtype=np.float64)
    for idx in coflow_order:
        idx = np.asarray(idx, dtype=np.intp)
        if len(idx) == 0:
            continue
        vol = volumes[idx]
        sendable = vol > 0
        if not sendable.any():
            continue
        idx = idx[sendable]
        vol = vol[sendable]
        sub_dims = [(groups[idx], caps) for groups, caps in dims]
        gamma = 0.0
        for groups, caps in sub_dims:
            member = groups >= 0
            if not member.any():
                continue
            load = np.bincount(groups[member], weights=vol[member], minlength=len(caps))
            used = load > 0
            if not used.any():
                continue
            if np.any(caps[used] <= 0):
                gamma = float("inf")
                break
            gamma = max(gamma, float((load[used] / caps[used]).max()))
        if not np.isfinite(gamma) or gamma <= 0:
            continue
        r = vol / gamma
        rates[idx] = r
        for groups, caps in sub_dims:
            member = groups >= 0
            caps -= np.bincount(groups[member], weights=r[member], minlength=len(caps))
            np.clip(caps, 0.0, None, out=caps)
    if backfill:
        flat = [np.asarray(idx, dtype=np.intp) for idx in coflow_order]
        flat = [idx for idx in flat if len(idx)]
        if flat:
            order = np.concatenate(flat)
            order = order[volumes[order] > 0]
            priority_fill(order, dims, out=rates)
    return rates
