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
from array import array
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Relative epsilon used to decide saturation in iterative filling.
_EPS = 1e-12

#: Fills without demands up to this many flows skip the vectorized
#: prefilter: it only drops flows the loop would skip anyway, so the
#: walk is the same.  Measured on recorded backfills (docs/performance.md
#: §13), the loop alone stays cheaper up to a few hundred flows.
#: (With demands the bulk grant charges capacities in a different order
#: of additions, so only fills of at most 8 flows take the loop there.)
_SMALL_BACKFILL = 256

#: ``maxmin_fair`` runs its rounds on Python lists up to this many flows,
#: about where the array rounds become cheaper on recorded PFF calls
#: (docs/performance.md §13).
_SMALL_MAXMIN = 32

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
    safe = [np.maximum(og, 0) for og in ogroups]
    return ogroups, members, safe


def priority_fill(
    order: np.ndarray,
    dims: Sequence[Dimension],
    demands: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    n: Optional[int] = None,
    gathers: Optional[Tuple[List[np.ndarray], ...]] = None,
) -> np.ndarray:
    """Sequential priority filling: the paper's order-then-greedy rate step.

    The semantics are the flow-by-flow loop::

        for i in order:
            r = flow_headroom(i, dims)
            if demands is not None:
                r = min(r, demands[i])
            if r <= 0.0:
                continue
            rates[i] += r
            consume(i, r, dims)

    and the contended fill *is* that loop, run on plain Python lists
    (:func:`_fill_in_order`): exempt groups (−1) index an ``+inf`` slot
    appended to each capacity list, so the loop tests no group, and it
    records one rate per walked flow.  Two shortcuts shrink what it walks.
    With ``demands``, flows whose every constraint group can absorb the
    *total* demand of its members are granted exactly their demand in
    bulk (the fabric's steady state), and only the contended remainder
    goes through the loop.  Without ``demands`` (backfill), flows with no
    headroom now are dropped up front: capacities only shrink during a
    fill, so they could never receive anything at their turn either.

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
    if m <= 8 or (demands is None and m <= _SMALL_BACKFILL):
        # Small fills: the loop alone beats any vectorized setup cost.
        want = (
            [math.inf] * m
            if demands is None
            else np.asarray(demands, dtype=np.float64)[order].tolist()
        )
        _fill_small(out, dims, order, want)
        return out
    # Gather each dimension's group column once, in priority order
    # (reused across fills when the caller passes them in).
    if gathers is None:
        ogroups, members, safe = gather_groups(order, dims)
    else:
        ogroups, members, safe = gathers
    if demands is not None:
        want = np.asarray(demands, dtype=np.float64)[order]
        # A non-positive demand is skipped without consuming: settled.
        settled = want <= 0.0
        want = np.where(settled, 0.0, want)
        # Contention partition.  A constraint group is *overloaded* when
        # the total demand of its unsettled members exceeds its remaining
        # capacity; a flow is *contended* when any of its groups is
        # overloaded.  Every uncontended flow receives exactly its demand
        # under sequential filling — each of its groups can absorb the
        # demand of all members (contended members never take more than
        # their demand either), so its headroom is >= its demand at its
        # turn regardless of position — and is granted in bulk.  This is
        # the steady state of FVDF's minimal pass (rates r = V/Γ fit by
        # construction unless the fabric is overloaded).
        contended = np.zeros(m, dtype=bool)
        loads = []
        for (_, caps), og, member, sg in zip(dims, ogroups, members, safe):
            load = np.bincount(
                og[member], weights=want[member], minlength=len(caps)
            )
            over = load > caps
            if np.count_nonzero(over):
                contended |= member & over[sg]
            loads.append(load)
        unc = ~settled & ~contended
        if np.count_nonzero(unc):
            np.add.at(out, order[unc], want[unc])
            if np.count_nonzero(contended):
                # Charge only the granted flows' demand.
                loads = [
                    np.bincount(
                        og[member & unc],
                        weights=want[member & unc],
                        minlength=len(caps),
                    )
                    for (_, caps), og, member in zip(dims, ogroups, members)
                ]
            for (_, caps), load in zip(dims, loads):
                caps -= load
        pos = (~settled & contended).nonzero()[0]
        want = want[pos].tolist()
    else:
        room = np.full(m, np.inf)
        for (_, caps), member, sg in zip(dims, members, safe):
            np.minimum(room, caps[sg], where=member, out=room)
        pos = (room > 0.0).nonzero()[0]
        # Backfill is the demand-capped loop with an infinite demand
        # (r = headroom at the flow's turn).
        want = [math.inf] * pos.size
    if pos.size:
        _fill_in_order(
            out, dims, order[pos], want, [og[pos] for og in ogroups]
        )
    return out


def _fill_in_order(
    out: np.ndarray,
    dims: Sequence[Dimension],
    osub: np.ndarray,
    wsub: List[float],
    gsub: Sequence[np.ndarray],
) -> None:
    """Grant ``min(headroom, demand)`` flow by flow, on plain Python lists.

    ``osub`` are flow ids in priority order, ``wsub`` their demands (a
    list of floats) and ``gsub`` their group column per dimension
    (−1 = exempt).
    Bit-identical to the loop in :func:`priority_fill`'s docstring
    (Python floats are IEEE doubles) but ~10x cheaper per flow than
    numpy scalar indexing.

    Each dimension's capacity list carries one extra ``+inf`` slot at
    its end, which group −1 reaches through negative indexing: it never
    binds (``inf < r`` is false, and so is ``nan < r`` once an infinite
    grant has been charged to it), so exempt groups need no test.  The
    loop records one rate per walked flow (0.0 when skipped) in a
    zero-filled ``array('d')`` that numpy reads in place, and applies
    them with one ``np.add.at`` (an order may repeat a flow); capacities
    are written back without the slot.  The two-dimension case (the big
    switch without extra uplink dims) runs a dedicated ``zip`` loop.
    """
    caps_l = [caps.tolist() + [math.inf] for _, caps in dims]
    m = len(osub)
    granted = array("d", bytes(8 * m))
    if len(gsub) == 2:
        c0, c1 = caps_l
        for pos, w, g0, g1 in zip(
            range(m), wsub, gsub[0].tolist(), gsub[1].tolist()
        ):
            r = w
            a = c0[g0]
            if a < r:
                r = a
            b = c1[g1]
            if b < r:
                r = b
            if r <= 0.0:
                continue
            granted[pos] = r
            c0[g0] = a - r
            c1[g1] = b - r
    else:
        pairs = [(g.tolist(), caps) for g, caps in zip(gsub, caps_l)]
        for pos, w in enumerate(wsub):
            r = w
            for groups, caps in pairs:
                c = caps[groups[pos]]
                if c < r:
                    r = c
            if r <= 0.0:
                continue
            granted[pos] = r
            for groups, caps in pairs:
                caps[groups[pos]] -= r
    for (_, caps), values in zip(dims, caps_l):
        caps[:] = values[:-1]
    np.add.at(out, osub, np.frombuffer(granted, dtype=np.float64))


def _fill_small(
    out: np.ndarray,
    dims: Sequence[Dimension],
    order: np.ndarray,
    want: List[float],
) -> None:
    """:func:`_fill_in_order` for a fill of a few flows, settled wholly on
    Python lists.

    The same walk over the same ``+inf``-slotted capacity lists, but each
    grant is added into ``out`` as it is made, in walk order, which is
    what ``np.add.at`` does with repeated flows; and only the capacities
    a grant changed are written back.  A fill of a few flows then skips
    the ``array('d')``, the ``np.add.at`` and the whole-capacity
    write-back, whose fixed costs outweigh its walk.
    """
    caps_l = []
    for _, caps in dims:
        values = caps.tolist()
        values.append(math.inf)
        caps_l.append(values)
    cols = [np.asarray(groups)[order].tolist() for groups, _ in dims]
    granted = []  # walk positions that received a grant
    if len(dims) == 2:
        c0, c1 = caps_l
        for pos, i, w, g0, g1 in zip(
            range(len(want)), order.tolist(), want, cols[0], cols[1]
        ):
            r = w
            a = c0[g0]
            if a < r:
                r = a
            b = c1[g1]
            if b < r:
                r = b
            if r <= 0.0:
                continue
            out[i] += r
            c0[g0] = a - r
            c1[g1] = b - r
            granted.append(pos)
    else:
        for pos, (i, w) in enumerate(zip(order.tolist(), want)):
            r = w
            for groups, caps in zip(cols, caps_l):
                c = caps[groups[pos]]
                if c < r:
                    r = c
            if r <= 0.0:
                continue
            out[i] += r
            for groups, caps in zip(cols, caps_l):
                caps[groups[pos]] -= r
            granted.append(pos)
    for (_, caps), groups, values in zip(dims, cols, caps_l):
        for g in {groups[pos] for pos in granted}:
            if g >= 0:
                caps[g] = values[g]


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
    ``num_flows + num_constraints`` rounds.  Up to ``_SMALL_MAXMIN``
    flows the same rounds run on Python lists (:func:`_maxmin_small`),
    where a round's fixed numpy cost outweighs its work; both give the
    same bits.

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

    if n <= _SMALL_MAXMIN:
        return _maxmin_small(w, live, demands, dims)

    # Loop invariants per dimension: (caps, selector of the member flows,
    # their groups, member mask, in-bounds group index).  A dimension
    # without exempt flows selects with a slice; otherwise exempt flows
    # (group == -1) are clamped to index 0 purely to keep the fancy index
    # in bounds, and the member mask discards those lanes, so a saturated
    # constraint 0 can never freeze a flow exempt from this dimension.
    cols = []
    for groups, caps in dims:
        member = groups >= 0
        if np.count_nonzero(member) == n:
            cols.append((caps, slice(None), groups, None, groups))
        else:
            cols.append(
                (caps, member, groups[member], member, np.maximum(groups, 0))
            )
    unbounded = np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        while np.count_nonzero(live):
            w_live = np.where(live, w, 0.0)
            # Per-constraint growth-rate limit lam = rem_cap / total weight.
            lam_flow = unbounded.copy()
            for caps, sel, groups, _, _ in cols:
                gsum = np.bincount(
                    groups, weights=w_live[sel], minlength=len(caps)
                )
                lam = np.where(gsum > 0, caps / gsum, np.inf)
                lam_flow[sel] = np.minimum(lam_flow[sel], lam[groups])
            if demands is not None:
                lam_demand = np.where(live, (demands - rates) / w, np.inf)
                lam_flow = np.minimum(lam_flow, lam_demand)
            lam_flow = np.where(live, lam_flow, np.inf)
            lam_star = lam_flow.min()
            if not math.isfinite(lam_star) or lam_star < 0:
                break
            inc = np.where(live, w * lam_star, 0.0)
            rates += inc
            newly_frozen = live & (lam_flow <= lam_star * (1 + 1e-9) + _EPS)
            for caps, sel, groups, member, safe in cols:
                caps -= np.bincount(
                    groups, weights=inc[sel], minlength=len(caps)
                )
                np.maximum(caps, 0.0, out=caps)
                sat = caps <= _EPS * (1 + caps)
                if member is None:
                    newly_frozen |= live & sat[safe]
                else:
                    newly_frozen |= live & member & sat[safe]
            if not np.count_nonzero(newly_frozen):
                break  # numerical guard; should not happen
            live &= ~newly_frozen
    return rates


def _maxmin_small(w, live, demands, dims) -> np.ndarray:
    """:func:`maxmin_fair`'s rounds on Python lists, for a few flows.

    The same rounds, value for value.  Every dimension's constraints sit
    on one axis (group g of dimension d is constraint offset[d] + g, and
    an exempt flow points at a last slot of capacity +inf that never
    saturates).  Each constraint sums its live flows in flow order (a
    ``bincount``'s order), and every division, product, difference and
    comparison is the array round's, one element at a time.  A
    constraint no live flow uses is skipped: the array round reads it
    only for frozen flows, and subtracts nothing from it (after the
    first round's clamp at 0).  The capacities are written back in place.
    """
    sizes = [len(caps) for _, caps in dims]
    slot = sum(sizes)
    rows = []
    offset = 0
    for (groups, _), size in zip(dims, sizes):
        rows.append(np.where(groups >= 0, groups + offset, slot).tolist())
        offset += size
    caps = [x for _, c in dims for x in c.tolist()]
    caps.append(math.inf)
    n = len(w)
    wl = w.tolist()
    lv = live.tolist()
    dl = None if demands is None else demands.tolist()
    fcs = list(zip(*rows))  # constraints per flow
    rates = [0.0] * n
    eps = _EPS
    clamped = False
    while True in lv:
        flows = [i for i in range(n) if lv[i]]
        gsum: dict = {}
        for i in flows:
            x = wl[i]
            for c in fcs[i]:
                gsum[c] = gsum.get(c, 0.0) + x
        lam = {c: caps[c] / s for c, s in gsum.items()}
        lam_flow = {}
        for i in flows:
            best = min([lam[c] for c in fcs[i]])
            if dl is not None:
                x = (dl[i] - rates[i]) / wl[i]
                if x < best:
                    best = x
            lam_flow[i] = best
        lam_star = min(lam_flow.values())
        if not math.isfinite(lam_star) or lam_star < 0:
            break
        if not clamped:
            # The array round clamps every constraint at 0 once.
            caps = [0.0 if x < 0.0 else x for x in caps]
            clamped = True
        csum: dict = {}
        for i in flows:
            x = wl[i] * lam_star
            rates[i] += x
            for c in fcs[i]:
                csum[c] = csum.get(c, 0.0) + x
        for c, s in csum.items():
            x = caps[c] - s
            caps[c] = 0.0 if x < 0.0 else x
        top = lam_star * (1 + 1e-9) + eps
        frozen = [
            i for i in flows
            if lam_flow[i] <= top or any(
                c != slot and caps[c] <= eps * (1 + caps[c]) for c in fcs[i]
            )
        ]
        if not frozen:
            break  # numerical guard; should not happen
        for i in frozen:
            lv[i] = False
    offset = 0
    for (_, c), size in zip(dims, sizes):
        c[:] = caps[offset : offset + size]
        offset += size
    return np.array(rates)


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
