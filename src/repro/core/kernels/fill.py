"""The contended priority-fill pool, settled shard by shard.

:func:`fill_pool` settles the contended remainder of a demand-capped
priority fill (see ``rate_allocation._fill_contended_demands`` for the
algorithm: prefix-fits rounds over fused (entry, group) rows, scalar
tail below the crossover).  The pool first splits into **shards** along
connected components of the contention graph
(:func:`~repro.core.kernels.partition.label_components`): entries in
different components share no constraint, so their fills are
independent to the last bit, and each shard's rounds only walk its own
entries and rows instead of the whole pool's.  Shards run one after the
other.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import partition

#: Shard-count ceiling: components are packed into at most this many
#: shards (pure function of the pool size, never of the host).
MAX_SHARDS = 64

#: Entry-count floor per shard, so thousands of tiny components don't
#: turn into thousands of per-shard numpy round trips.
MIN_SHARD_ENTRIES = 1024


def tail_fused(
    grants: np.ndarray,
    ids: np.ndarray,
    wsub: np.ndarray,
    memb: Sequence[np.ndarray],
    lsafe: Sequence[np.ndarray],
    caps: np.ndarray,
) -> None:
    """Settle a pool flow-by-flow on plain Python lists (fused caps).

    The reference scalar tail: bit-identical to the
    ``_scalar_tail_demands`` loop (Python floats are IEEE doubles, the
    per-dimension min/subtract order is preserved), but indexing one
    fused capacity vector.
    """
    ndim = len(memb)
    caps_l = caps.tolist()
    gi: list = []
    gr: list = []
    if ndim == 2:
        for pos, (w, m0, g0, m1, g1) in enumerate(
            zip(
                wsub.tolist(),
                memb[0].tolist(),
                lsafe[0].tolist(),
                memb[1].tolist(),
                lsafe[1].tolist(),
            )
        ):
            r = w
            if m0 and caps_l[g0] < r:
                r = caps_l[g0]
            if m1 and caps_l[g1] < r:
                r = caps_l[g1]
            if r <= 0.0:
                continue
            gi.append(pos)
            gr.append(r)
            if m0:
                caps_l[g0] -= r
            if m1:
                caps_l[g1] -= r
    else:
        gl = [s.tolist() for s in lsafe]
        ml = [m.tolist() for m in memb]
        wl = wsub.tolist()
        for pos in range(len(wl)):
            r = wl[pos]
            for d in range(ndim):
                if ml[d][pos]:
                    c = caps_l[gl[d][pos]]
                    if c < r:
                        r = c
            if r <= 0.0:
                continue
            gi.append(pos)
            gr.append(r)
            for d in range(ndim):
                if ml[d][pos]:
                    caps_l[gl[d][pos]] -= r
    caps[:] = caps_l
    if gi:
        np.add.at(grants, ids[np.asarray(gi, dtype=np.intp)], np.asarray(gr))


def fill_shard(
    grants: np.ndarray,
    wsub: np.ndarray,
    memb: List[np.ndarray],
    lsafe: List[np.ndarray],
    caps: np.ndarray,
    rows: np.ndarray,
    rowg: np.ndarray,
    tail: int,
) -> None:
    """Run prefix-fits rounds over one shard (fused-local coordinates).

    Mutates ``grants`` (indexed through the compacting ``ids`` map) and
    ``caps`` in place.
    """
    ndim = len(memb)
    ids = np.arange(wsub.size, dtype=np.intp)
    while True:
        k = wsub.size
        if k == 0:
            return
        if k <= tail:
            tail_fused(grants, ids, wsub, memb, lsafe, caps)
            return
        # Per-entry upper bound on what it can ever take from here on:
        # demand capped by headroom against *current* capacities
        # (capacities only shrink, so no later turn can beat this).
        ub = np.full(k, np.inf)
        for d in range(ndim):
            np.minimum(ub, caps[lsafe[d]], where=memb[d], out=ub)
        np.minimum(ub, wsub, out=ub)
        np.maximum(ub, 0.0, out=ub)
        if rows.size:
            newseg = np.empty(rows.size, dtype=bool)
            newseg[0] = True
            newseg[1:] = rowg[1:] != rowg[:-1]
            sid = np.cumsum(newseg) - 1
            sst = np.flatnonzero(newseg)
            ubr = ub[rows]
            # Worst-case cumulative take within each group's queue,
            # prefix up to each row *exclusive*, plus its own demand;
            # segment heads pass unconditionally (their headroom against
            # current caps is exact).
            c = np.cumsum(ubr)
            base = np.where(sst > 0, c[sst - 1], 0.0)
            ok = (c - base[sid] - ubr + wsub[rows] <= caps[rowg]) | newseg
            ready = np.bincount(rows[~ok], minlength=k) == 0
        else:
            ready = np.ones(k, dtype=bool)
        rp = np.flatnonzero(ready)
        if rp.size == 0:
            return  # unreachable: the pool's first entry heads every queue
        # An entry's grant is min(headroom now, demand) — exactly its
        # upper bound (heads' headroom is exact; fitting rows guarantee
        # headroom >= demand).
        r = ub[rp]
        give = r > 0.0
        gp = rp[give]
        rg = r[give]
        if gp.size:
            np.add.at(grants, ids[gp], rg)
            for d in range(ndim):
                gm = memb[d][gp]
                caps -= np.bincount(
                    lsafe[d][gp][gm], weights=rg[gm], minlength=caps.size
                )
        keep = ~ready
        # Collapse drained constraints: anyone left in a dead group has
        # zero headroom now and forever (caps never grow during a fill).
        dead = caps <= 0.0
        if dead.any():
            for d in range(ndim):
                keep &= ~(memb[d] & dead[lsafe[d]])
        if not keep.any():
            return
        # Compact the pool; remap rows through the new entry positions
        # (row order is preserved by the filter, so no re-sort).
        newpos = np.cumsum(keep) - 1
        rk = keep[rows]
        rows = newpos[rows[rk]]
        rowg = rowg[rk]
        pool = np.flatnonzero(keep)
        ids = ids[pool]
        wsub = wsub[pool]
        memb = [m[pool] for m in memb]
        lsafe = [s[pool] for s in lsafe]


def _plan_shards(
    rows: np.ndarray, rowg: np.ndarray, k: int, n_groups: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Shard plan ``(order_e, shard_bounds)`` or ``None`` (one shard).

    Components are walked in label order (= order of first pool
    appearance, since labels are minimum node ids) and packed
    contiguously into shards of at least :data:`MIN_SHARD_ENTRIES`
    entries, at most :data:`MAX_SHARDS` shards.  Interleaving whole
    components across shards is value-neutral — they share no constraint
    — and within a component the pool (priority) order is preserved.
    """
    if rows.size == 0:
        return None
    comp = partition.label_components(rows, rowg, k, n_groups)
    if comp is None:
        return None
    order_e = np.argsort(comp, kind="stable")
    comp_sorted = comp[order_e]
    cseg = np.empty(k, dtype=bool)
    cseg[0] = True
    cseg[1:] = comp_sorted[1:] != comp_sorted[:-1]
    cstarts = np.flatnonzero(cseg)
    if cstarts.size <= 1:
        return None
    # Components are contiguous in sorted order, so their cumulative
    # entry counts are just the component end positions; cut a shard
    # whenever the cumulative count crosses a multiple of the target.
    target = max(MIN_SHARD_ENTRIES, -(-k // MAX_SHARDS))
    csum = np.append(cstarts[1:], k)
    bucket = (csum - 1) // target
    cut = np.empty(bucket.size, dtype=bool)
    cut[:-1] = bucket[1:] != bucket[:-1]
    cut[-1] = True
    ends = csum[cut]
    if ends.size <= 1:
        return None
    sbounds = np.concatenate(([0], ends)).astype(np.intp)
    return order_e, sbounds


def _fill_shards(
    plan: Tuple[np.ndarray, np.ndarray],
    grants: np.ndarray,
    wsub: np.ndarray,
    memb: List[np.ndarray],
    fsafe: List[np.ndarray],
    capc: np.ndarray,
    rows: np.ndarray,
    rowg: np.ndarray,
    tail: int,
) -> None:
    """Fill each shard of ``plan`` in shard-local coordinates, in turn,
    and commit its grants and capacities back to the fused pool."""
    order_e, sbounds = plan
    k = wsub.size
    ndim = len(memb)
    nsh = sbounds.size - 1
    pos = np.empty(k, dtype=np.intp)
    pos[order_e] = np.arange(k, dtype=np.intp)
    shard_of = np.empty(k, dtype=np.intp)
    shard_of[order_e] = np.searchsorted(sbounds[1:], np.arange(k), side="right")
    rshard = shard_of[rows]
    rorder = np.argsort(rshard, kind="stable")
    rs_rows = rows[rorder]
    rs_rowg = rowg[rorder]
    rshard_sorted = rshard[rorder]
    shard_ids = np.arange(nsh)
    rlo = np.searchsorted(rshard_sorted, shard_ids, side="left")
    rhi = np.searchsorted(rshard_sorted, shard_ids, side="right")
    for s in range(nsh):
        lo, hi = int(sbounds[s]), int(sbounds[s + 1])
        entries = order_e[lo:hi]
        srows = pos[rs_rows[rlo[s]:rhi[s]]] - lo
        sgl = rs_rowg[rlo[s]:rhi[s]]
        gids = np.unique(sgl)
        if gids.size == 0:
            gids = np.zeros(1, dtype=rowg.dtype)
        # np.unique is sorted, so searchsorted is a monotone remap: local
        # group ids keep the fused sort order and the shard's rows stay
        # segment-contiguous.
        lrowg = np.searchsorted(gids, sgl)
        caps_local = capc[gids].astype(np.float64)
        memb_l = [memb[d][entries] for d in range(ndim)]
        lsafe_l = []
        for d in range(ndim):
            ls = np.searchsorted(gids, fsafe[d][entries])
            np.copyto(ls, 0, where=~memb_l[d])
            lsafe_l.append(ls)
        g_local = np.zeros(entries.size, dtype=np.float64)
        fill_shard(
            g_local, wsub[entries], memb_l, lsafe_l, caps_local, srows, lrowg,
            tail,
        )
        # Shards touch disjoint entries and disjoint groups, so the commit
        # is plain assignment.
        grants[entries] = g_local
        capc[gids] = caps_local


def fill_pool(
    out: np.ndarray,
    dims: Sequence[Tuple[np.ndarray, np.ndarray]],
    osub: np.ndarray,
    wsub: np.ndarray,
    memb_s: Sequence[np.ndarray],
    safe_s: Sequence[np.ndarray],
    rows: np.ndarray,
    rowg: np.ndarray,
    tail: int,
) -> np.ndarray:
    """Settle a contended demand-capped pool.

    Inputs are the pool-gathered coordinates built by
    ``rate_allocation._fill_contended_demands``: ``osub`` the flow ids,
    ``wsub`` the demands, ``memb_s``/``safe_s`` per-dimension membership
    and clipped group columns, ``rows``/``rowg`` the fused incidence rows
    sorted by fused group id.  Capacities are fused into one vector for
    the duration of the fill and written back to ``dims`` at the end;
    grants accumulate into ``out`` (indexed by ``osub``) once, after all
    shards committed.
    """
    k = osub.size
    if k == 0:
        return out
    ndim = len(dims)
    sizes = [len(caps) for _, caps in dims]
    goffs = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    total = int(goffs[-1])
    if total:
        capc = np.concatenate([caps for _, caps in dims])
    else:
        capc = np.zeros(1, dtype=np.float64)
    # Fused-coordinate safe columns; non-member lanes park on slot 0
    # (always in bounds, gated by the membership masks everywhere).
    fsafe = [
        np.where(memb_s[d], safe_s[d] + goffs[d], 0) for d in range(ndim)
    ]
    memb = [np.asarray(m) for m in memb_s]
    grants = np.zeros(k, dtype=np.float64)
    # Pools small enough for the scalar tail skip the shard plan.
    plan = _plan_shards(rows, rowg, k, total) if k > tail else None
    if plan is None:
        fill_shard(grants, wsub, memb, fsafe, capc, rows, rowg, tail)
    else:
        _fill_shards(plan, grants, wsub, memb, fsafe, capc, rows, rowg, tail)
    nz = grants > 0.0
    if nz.any():
        np.add.at(out, osub[nz], grants[nz])
    for d in range(ndim):
        dims[d][1][:] = capc[goffs[d]:goffs[d + 1]]
    return out
