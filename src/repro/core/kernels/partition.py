"""Contention components of a decision pool, for the shard plan.

:func:`label_components` finds the connected components of the bipartite
contention graph (pool entries on one side, fused constraint groups on
the other).  Entries in different components share no constraint, so
:mod:`repro.core.kernels.fill` settles each group of components as its
own shard over a much smaller pool.  The labels are a pure function of
the pool, never of the host.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Iteration cap for the component labelling loop; pools that have not
#: converged by then (pathological contention chains) fall back to one
#: shard, which is always correct and still deterministic.
MAX_LABEL_ITERS = 96


def label_components(
    rows: np.ndarray,
    rowg: np.ndarray,
    n_entries: int,
    n_groups: int,
    max_iter: int = MAX_LABEL_ITERS,
) -> Optional[np.ndarray]:
    """Component label per pool entry, or ``None`` when not converged.

    ``rows``/``rowg`` are the fused (entry, group) incidence rows of the
    pool, sorted by ``rowg``.  Labels are propagated with segment-min
    reductions on both sides of the bipartite graph plus pointer jumping,
    so convergence takes O(log diameter) passes over the rows instead of
    one pass per chain link.  The returned labels are minimum node ids —
    arbitrary but deterministic, which is all the shard plan needs.
    """
    if n_entries == 0:
        return np.empty(0, dtype=np.int64)
    nr = rows.size
    if nr == 0:
        return np.arange(n_entries, dtype=np.int64)
    lab = np.arange(n_entries + n_groups, dtype=np.int64)
    gnode = rowg.astype(np.int64) + n_entries
    # Group-sorted segments come for free (rows are sorted by rowg).
    gseg = np.empty(nr, dtype=bool)
    gseg[0] = True
    gseg[1:] = rowg[1:] != rowg[:-1]
    gstarts = np.flatnonzero(gseg)
    gids = gnode[gstarts]
    # Entry-sorted view, built once and reused every pass.
    eorder = np.argsort(rows, kind="stable")
    erows = rows[eorder].astype(np.int64)
    egroups = gnode[eorder]
    eseg = np.empty(nr, dtype=bool)
    eseg[0] = True
    eseg[1:] = erows[1:] != erows[:-1]
    estarts = np.flatnonzero(eseg)
    eids = erows[estarts]
    for _ in range(max_iter):
        prev = lab.copy()
        # Groups absorb the min label of their member entries...
        gmin = np.minimum.reduceat(lab[rows], gstarts)
        lab[gids] = np.minimum(lab[gids], gmin)
        # ...entries absorb the min label of their groups...
        emin = np.minimum.reduceat(lab[egroups], estarts)
        lab[eids] = np.minimum(lab[eids], emin)
        # ...and every node shortcuts to its label's label.
        lab = np.minimum(lab, lab[lab])
        if np.array_equal(lab, prev):
            break
    else:
        return None
    # Full path compression so equal components share one representative.
    for _ in range(max_iter):
        nxt = lab[lab]
        if np.array_equal(nxt, lab):
            break
        lab = nxt
    return lab[:n_entries]

