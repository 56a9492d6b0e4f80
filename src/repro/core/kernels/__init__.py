"""The decision kernel: the serial contended priority fill.

The FVDF decision's hot path is the Γ_C segment-max (Eq. 7-8, a plain
``np.maximum.reduceat`` in :mod:`repro.core.fvdf`) and the min-rate /
backfill ``priority_fill`` of :mod:`repro.core.rate_allocation`.  The
contended remainder of a demand-capped fill lives here: the shard plan
over contention components (:mod:`repro.core.kernels.partition`) and
the prefix-fits rounds that settle each shard
(:mod:`repro.core.kernels.fill`).
"""

from __future__ import annotations

import os

__all__ = ["usable_cores", "resolved_name"]


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolved_name(requested=None) -> str:
    """Name of the decision kernel a run uses: always ``"python"``, the
    one serial numpy path.  ``requested`` is accepted and ignored, so
    callers that stamp a configuration keep working."""
    return "python"
