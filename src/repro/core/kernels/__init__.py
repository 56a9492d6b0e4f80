"""Host helpers the benchmark's configuration stamp reads.

The decision kernel itself is plain numpy and Python in
:mod:`repro.core.fvdf` and :mod:`repro.core.rate_allocation`.  This
package only keeps the two helpers ``e2ebench/run.py`` imports:
:func:`usable_cores` (which :mod:`repro.runner` also uses to size its
pool) and :func:`resolved_name`, which goes with the next change to the
benchmark.
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
