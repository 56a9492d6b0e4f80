"""Zero-copy result collection over POSIX shared memory.

The pool's result path used to pickle whole :class:`ResultSummary`
objects — including the per-flow/per-coflow arrays requested with
``RunSpec(arrays=True)`` — through the executor's result pipe.  For
array-bearing summaries that pickle dominates collection cost: every
byte is serialized in the worker, squeezed through a pipe, and
deserialized in the parent.

This module moves the array payload out of band.  The worker packs the
summary's array columns into one :class:`multiprocessing.shared_memory`
segment and sends only a header-sized :class:`ShmBlock` *descriptor*
(segment name + per-column dtype/shape/offset) over the pipe; the parent
attaches the segment, copies the columns back onto the summary, and
unlinks it.  "Zero-copy" refers to the pipe — nothing is serialized —
with exactly one deliberate memcpy at attach time so the parent never
holds references into a segment it is about to unlink (leak-robustness
beats saving the last copy; the pickle round trip was the 10x cost).

Ownership protocol (the part that keeps ``/dev/shm`` clean):

* the worker creates the segment under an explicit ``repro-shm-*`` name,
  copies the columns in, closes its mapping, and *unregisters* the
  segment from its own ``resource_tracker`` — ownership transfers to the
  parent with the descriptor;
* the parent attaches by name, copies, closes, and unlinks — normally
  right in the collection loop (``unlink`` also clears the registration
  CPython adds on attach);
* a worker that dies *before* export never created a segment; a worker
  that dies *after* export has already transferred ownership, and the
  parent-side attach failure path still unlinks.  Either way no segment
  outlives the pool.

``REPRO_SHM=0`` disables the transport (summaries pickle whole, exactly
the pre-shm behaviour) — an escape hatch for platforms with a broken or
missing ``/dev/shm``.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Environment variable: set to ``0``/``false``/``off`` to disable the
#: shared-memory result transport.
ENV_SHM = "REPRO_SHM"

#: Name prefix for every segment this module creates; tests sweep
#: ``/dev/shm`` for leftovers matching it.
SHM_PREFIX = "repro-shm-"

#: Column offsets are aligned to this many bytes inside a segment.
_ALIGN = 64

#: Parent-side attach counter (monotone, per process) — bench evidence
#: that collection actually went through shared memory.
ATTACHED = 0


def shm_enabled() -> bool:
    """Whether the shared-memory transport is enabled for this process."""
    val = os.environ.get(ENV_SHM, "").strip().lower()
    if val in ("0", "false", "off", "no"):
        return False
    try:  # pragma: no cover - import always succeeds on CPython >= 3.8
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover
        return False
    return True


@dataclass(frozen=True)
class ShmColumn:
    """Location of one array inside a shared segment."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ShmBlock:
    """Header-only descriptor of one exported segment.

    This is the only thing that crosses the executor's result pipe for
    the array payload; it pickles to a few hundred bytes regardless of
    how many million elements the columns hold.
    """

    name: str
    size: int
    columns: List[ShmColumn] = field(default_factory=list)


def _layout(arrays: Dict[str, np.ndarray]) -> Tuple[List[ShmColumn], int]:
    cols: List[ShmColumn] = []
    offset = 0
    for key, arr in arrays.items():
        offset = -(-offset // _ALIGN) * _ALIGN
        cols.append(
            ShmColumn(
                key=key,
                dtype=arr.dtype.str,
                shape=tuple(arr.shape),
                offset=offset,
            )
        )
        offset += arr.nbytes
    return cols, max(offset, 1)


def export_arrays(arrays: Dict[str, np.ndarray]) -> Optional[ShmBlock]:
    """Copy ``arrays`` into a fresh shared segment (worker side).

    Returns the descriptor, or ``None`` when there is nothing to export
    or the transport is disabled.  On any failure the segment is
    unlinked before re-raising, so a crashing export never leaks.
    """
    arrays = {
        k: np.ascontiguousarray(v) for k, v in arrays.items() if v is not None
    }
    if not arrays or not shm_enabled():
        return None
    from multiprocessing import shared_memory

    cols, size = _layout(arrays)
    name = f"{SHM_PREFIX}{os.getpid()}-{secrets.token_hex(8)}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=size)
    try:
        for col in cols:
            arr = arrays[col.key]
            dst = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=col.offset
            )
            dst[...] = arr
            del dst  # release the exported buffer before seg.close()
    except BaseException:
        seg.close()
        seg.unlink()
        raise
    seg.close()
    _disown(seg)
    return ShmBlock(name=name, size=size, columns=cols)


def attach_arrays(block: ShmBlock) -> Dict[str, np.ndarray]:
    """Copy columns out of ``block``'s segment, then destroy it.

    The copy is deliberate: returned arrays own their memory, so the
    segment can be unlinked immediately and nothing downstream can pin
    ``/dev/shm`` pages alive.
    """
    global ATTACHED
    from multiprocessing import shared_memory

    # Attaching registers the segment with this process's resource
    # tracker on CPython <= 3.12; ``unlink()`` below unregisters it, so
    # no extra bookkeeping is needed here (an explicit unregister would
    # make unlink's one a double — the tracker logs a KeyError per
    # segment for those).
    seg = shared_memory.SharedMemory(name=block.name, create=False)
    try:
        out: Dict[str, np.ndarray] = {}
        for col in block.columns:
            src = np.ndarray(
                col.shape,
                dtype=np.dtype(col.dtype),
                buffer=seg.buf,
                offset=col.offset,
            )
            out[col.key] = src.copy()
            del src
    finally:
        seg.close()
        seg.unlink()
    ATTACHED += 1
    return out


def discard(block: ShmBlock) -> None:
    """Unlink a block without reading it (error-path cleanup)."""
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=block.name, create=False)
    except FileNotFoundError:
        return
    seg.close()
    seg.unlink()  # unlink unregisters the attach-time registration


def _disown(seg) -> None:
    """Drop ``seg`` from this process's resource tracker (worker side).

    The creating worker hands the segment to the parent by descriptor;
    without this, the worker's resource tracker would unlink it at
    worker exit (racing the parent's read) and warn about a "leak" that
    is actually a handoff.  Only the exporting worker calls this: on the
    parent side ``unlink()`` already unregisters the attach-time
    registration, and unregistering twice makes the tracker process log
    a KeyError per segment.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
