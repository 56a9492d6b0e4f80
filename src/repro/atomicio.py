"""Crash-safe file writes: temp file, fsync, atomic rename.

Shared by the result cache (:mod:`repro.runner.cache`) and service
checkpoints (:mod:`repro.service.checkpoint`).  A crash at any point of
:func:`write_atomic` leaves either the previous file or the complete new
one at the destination, never a truncated mix.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` via ``write(fh)`` on an fsynced temp file + atomic rename.

    A pid-suffixed temp name is NOT unique across threads sharing a
    process (in-process pools, nested runners): two writers would
    interleave into the same temp file and publish garbage.  mkstemp
    gives each writer its own file in the destination directory, so
    os.replace stays atomic and same-filesystem; the pre-rename fsync
    guarantees the renamed entry is never a truncated shell.  On any
    error the temp file is removed and the destination is untouched.
    The caller fsyncs the directory (:func:`fsync_dir`) once its
    renames are done.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)  # atomic: readers never see partial files
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
