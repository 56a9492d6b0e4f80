"""Atomic file writes: temp file, atomic rename, fsync where it matters.

Service checkpoints (:mod:`repro.service.checkpoint`) use the durable
:func:`write_atomic`: a crash at any point leaves either the previous
file or the complete new one at the destination, never a truncated mix.
The result cache (:mod:`repro.runner.cache`) uses :func:`replace_atomic`,
which skips the fsyncs: readers still never see a partial file, and an
entry a power cut truncates reads back as a corrupt miss.
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
    """Durable :func:`replace_atomic`: the temp file is fsynced before the
    rename, so the renamed entry is never a truncated shell after a power
    cut.  The caller fsyncs the directory (:func:`fsync_dir`) once its
    renames are done."""

    def durable(fh: BinaryIO) -> None:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())

    replace_atomic(path, durable)


def replace_atomic(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` via ``write(fh)`` on a temp file + atomic rename.

    A pid-suffixed temp name is NOT unique across threads sharing a
    process (in-process pools, nested runners): two writers would
    interleave into the same temp file and publish garbage.  mkstemp
    gives each writer its own file in the destination directory, so
    os.replace stays atomic and same-filesystem: a reader sees the old
    file or the whole new one.  Nothing is fsynced, so after a power cut
    the entry may be missing or truncated.  On any error the temp file
    is removed and the destination is untouched.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)  # atomic: readers never see partial files
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
