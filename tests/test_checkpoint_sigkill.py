"""A ``repro serve --checkpoint`` process killed while writing a checkpoint.

The child runs the real CLI with ``write_atomic`` patched so that its
second checkpoint writes half of the archive into the temp file, syncs
it, and SIGKILLs its own process there: no ``finally`` block, no
cleanup.  The checkpoint written before must survive intact, resume to
the same final aggregates as an uninterrupted run, and the leftover temp
file must never pass for a checkpoint.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import load_checkpoint
from repro.service.checkpoint import CheckpointError

SERVE = ["serve", "--coflows", "120", "--tick", "0.1"]

#: Report fields a resumed run must reproduce exactly.
AGGREGATES = (
    "ticks", "coflows_submitted", "flows_submitted", "coflows_done",
    "flows_done", "fct_sum", "cct_sum", "bytes_sent", "bytes_original",
    "avg_fct", "avg_cct", "traffic_reduction",
)

CHILD = textwrap.dedent(
    """
    import io, os, signal, sys

    import repro.service.checkpoint as checkpoint

    real = checkpoint.write_atomic
    calls = []

    def dying(path, write):
        calls.append(path)
        if len(calls) < 2:
            return real(path, write)

        def half(fh):
            buf = io.BytesIO()
            write(buf)
            data = buf.getvalue()
            fh.write(data[: len(data) // 2])
            fh.flush()
            os.fsync(fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)

        return real(path, half)

    checkpoint.write_atomic = dying
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
    """
)


def _stream(report_path: Path) -> dict:
    stream = json.loads(report_path.read_text())["stream"]
    return {key: stream[key] for key in AGGREGATES}


def test_sigkill_mid_checkpoint_keeps_the_last_good_one(tmp_path, capsys):
    whole = tmp_path / "whole.json"
    assert main([*SERVE, "--report", str(whole)]) == 0

    run_dir = tmp_path / "run"
    run_dir.mkdir()
    ck = run_dir / "svc.npz"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *SERVE,
         "--checkpoint", str(ck), "--checkpoint-every", "2"],
        cwd=run_dir, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr[-2000:]

    # The kill left the first checkpoint and a half-written temp file.
    [tmp] = [p for p in run_dir.iterdir() if p.name != "svc.npz"]
    assert tmp.name.startswith("svc.npz.") and tmp.name.endswith(".tmp")
    leftover = tmp.read_bytes()
    assert leftover
    with pytest.raises(CheckpointError, match=tmp.name):
        load_checkpoint(tmp)
    state = load_checkpoint(ck)
    assert state["driver_state"] is not None

    resumed = tmp_path / "resumed.json"
    capsys.readouterr()
    assert main(["serve", "--resume", str(ck), "--report", str(resumed)]) == 0
    assert f"resumed from {ck}" in capsys.readouterr().out
    assert _stream(resumed) == _stream(whole)
    # The resume read the checkpoint, not the temp file, and left it be.
    assert tmp.read_bytes() == leftover
