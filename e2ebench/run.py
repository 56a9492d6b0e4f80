#!/usr/bin/env python3
"""Outside-in benchmark of the Swallow reproduction (``src/repro``).

Run from the repository root::

    python3 e2ebench/run.py --workload burst-decide --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 15

The workloads live in ``workloads.py``; the per-layer rows, and the
end-to-end metric each should move, in ``layers.py``.  Claims are made
on seed 1 and re-checked on the held-out seed 2.

``--trace 0`` measures the end-to-end metrics with nothing rebound.
Set-up (imports plus construction) is timed in fresh interpreters, the
median of a few; then one checked warm-up pass runs, and timed passes
repeat for ``--seconds``; times are CPU seconds (see ``_end_to_end``).
``--trace 1`` measures the per-layer metrics: it first runs an untraced
child for ``trace_overhead``, then repeats traced passes in this
process, which runs no timed pass.

Every pass is checked and fingerprinted; a fingerprint that differs
between passes, or from an earlier run of the same sources, size and
seed, fails the run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (name
-> value and unit); the line before it stamps the host and configuration
the numbers were taken on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("burst-decide", "fb-replay", "stream-serve", "sweep-grid")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Reference rounds (``workloads.reference_s``) before and after a pass.
REF_ROUNDS = 3

#: Timed passes after which ``peak_rss_mb`` is read.
RSS_PASSES = 2

#: Longest a child of this script may run.
CHILD_TIMEOUT_S = 150.0


def _child(args, timeout=CHILD_TIMEOUT_S) -> dict:
    """Run this script with ``args`` in a child; its last line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"run.py {' '.join(args)} exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _src_digest() -> str:
    """sha256 of the ``repro`` sources, the code a fingerprint belongs to."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    """HEAD of the checkout; ``none`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def _stamp(digest: str) -> dict:
    """Host and configuration: compare results only like for like."""
    import numpy as np
    from repro.core import kernels

    return {
        "nproc": os.cpu_count(),
        "usable_cores": kernels.usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": kernels.resolved_name(None),
        "env": {
            key: os.environ.get(key)
            for key in ("REPRO_KERNEL", "REPRO_ARENA", "REPRO_SHM", "REPRO_CACHE")
        },
        "commit": _git_commit(),
        "src_sha256": digest,
    }


def _setup_probe(name: str, seed: int, tiny: bool) -> dict:
    """CPU seconds of imports plus construction in this fresh interpreter,
    scaled to the quiet host by reference rounds before and after."""
    c0 = time.process_time()
    import workloads

    wl = workloads.make(name, seed, tiny)
    state = wl.build()
    setup_s = time.process_time() - c0
    wl.teardown(state)
    ref_s = statistics.median(
        workloads.reference_s() for _ in range(4 * REF_ROUNDS)
    )
    return {"setup_s": setup_s * workloads.REF_S / ref_s}


def _one_pass(wl, inputs, tracer=None):
    """Build, run and check one pass; rebinding only with a ``tracer``."""
    from workloads import reference_s

    state = wl.build()
    try:
        if tracer is not None:
            wl.instrument(tracer, state)
        try:
            refs = [reference_s() for _ in range(REF_ROUNDS)]
            out = wl.run(state, inputs, tracer)
            refs += out.ref_samples + [reference_s() for _ in range(REF_ROUNDS)]
            out.ref_s = statistics.median(refs)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        wl.teardown(state)
    wl.check(out, inputs)
    return out


def _timed(wl, inputs, seconds):
    """A warm-up pass, then timed passes for ``seconds``.

    Returns all passes, the timed ones, and the peak RSS in MB after the
    first ``RSS_PASSES`` timed passes: read at a fixed pass count, it
    does not grow with the passes a quieter host fits into ``seconds``.
    """
    warm = _one_pass(wl, inputs)
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < RSS_PASSES or time.perf_counter() < deadline:
        passes.append(_one_pass(wl, inputs))
        if len(passes) == RSS_PASSES:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [warm, *passes], passes, peak_mb


def _traced(wl, inputs, seconds):
    """Like :func:`_timed`, traced: (all passes, tracers, timed, problems)."""
    from spans import Tracer, dump_jsonl

    from workloads import WORK

    problems = []

    def traced_pass(run):
        tracer = Tracer(run)
        out = _one_pass(wl, inputs, tracer)
        left = tracer.unrestored()
        if left:
            problems.append(f"still rebound after a traced pass: {left}")
        return tracer, out

    _, warm = traced_pass(0)
    tracers, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer, out = traced_pass(len(passes) + 1)
        tracers.append(tracer)
        passes.append(out)
    dump_jsonl(tracers, WORK / f"spans-{wl.stem}.jsonl")
    return [warm, *passes], tracers, passes, problems


def _end_to_end(passes, setup_s, peak_mb):
    """The end-to-end metrics of the timed passes.

    Times are CPU seconds, pool workers included, scaled to the quiet
    host (:func:`workloads.reference_s`), the median over the passes: on
    a shared host the wall time of identical runs moved by up to 2x with
    the neighbours' load, and their CPU time by a third, far beyond any
    bound a regression check could use.  Wall-clock pass and step times
    are reported by the traced run.
    """
    from workloads import REF_S

    for k, p in enumerate(passes):
        print(f"pass {k:3d}: cpu_s {p.cpu_s:.4f} ref_s {p.ref_s:.5f} "
              f"scaled {p.cpu_s * REF_S / p.ref_s:.4f}")
    metrics = {} if setup_s is None else {"setup_s": (setup_s, "s")}
    metrics.update({
        "cpu_s": (
            statistics.median(p.cpu_s * REF_S / p.ref_s for p in passes), "s"
        ),
        "flows_per_cpu_s": (
            statistics.median(
                p.flows_per_cpu_s * p.ref_s / REF_S for p in passes
            ),
            "1/s",
        ),
        "peak_rss_mb": (peak_mb, "MB"),
        "avg_cct_s": (float(passes[0].avg_cct_s), "s"),
    })
    if setup_s is None:  # the traced run's untraced baseline child
        metrics["wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
    return metrics


def _verdict(wl, checked, digest):
    """``(attempted, failed, fingerprint, problems)`` of the checked passes."""
    from workloads import WORK

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    problems = [line for p in checked for line in p.problems]
    prints = sorted({p.fingerprint for p in checked})
    if len(prints) > 1:
        problems.append(f"fingerprints differ between passes: {prints}")
        failed = attempted
    record = WORK / f"{wl.stem}.{digest[:16]}.fingerprint"
    if record.is_file():
        recorded = record.read_text().strip()
        if recorded != prints[0]:
            problems.append(
                f"fingerprint {prints[0]} differs from the recorded {recorded}"
            )
            failed = attempted
    elif not problems and failed == 0:
        record.write_text(prints[0] + "\n")
    return attempted, failed, prints[0], problems


def _emit(metrics, correct, attempted, failed, problems=(), stamp=None,
          fingerprint=None) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>18.6f} {unit}")
    for line in problems:
        print(f"problem: {line}")
    if stamp is not None:
        print(json.dumps({"stamp": stamp, "fingerprint": fingerprint}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def _run_all(args) -> int:
    """Every workload in turn, each in its own child."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        res = _child([
            "--workload", name, "--seed", str(args.seed), "--size", args.size,
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
        ], timeout=None)
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for key, m in res["metrics"].items():
            metrics[f"{name}/{key}"] = (m["value"], m["unit"])
    _emit(metrics, correct, attempted, failed)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Outside-in benchmark of repro (see the module docstring)."
    )
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-scale inputs for the self-test")
    ap.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--no-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return _run_all(args)
    tiny = args.size == "tiny"
    if args.setup_probe:
        print(json.dumps(_setup_probe(args.workload, args.seed, tiny)))
        return 0

    import workloads

    wl = workloads.make(args.workload, args.seed, tiny)
    workloads.WORK.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    if args.generate:
        wl.generate()
        print(json.dumps({"generated": wl.stem}))
        return 0
    if not wl.ready():
        _child(common + ["--generate"])
    digest = _src_digest()
    problems = []
    base_attempted = base_failed = 0
    if args.trace:
        import layers

        base = _child(common + ["--seconds", repr(args.seconds), "--trace", "0",
                                "--no-setup"])
        base_attempted, base_failed = base["attempted"], base["failed"]
        if not base["correct"]:
            problems.append("the untraced baseline run failed its checks")
        inputs = wl.load()
        checked, tracers, passes, problems_traced = _traced(
            wl, inputs, args.seconds
        )
        problems += problems_traced
        metrics = layers.per_layer(
            tracers, passes, base["metrics"]["wall_s"]["value"]
        )
        rows, wall = layers.row_sum(metrics), metrics["traced.wall_s"][0]
        print(f"layer rows incl. unattributed_s: {rows:.6f} s "
              f"of traced.wall_s {wall:.6f} s")
        if abs(rows - wall) > 1e-6 * wall:
            problems.append("the layer rows do not sum to the traced wall")
    else:
        setup_s = None
        if not args.no_setup:
            setup_s = statistics.median(
                _child(common + ["--setup-probe"])["setup_s"]
                for _ in range(SETUP_PROBES)
            )
        inputs = wl.load()
        checked, passes, peak_mb = _timed(wl, inputs, args.seconds)
        metrics = _end_to_end(passes, setup_s, peak_mb)
    attempted, failed, fp, pass_problems = _verdict(wl, checked, digest)
    problems = pass_problems + problems
    _emit(
        metrics,
        failed == 0 and not problems,
        attempted + base_attempted,
        failed + base_failed,
        problems,
        _stamp(digest),
        fp,
    )
    return 0


#: Longest :func:`_reap` waits for leftover children before killing them.
REAP_TIMEOUT_S = 10.0

#: ``prctl`` option: orphaned descendants become this process's children.
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt the processes this run's children leave behind (Linux).

    A sweep's pool worker may start a ``multiprocessing`` resource
    tracker of its own, which outlives the worker for a moment as an
    orphan; adopted, it is waited for by :func:`_reap`.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


def _child_pids() -> list:
    """Pids of this process's children still in the process table."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap(timeout: float = REAP_TIMEOUT_S) -> None:
    """Stop the helper processes this run started and wait for every
    child to end, killing those still alive after ``timeout`` seconds.

    Left alone, ``multiprocessing``'s resource tracker (and fork server,
    under that start method) would end only after this process has, and
    the process kernel keeps its worker pool for the program's life.
    """
    kernel = sys.modules.get("repro.core.kernels.process")
    if kernel is not None:
        kernel.shutdown()
    for module, attr in (
        ("multiprocessing.forkserver", "_forkserver"),
        ("multiprocessing.resource_tracker", "_resource_tracker"),
    ):
        stop = getattr(getattr(sys.modules.get(module), attr, None), "_stop", None)
        if stop is not None:
            try:
                stop()
            except OSError:
                pass
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, 0 if killed else os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.02)
            continue
        for pid in _child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        killed = True


if __name__ == "__main__":
    _become_subreaper()
    try:
        code = main()
    finally:
        _reap()
    sys.exit(code)
