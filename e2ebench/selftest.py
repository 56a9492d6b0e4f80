#!/usr/bin/env python3
"""Self-test of the benchmark; about two minutes.  From the repository root::

    python3 e2ebench/selftest.py

It checks two things and exits non-zero when either fails:

* the traced run restores what it rebinds: after a traced pass of every
  workload, no instance or class keeps a wrapper in its ``__dict__``
  and every rebound module function is the original object again;
* a tiny-size run of every workload, untraced and traced, ends with the
  result line the benchmark promises: every metric ``BENCHMARK.json``
  names, with its unit and a finite value (never 0 for an end-to-end
  metric), ``correct`` true and no failed operation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def check_restore() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from repro.core import rate_allocation
    from repro.runner import shm
    from spans import Tracer

    originals = {
        (rate_allocation, "priority_fill"): rate_allocation.priority_fill,
        (shm, "attach_arrays"): shm.attach_arrays,
    }
    workloads.WORK.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, seed=1, tiny=True)
        if not wl.ready():
            wl.generate()
        inputs = wl.load()
        state = wl.build()
        tracer = Tracer()
        try:
            wl.instrument(tracer, state)
            wl.run(state, inputs, tracer)
        finally:
            tracer.restore()
            wl.teardown(state)
        targets = tracer.targets()
        _require(bool(targets), f"{name}: nothing was rebound")
        for owner, attr in targets:
            if isinstance(owner, types.ModuleType):
                _require(
                    getattr(owner, attr) is originals[owner, attr],
                    f"{name}: {owner.__name__}.{attr} not restored",
                )
            else:  # an instance or a class: no wrapper left in its dict
                _require(
                    not hasattr(vars(owner).get(attr), "__wrapped__"),
                    f"{name}: {owner!r}.{attr} still rebound",
                )
        _require(
            any(sp.name == "pass" for sp in tracer.spans),
            f"{name}: the pass recorded no root span",
        )
        print(f"restored   {name}: {len(targets)} attributes, "
              f"{len(tracer.spans)} spans")


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in spec["workloads"]:
            name = workload["name"]
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", "1", "--seconds", "1", "--trace", str(trace),
                "--size", "tiny",
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=300
            )
            _require(proc.returncode == 0, f"{name} --trace {trace} exited "
                     f"{proc.returncode}:\n{proc.stderr[-3000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            _require(
                set(res) == {"correct", "attempted", "failed", "metrics"},
                f"{name} --trace {trace}: result keys {sorted(res)}",
            )
            _require(
                res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                f"{name} --trace {trace}: correct={res['correct']} "
                f"attempted={res['attempted']} failed={res['failed']}",
            )
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            _require(got == want, f"{name} --trace {trace}: metrics {got}")
            values = [v["value"] for v in res["metrics"].values()]
            _require(all(math.isfinite(v) for v in values),
                     f"{name} --trace {trace}: a value is not finite")
            if trace == 0:
                _require(all(v != 0 for v in values),
                         f"{name}: an end-to-end metric reads 0")
            print(f"result ok  {name} --trace {trace}")


def main() -> int:
    check_restore()
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
