"""Start-up imports: a process loads only the modules it runs.

Package ``__init__``s resolve their public names on first use
(:mod:`repro._lazy`), the telemetry plane imports ``http.server`` when it
starts, and :func:`~repro.runner.run_specs` imports
``concurrent.futures`` when it starts a pool.  The import checks run in a
fresh interpreter, since this test process has long imported everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAZY_PACKAGES = (
    "repro.analysis", "repro.compression", "repro.schedulers",
    "repro.service", "repro.traces",
)

#: Modules the benchmark's import line must not load: the HTTP stack, the
#: process pool, and the analysis and trace modules no workload runs.
DEFERRED = (
    "http.server", "concurrent.futures",
    "repro.analysis.svg", "repro.analysis.tables", "repro.analysis.timeline",
    "repro.analysis.tracefile", "repro.analysis.collate",
    "repro.analysis.export",
    "repro.traces.spark", "repro.traces.classify", "repro.traces.io",
)

#: A picklable workload factory and a few cells on it, in the child.
CELLS = textwrap.dedent(
    """
    import numpy as np
    from repro.analysis.harness import ExperimentSetup
    from repro.core.coflow import Coflow
    from repro.core.flow import Flow
    from repro.runner import RunSpec, WorkloadSpec, run_specs

    def coflows(seed):
        rng = np.random.default_rng(seed)
        return [
            Coflow(
                [
                    Flow(src=int(s), dst=int(d), size=float(z))
                    for s, d, z in zip(
                        rng.integers(0, 4, 3), rng.integers(4, 8, 3),
                        rng.lognormal(np.log(4e6), 1.0, 3),
                    )
                ],
                arrival=0.2 * k,
            )
            for k in range(6)
        ]

    def cells(policies):
        setup = ExperimentSetup(num_ports=8, bandwidth=1e8, slice_len=0.01)
        return [
            RunSpec(
                policy=p, workload=WorkloadSpec.from_callable(coflows, 7),
                setup=setup, arrays=True,
            )
            for p in policies
        ]
    """
)


def _benchmark_imports() -> str:
    """The ``repro`` import statements of ``e2ebench/workloads.py``."""
    tree = ast.parse((ROOT / "e2ebench" / "workloads.py").read_text())
    return "\n".join(
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.module.split(".")[0] == "repro"
    )


def _run(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_import_line_defers_what_it_does_not_run(tmp_path):
    code = "\n".join([
        "import json, sys",
        _benchmark_imports(),
        f"DEFERRED = {DEFERRED!r}",
        "loaded = [m for m in DEFERRED if m in sys.modules]",
        CELLS,
        textwrap.dedent(
            """
            from repro.obs.exposition import TelemetryPlane
            from repro.schedulers import make_scheduler
            from repro.service import SourceSpec, StreamDriver

            spec = SourceSpec(rate=10.0, num_ports=8, seed=1, limit=4)
            setup = ExperimentSetup(num_ports=8)
            driver = StreamDriver(
                setup.build_simulator(make_scheduler("fvdf")), spec.build(),
                setup=setup, source_spec=spec,
            )
            plane = TelemetryPlane(driver)
            plane.start(port=0)
            plane.stop()
            http_started = "http.server" in sys.modules
            run_specs(cells(["sebf", "fvdf"]), workers=0, cache=False)
            pool_inline = "concurrent.futures" in sys.modules
            run_specs(cells(["sebf", "fvdf"]), workers=2, cache=False)
            print(json.dumps({
                "loaded": loaded,
                "http_started": http_started,
                "pool_inline": pool_inline,
                "pool_started": "concurrent.futures" in sys.modules,
            }))
            """
        ),
    ])
    out = _run(code, tmp_path)
    assert out["loaded"] == []
    assert out["http_started"]
    assert not out["pool_inline"]
    assert out["pool_started"]


def test_pool_workers_import_nothing_the_parent_lacks(tmp_path):
    """sweep-grid forks fresh workers every pass, so a module the parent
    lacks is compiled again in every worker of every pass.  After one
    pooled run, a worker running all seven sweep policies imports none."""
    code = "\n".join([
        "import json, sys",
        _benchmark_imports(),
        CELLS,
        textwrap.dedent(
            """
            from concurrent.futures import ProcessPoolExecutor
            from repro.runner import pool

            POLICIES = ["sebf", "scf", "ncf", "lcf", "pff", "pfp", "fvdf"]
            coflows(7)  # the parent builds the workload, as sweep-grid's check does
            run_specs(cells(POLICIES), workers=2, cache=False)

            def in_worker(specs):
                before = set(sys.modules)
                outs = [pool._execute_spec_pooled(spec) for spec in specs]
                return outs, sorted(set(sys.modules) - before)

            with ProcessPoolExecutor(1) as ex:
                outs, new = ex.submit(in_worker, cells(POLICIES)).result()
            for out in outs:  # collects and unlinks the shm segments
                pool._reattach(out)
            print(json.dumps({
                "new": new, "shm": [out.shm_collected for out in outs],
            }))
            """
        ),
    ])
    out = _run(code, tmp_path)
    assert out["new"] == [], out["new"]
    assert out["shm"] == [True] * 7


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_exports(name):
    pkg = importlib.import_module(name)
    assert list(pkg._EXPORTS) == pkg.__all__
    assert set(pkg.__all__) <= set(dir(pkg))
    for attr, module in pkg._EXPORTS.items():
        value = getattr(pkg, attr)
        assert value is getattr(importlib.import_module(module), attr)
        assert pkg.__dict__[attr] is value  # cached: no second lookup
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
