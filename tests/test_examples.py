"""Smoke tests: every shipped example runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

CASES = [
    ("quickstart.py", [], "CCT speedup of FVDF"),
    ("motivating_example.py", [], "Baselines match the paper exactly"),
    ("facebook_trace_replay.py", ["--coflows", "8", "--ports", "12"],
     "CCT speedup of FVDF"),
    ("hibench_cluster.py", ["--jobs", "4"], "Table VII"),
    ("swallow_api_shuffle.py", [], "traffic reduction"),
    ("deadline_guarantees.py", [], "admitted met their deadline"),
]


@pytest.mark.parametrize("script,args,marker", CASES,
                         ids=[c[0] for c in CASES])
def test_example_runs(script, args, marker):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert marker in proc.stdout


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == {c[0] for c in CASES}
