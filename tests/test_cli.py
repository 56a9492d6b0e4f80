"""Command-line interface: each command parses its options and makes one
call into the package it drives; the tests of those calls live with
their packages, and one argv test per command covers the parsing."""

import argparse
import ast
import json
import math
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import ExperimentSetup
from repro.cli import build_parser, main, parse_bandwidth
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError, ReproError
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import make_scheduler, scheduler_names
from repro.units import GBPS, MBPS

#: Calls that assemble a run; a command leaves them to its package.
RUN_BUILDERS = {
    "StreamDriver", "restore_driver", "TelemetryPlane", "ResultCache",
    "run_specs", "RunTelemetry", "ClusterConfig", "ClusterSimulator",
    "Observability", "WorkloadConfig", "generate_workload", "pytest.main",
}


def _called_names(fn: ast.FunctionDef):
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr
                if isinstance(func.value, ast.Name):
                    yield f"{func.value.id}.{func.attr}"


def test_no_command_builds_a_run():
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    assert len(commands) == 12
    for fn in commands:
        assert not RUN_BUILDERS & set(_called_names(fn)), fn.name


def test_docstring_and_readme_name_every_subcommand():
    [sub] = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert len(sub.choices) == 12
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name in sub.choices:
        assert f"``{name}``" in cli.__doc__, name
        assert f"`{name}`" in readme, name


class TestParseBandwidth:
    def test_units(self):
        assert parse_bandwidth("100mbps") == pytest.approx(100 * MBPS)
        assert parse_bandwidth("1gbps") == pytest.approx(GBPS)
        assert parse_bandwidth("1.5Gbps") == pytest.approx(1.5 * GBPS)
        assert parse_bandwidth("12500") == 12500.0

    def test_garbage(self):
        with pytest.raises(ReproError):
            parse_bandwidth("fast")

    @pytest.mark.parametrize("argv, message", [
        (["--seeds", "1.5"], "argument --seeds: invalid int list value: '1.5'"),
        (["--bandwidths", "1gbps,fast"],
         "argument --bandwidths: invalid bandwidth list value: '1gbps,fast'"),
    ])
    def test_bad_list_item_names_the_list_type(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
class TestRejectsNonFinite:
    """A slice length or bandwidth that is NaN, infinite or not positive
    fails where it is given, before any run starts."""

    def test_setup_and_engine(self, value):
        with pytest.raises(ConfigurationError, match="bandwidth must be positive"):
            ExperimentSetup(bandwidth=value)
        with pytest.raises(ConfigurationError, match="slice_len must be positive"):
            ExperimentSetup(slice_len=value)
        with pytest.raises(ConfigurationError, match="port capacities must be"):
            BigSwitch(2, value)
        with pytest.raises(ConfigurationError, match="slice_len must be positive"):
            SliceSimulator(BigSwitch(2, 1.0), make_scheduler("fifo"), slice_len=value)

    @pytest.mark.parametrize("option", ["--slice", "--bandwidth"])
    def test_compare_exits_2(self, value, option, capsys):
        assert main(["compare", "--coflows", "2", f"{option}={value}"]) == 2
        name = "slice_len" if option == "--slice" else "bandwidth"
        assert f"error: {name} must be positive and finite, got {value}" in (
            capsys.readouterr().err
        )


class TestCommands:
    def test_schedulers_lists_all(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(scheduler_names())

    def test_compare_runs(self, capsys):
        rc = main([
            "compare", "--policies", "fifo,fvdf", "--coflows", "6",
            "--ports", "4", "--bandwidth", "100mbps", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg CCT" in out and "fvdf" in out
        assert "speedup of fvdf" in out

    def test_compare_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--policies", "quantum-annealer"])

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "sebf" in out and "4.50" in out

    def test_replay(self, tmp_path, capsys, rng):
        from repro.traces import synthesize_facebook_like, write_facebook_trace

        trace = synthesize_facebook_like(rng, num_coflows=5, num_ports=6,
                                         mean_reducer_mb=1.0)
        path = tmp_path / "t.txt"
        write_facebook_trace(trace, path)
        assert main(["replay", str(path), "--policies", "sebf",
                     "--bandwidth", "100mbps"]) == 0
        out = capsys.readouterr().out
        assert "5 coflows" in out

    def test_replay_missing_file(self, tmp_path, capsys):
        for name in ("trace.txt", "trace.csv"):  # FB and CSV readers
            path = tmp_path / "missing" / name
            assert main(["replay", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"error: cannot read trace {path}" in err

    def test_cluster(self, capsys):
        rc = main(["cluster", "--scale", "large", "--nodes", "8",
                   "--jobs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "with Swallow" in out and "saved" in out

    def test_experiments_lists_registry(self, capsys):
        from repro.experiments import EXPERIMENTS

        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_reproduce_collect_only(self, capsys):
        rc = main(["reproduce", "--only", "fig4", "--collect-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench_fig4_motivating_example" in out

    def test_reproduce_unknown_experiment(self, capsys):
        assert main(["reproduce", "--only", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "schedulers"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "fvdf" in proc.stdout


class TestServiceCommands:
    """The ``serve``/``sweep``/``report`` argv paths, end to end on tiny
    inputs."""

    def test_serve_checkpoint_then_resume_to_report(self, tmp_path, capsys):
        ck, rep = tmp_path / "svc.npz", tmp_path / "serve.json"
        assert main(["serve", "--coflows", "200", "--ticks", "3",
                     "--checkpoint", str(ck)]) == 0
        assert ck.exists()
        assert main(["serve", "--resume", str(ck), "--report", str(rep)]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        report = json.loads(rep.read_text())
        assert report["schema"] == "repro-report-v1"
        assert report["stream"]["coflows_done"] == 200
        assert report["stream"]["coflows_submitted"] == 200

    def test_serve_bad_input_line_exits_2_naming_it(self, tmp_path, capsys):
        good = {"arrival": 0.0, "flows": [{"src": 0, "dst": 1, "size": 10.0}]}
        bad = {"arrival": 0.0, "flows": [{"src": 0, "dst": 1, "size": float("nan")}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
        assert main(["serve", "--input", str(path), "--ports", "4"]) == 2
        err = capsys.readouterr().err
        assert f"line 3 of {path}" in err
        assert "flow size must be finite, got nan" in err

    @pytest.mark.parametrize("argv, message", [
        (["--resume", "nope.npz"],
         "error: cannot read checkpoint nope.npz: [Errno 2] No such file"),
        (["--resume", "."], "error: cannot read checkpoint .: [Errno 21] Is a directory"),
        (["--input", "nope.jsonl"],
         "error: cannot read JSONL nope.jsonl: [Errno 2] No such file"),
    ], ids=["resume-missing", "resume-directory", "input-missing"])
    def test_serve_unreadable_file_exits_2_naming_it(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["serve", *argv]) == 2
        assert message in capsys.readouterr().err

    GRID_ARGS = [
        "--policies", "sebf,fvdf", "--bandwidths", "100mbps,1gbps", "--seeds", "0",
        "--coflows", "10", "--workers", "0", "--no-cache",
    ]

    def test_sweep_tiny_grid(self, capsys):
        assert main(["sweep", *self.GRID_ARGS]) == 0
        out = capsys.readouterr().out
        assert "sweep grid — 4 cells, 0 workers" in out
        assert "s0/bw1.25e+07/sebf" in out and "s0/bw1.25e+07/fvdf" in out
        assert "cache off" in out

    def test_report_tiny_grid(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["report", *self.GRID_ARGS, "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro-report-v1"
        assert report["grid"]["policies"] == ["sebf", "fvdf"]
        assert report["grid"]["num_coflows"] == 10
        assert f"report written -> {out_path}" in capsys.readouterr().out
