"""Command-line interface."""

import json

import pytest

from repro.cli import main, parse_bandwidth
from repro.errors import ReproError
from repro.schedulers import scheduler_names
from repro.units import GBPS, MBPS


class TestParseBandwidth:
    def test_units(self):
        assert parse_bandwidth("100mbps") == pytest.approx(100 * MBPS)
        assert parse_bandwidth("1gbps") == pytest.approx(GBPS)
        assert parse_bandwidth("1.5Gbps") == pytest.approx(1.5 * GBPS)
        assert parse_bandwidth("12500") == 12500.0

    def test_garbage(self):
        with pytest.raises(ReproError):
            parse_bandwidth("fast")


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

    def test_replay_missing_file(self, capsys):
        with pytest.raises(FileNotFoundError):
            main(["replay", "/nonexistent/trace.txt"])

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
    """The real ``serve``/``sweep``/``report`` command paths, end to end
    on tiny inputs."""

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
