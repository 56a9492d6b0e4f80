"""Pool-wide telemetry: worker snapshots, parent-side merge, report build.

Telemetry must be an *observation*, never an influence: enabling it does
not change summaries or cache digests, and the merged metrics are
identical no matter how the cells were split across workers (counters
are associative; the merge folds in spec order).
"""

import json

import pytest

from repro.analysis import ExperimentSetup
from repro.analysis.report import (
    SCHEMA,
    build_report,
    render_report,
    write_report,
)
from repro.obs import Observability
from repro.runner import (
    ResultCache,
    RunSpec,
    RunTelemetry,
    SweepGrid,
    TelemetrySnapshot,
    WorkloadSpec,
    run_specs,
)
from repro.runner.sweep import run_sweep
from repro.traces.distributions import ConstantSize
from repro.traces.generator import WorkloadConfig
from repro.units import gbps, mbps

SETUP = ExperimentSetup(num_ports=4, bandwidth=mbps(100), slice_len=0.01)

GRID = SweepGrid(
    policies=("sebf", "fvdf"),
    bandwidths=(mbps(100), gbps(1)),
    seeds=(0, 1),
    num_coflows=8,
    num_ports=4,
    max_width=3,
)


def _specs(telemetry=True):
    return GRID.specs(telemetry=telemetry)


def _merged_dump(outcomes, workers, wall_s=1.0):
    tele = RunTelemetry.collect(outcomes, workers=workers, wall_s=wall_s)
    return tele, tele.merged_metrics().dump()


class TestSnapshot:
    def test_capture_from_metrics_run(self):
        obs = Observability(trace=False, metrics=True)
        spec = RunSpec(
            policy="fvdf",
            workload=WorkloadSpec.generated(
                WorkloadConfig(
                    num_coflows=5, num_ports=4,
                    size_dist=ConstantSize(1e6), width=(1, 3),
                    arrival_rate=4.0,
                ),
                seed=3,
            ),
            setup=SETUP,
        )
        from repro.analysis import run_policy

        run_policy(spec.policy, spec.workload.build(), SETUP, obs=obs)
        snap = TelemetrySnapshot.capture("k", "fvdf", obs, 0.5, 0.4)
        assert snap.pid > 0
        assert snap.metrics["engine.decisions"]["value"] > 0
        assert snap.recorder is None  # no recorder attached
        payload = snap.to_json()
        json.dumps(payload)  # JSON-able end to end
        assert payload["policy"] == "fvdf"

    def test_telemetry_flag_not_in_digest(self):
        base = _specs(telemetry=False)[0]
        tele = _specs(telemetry=True)[0]
        assert base.digest() == tele.digest()


class TestPoolMerge:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_merged_counters_worker_invariant(self, workers):
        """The same grid split across any worker count merges to the
        sequential-loop totals (counters are associative)."""
        seq = run_specs(_specs(), workers=0, cache=False)
        _, seq_dump = _merged_dump(seq, workers=0)
        pooled = run_specs(_specs(), workers=workers, cache=False)
        tele, pool_dump = _merged_dump(pooled, workers=workers)
        assert len(tele.snapshots) == GRID.cells
        for name in (
            "engine.decisions", "engine.flow_completions",
            "engine.completions",
        ):
            assert pool_dump[name]["value"] == seq_dump[name]["value"], name
        lat_seq = seq_dump["engine.decision_latency"]
        lat_pool = pool_dump["engine.decision_latency"]
        assert lat_pool["count"] == lat_seq["count"]

    def test_telemetry_does_not_change_summaries(self):
        plain = run_specs(_specs(telemetry=False), workers=0, cache=False)
        telemetered = run_specs(_specs(), workers=2, cache=False)
        assert [o.summary for o in plain] == [o.summary for o in telemetered]
        assert all(o.telemetry is None for o in plain)
        assert all(o.telemetry is not None for o in telemetered)

    def test_cached_cells_carry_no_snapshot(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        cold = run_specs(_specs(), workers=0, cache=cache)
        warm = run_specs(_specs(), workers=0, cache=cache)
        assert all(o.telemetry is not None for o in cold)
        assert all(o.telemetry is None for o in warm)
        tele = RunTelemetry.collect(
            warm, workers=0, wall_s=0.1, cache=cache
        )
        assert tele.cached_cells == GRID.cells
        assert tele.cache_hits == GRID.cells
        assert tele.skew() == 0.0  # nothing executed anywhere

    def test_worker_stats_and_skew(self):
        outs = run_specs(_specs(), workers=2, cache=False)
        tele = RunTelemetry.collect(outs, workers=2, wall_s=1.0)
        stats = tele.worker_stats()
        assert sum(w["cells"] for w in stats.values()) == GRID.cells
        assert all(w["wall_s"] > 0 for w in stats.values())
        assert tele.skew() >= 1.0


class TestReport:
    def _telemetry(self):
        outs = run_specs(_specs(), workers=2, cache=False)
        return RunTelemetry.collect(outs, workers=2, wall_s=1.0)

    def test_build_report_shape(self):
        report = build_report(self._telemetry(), GRID.describe(), label="t")
        assert report["schema"] == SCHEMA
        assert report["cells"] == GRID.cells
        assert set(report["policies"]) == {"sebf", "fvdf"}
        for p in report["policies"].values():
            assert p["decisions"] > 0
            assert p["decision_latency_mean_s"] > 0
            assert p["bytes_sent"] > 0
        assert report["workers_detail"]
        json.dumps(report)  # report.json must serialize as-is

    def test_render_and_write(self, tmp_path):
        report = build_report(self._telemetry(), GRID.describe())
        text = render_report(report)
        assert "sweep telemetry" in text
        assert "fvdf" in text and "sebf" in text
        assert "worker load" in text
        out = write_report(report, tmp_path / "report.json")
        again = json.loads(out.read_text())
        assert again == json.loads(json.dumps(report))


class TestDegenerateInputs:
    """``repro report`` must not divide by zero on empty or all-cached
    inputs: undefined ratios become explicit JSON nulls and render as
    ``n/a``, never as fake measurements."""

    def _zero_decision_telemetry(self):
        # A snapshot whose metrics never saw a decision (e.g. an empty
        # workload, or a run with metrics disabled mid-flight).
        snap = TelemetrySnapshot(
            key="empty", policy="fvdf", pid=1,
            wall_s=0.01, cpu_s=0.01, peak_rss_kb=1000, metrics={},
        )
        return RunTelemetry(snapshots=[snap], workers=1, wall_s=0.01)

    def test_zero_decisions_yield_nulls_not_zero_division(self):
        report = build_report(
            self._zero_decision_telemetry(), {"mode": "test"}
        )
        p = report["policies"]["fvdf"]
        assert p["decisions"] == 0
        assert p["decision_latency_mean_s"] is None
        assert p["core_claims_per_decision"] is None
        json.dumps(report)  # nulls must serialize

    def test_zero_decisions_render_as_na(self):
        report = build_report(
            self._zero_decision_telemetry(), {"mode": "test"}
        )
        text = render_report(report)
        assert "n/a" in text
        assert "nan" not in text.lower()

    def test_all_cache_hit_sweep_has_null_skew(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        run_specs(_specs(), workers=0, cache=cache)  # cold fill
        warm = run_specs(_specs(), workers=0, cache=cache)
        tele = RunTelemetry.collect(
            warm, workers=0, wall_s=0.1, cache=cache
        )
        assert tele.skew() == 0.0  # the method itself stays a float
        report = build_report(tele, GRID.describe())
        assert report["skew"] is None  # ...but the report says "undefined"
        assert report["executed_cells"] == 0
        assert report["cached_cells"] == GRID.cells
        assert report["policies"] == {}  # no snapshots → no per-policy rows
        text = render_report(report)  # renders without dividing by zero
        assert "0 executed" in text
        json.dumps(report)

    def test_single_worker_run_reports_cleanly(self):
        outs = run_specs(_specs(), workers=1, cache=False)
        tele = RunTelemetry.collect(outs, workers=1, wall_s=1.0)
        report = build_report(tele, GRID.describe())
        assert report["workers"] == 1
        assert len(report["workers_detail"]) == 1
        assert report["skew"] is not None and report["skew"] >= 1.0
        text = render_report(report)
        assert "worker load" in text
        # A pooled sweep has no live window (that n/a is intentional);
        # every *aggregate* must still render as a real value.
        assert "live window: n/a" in text
        assert text.count("n/a") == 1


class TestRunSweep:
    """:func:`repro.runner.sweep.run_sweep`, behind ``repro sweep`` and
    ``repro report``: telemetry is the one difference between them."""

    def test_plain_sweep(self, tmp_path):
        sweep = run_sweep(GRID, workers=0, cache_dir=tmp_path)
        assert sweep.workers == 0 and sweep.telemetry is None
        assert [o.key for o in sweep.outcomes] == [s.key for s in _specs()]
        assert sweep.cache.stats()["misses"] == GRID.cells
        again = run_sweep(GRID, workers=0, cache_dir=tmp_path)
        assert all(o.cached for o in again.outcomes)
        assert [o.summary for o in again.outcomes] == [
            o.summary for o in sweep.outcomes
        ]

    def test_telemetry_sweep_feeds_the_report(self):
        sweep = run_sweep(GRID, workers="0", cache=False, telemetry=True)
        assert not sweep.cache.stats()["enabled"]
        assert sweep.telemetry.cells == GRID.cells
        assert len(sweep.telemetry.snapshots) == GRID.cells
        report = build_report(sweep.telemetry, GRID.describe())
        assert report["grid"]["policies"] == ["sebf", "fvdf"]

    def test_workers_default_to_env_then_all_cores(self, monkeypatch):
        from repro.runner import usable_cores

        monkeypatch.setattr("repro.runner.sweep.run_specs", lambda *a, **k: [])
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        assert run_sweep(GRID, cache=False).workers == 1
        monkeypatch.delenv("REPRO_PARALLEL")
        assert run_sweep(GRID, cache=False).workers == usable_cores()
        assert run_sweep(GRID, workers=0, cache=False).workers == 0
