"""Timeline rendering, CSV export, decision hooks, cluster-on-two-tier —
the integration extras."""

import csv
import io

import pytest

from repro.analysis import (
    ExperimentSetup,
    export_coflows_csv,
    export_flows_csv,
    render_timeline,
    run_policy,
)
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.errors import ConfigurationError
from repro.traces.distributions import ConstantSize
from repro.traces.generator import WorkloadConfig, generate_workload


@pytest.fixture
def result(rng):
    cfg = WorkloadConfig(
        num_coflows=5, num_ports=4, size_dist=ConstantSize(2.0), width=2,
        arrival_rate=2.0,
    )
    workload = generate_workload(cfg, rng)
    return run_policy("sebf", workload, ExperimentSetup(num_ports=4, bandwidth=1.0))


class TestTimeline:
    def test_renders_all_rows(self, result):
        out = render_timeline(result.coflow_results, title="run")
        lines = out.splitlines()
        assert lines[0] == "run"
        assert sum("=" in l for l in lines) == 5

    def test_bar_positions_scale_with_time(self):
        from repro.core.coflow import CoflowResult

        def cr(label, arrival, finish):
            return CoflowResult(
                coflow_id=0, label=label, arrival=arrival, finish=finish,
                finish_physical=finish, size=1, width=1, bytes_sent=1,
                flow_results=[],
            )

        out = render_timeline([cr("early", 0.0, 1.0), cr("late", 9.0, 10.0)],
                              width=20)
        early, late = out.splitlines()[:2]
        assert early.index("=") < late.index("=")

    def test_empty(self):
        assert render_timeline([]) == "(no coflows)"

    def test_max_rows_truncates(self, result):
        out = render_timeline(result.coflow_results, max_rows=2)
        assert "more)" in out

    def test_width_validation(self, result):
        with pytest.raises(ConfigurationError):
            render_timeline(result.coflow_results, width=5)


class TestCsvExport:
    def test_flow_export_shape(self, result):
        buf = io.StringIO()
        export_flows_csv(result, buf)
        buf.seek(0)
        rows = list(csv.DictReader(buf))
        assert len(rows) == len(result.flow_results)
        assert float(rows[0]["fct"]) >= 0

    def test_coflow_export_shape(self, result):
        buf = io.StringIO()
        export_coflows_csv(result, buf)
        buf.seek(0)
        rows = list(csv.DictReader(buf))
        assert len(rows) == 5
        assert rows[0]["met_deadline"] == ""  # no deadlines in this run

    def test_file_destinations(self, result, tmp_path):
        fpath, cpath = tmp_path / "f.csv", tmp_path / "c.csv"
        export_flows_csv(result, fpath)
        export_coflows_csv(result, cpath)
        assert fpath.read_text().startswith("flow_id,")
        assert cpath.read_text().startswith("coflow_id,")


class TestDecisionHook:
    def test_hook_fires_each_decision(self):
        from repro.core.simulator import SliceSimulator
        from repro.fabric.bigswitch import BigSwitch
        from repro.schedulers import make_scheduler

        sim = SliceSimulator(BigSwitch(2, 1.0), make_scheduler("sebf"),
                             slice_len=0.01)
        ticks = []
        sim.on_decision(ticks.append)
        sim.submit(Coflow([Flow(0, 0, 1.0)]))
        sim.submit(Coflow([Flow(1, 1, 2.0)], arrival=0.5))
        res = sim.run()
        assert len(ticks) == res.decision_points
        assert ticks == sorted(ticks)


class TestClusterTwoTier:
    def test_config_builds_two_tier(self):
        from repro.cluster import ClusterConfig
        from repro.fabric import TwoTierFabric

        cfg = ClusterConfig(num_nodes=8, num_racks=2, uplink_bandwidth=1e6)
        assert isinstance(cfg.build_fabric(), TwoTierFabric)

    def test_config_validation(self):
        from repro.cluster import ClusterConfig

        with pytest.raises(ConfigurationError, match="divide"):
            ClusterConfig(num_nodes=10, num_racks=3)
        with pytest.raises(ConfigurationError, match="requires num_racks"):
            ClusterConfig(num_nodes=8, uplink_bandwidth=1.0)

    def test_oversubscription_slows_jobs(self):
        from repro.cluster import ClusterConfig, ClusterSimulator
        from repro.schedulers import make_scheduler
        from tests.test_cluster import small_job
        from repro.units import gbps

        def run(uplink_ratio):
            cfg = ClusterConfig(
                num_nodes=8, bandwidth=gbps(1), num_racks=2,
                uplink_bandwidth=4 * gbps(1) / uplink_ratio, seed=4,
            )
            sim = ClusterSimulator(cfg, make_scheduler("sebf"))
            sim.submit_jobs([small_job(scale=5e-2)])
            return sim.run()

        flat = run(1)
        squeezed = run(8)
        assert squeezed.stage_means()["shuffle"] >= flat.stage_means()["shuffle"]
