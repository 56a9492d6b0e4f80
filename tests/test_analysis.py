"""Experiment harness and report rendering."""

import pytest

from repro.analysis import (
    ExperimentSetup,
    render_cdf,
    render_series,
    render_table,
    run_many,
    run_policy,
    speedups_over,
)
from repro.errors import ConfigurationError
from repro.schedulers import make_scheduler
from repro.traces.distributions import ConstantSize
from repro.traces.generator import WorkloadConfig, generate_workload


@pytest.fixture
def workload(rng):
    cfg = WorkloadConfig(
        num_coflows=6, num_ports=4, size_dist=ConstantSize(2.0), width=2,
        arrival_rate=2.0,
    )
    return generate_workload(cfg, rng)


@pytest.fixture
def setup():
    return ExperimentSetup(num_ports=4, bandwidth=1.0, slice_len=0.01)


class TestHarness:
    def test_run_policy_by_name(self, workload, setup):
        res = run_policy("sebf", workload, setup)
        assert len(res.coflow_results) == 6

    def test_run_many_paired(self, workload, setup):
        out = run_many(["fifo", "sebf", "fvdf"], workload, setup)
        assert set(out) == {"fifo", "sebf", "fvdf"}
        # identical workload: same total bytes everywhere
        totals = {n: r.total_bytes_original for n, r in out.items()}
        assert len(set(round(v, 6) for v in totals.values())) == 1

    @pytest.mark.parametrize(
        "pair", [("sebf", make_scheduler("sebf", rate_policy="madd")),
                 ("edf-deadline", "edf-noadmission")]
    )
    def test_run_many_rejects_policies_sharing_a_name(self, workload, setup, pair):
        with pytest.raises(ConfigurationError, match=rf"{pair[0]}.*{pair[1]}"):
            run_many(["fifo", *pair], workload, setup)

    def test_workload_reusable_across_runs(self, workload, setup):
        r1 = run_policy("sebf", workload, setup)
        r2 = run_policy("sebf", workload, setup)
        assert r1.avg_cct == pytest.approx(r2.avg_cct)

    def test_speedups_over(self, workload, setup):
        out = run_many(["fifo", "fvdf"], workload, setup)
        sp = speedups_over(out, ours="fvdf", metric="avg_cct")
        assert "fifo" in sp and sp["fifo"] > 0
        with pytest.raises(ConfigurationError):
            speedups_over(out, ours="nope")

    def test_setup_sweep_copy(self, setup):
        s2 = setup.with_(bandwidth=2.0)
        assert s2.bandwidth == 2.0
        assert setup.bandwidth == 1.0

    def test_setup_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSetup(num_ports=0)


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(["name", "value"], [["a", 1.5], ["long-name", 22.25]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_render_table_mismatched_row(self):
        with pytest.raises(ConfigurationError):
            render_table(["a"], [["x", "y"]])

    def test_render_cdf(self):
        out = render_cdf([1.0, 2.0, 3.0, 4.0], points=[2.0, 4.0])
        assert "50.0%" in out and "100.0%" in out

    def test_render_cdf_empty(self):
        assert "(no data)" in render_cdf([])

    def test_render_series(self):
        out = render_series([1, 2], [0.5, 0.7], xlabel="bw", ylabel="speedup")
        assert "bw" in out and "speedup" in out
