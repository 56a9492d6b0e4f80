"""Failure and straggler injection in the cluster simulator."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, FailureModel, NO_FAILURES
from repro.errors import ConfigurationError
from repro.schedulers import make_scheduler
from repro.units import gbps

from tests.test_cluster import small_job


def run_cluster(jobs, failures=NO_FAILURES, seed=0, scheduler="sebf"):
    cfg = ClusterConfig(num_nodes=8, bandwidth=gbps(1), failures=failures, seed=seed)
    sim = ClusterSimulator(cfg, make_scheduler(scheduler))
    sim.submit_jobs(jobs)
    return sim.run()


class TestFailureModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureModel(task_failure_prob=1.0)
        with pytest.raises(ConfigurationError):
            FailureModel(straggler_prob=-0.1)
        with pytest.raises(ConfigurationError):
            FailureModel(max_retries=-1)
        with pytest.raises(ConfigurationError):
            FailureModel(straggler_slowdown=0.5)

    def test_no_failures_is_identity(self, rng):
        dur, attempts, failed = NO_FAILURES.stage_time(10.0, 4, rng)
        assert dur == 10.0
        assert attempts == 4
        assert not failed

    def test_retries_extend_duration(self):
        fm = FailureModel(task_failure_prob=0.9, max_retries=5)
        rng = np.random.default_rng(1)
        dur, attempts, _ = fm.stage_time(1.0, 4, rng)
        assert dur > 1.0
        assert attempts > 4

    def test_certain_failure_marks_failed(self):
        # max_retries=0 and very high failure prob: some task exhausts.
        fm = FailureModel(task_failure_prob=0.99, max_retries=0)
        rng = np.random.default_rng(2)
        _, _, failed = fm.stage_time(1.0, 8, rng)
        assert failed

    def test_stragglers_stretch_the_tail(self):
        fm = FailureModel(straggler_prob=1.0, straggler_slowdown=4.0)
        rng = np.random.default_rng(3)
        dur, _, failed = fm.stage_time(2.0, 4, rng)
        assert dur == pytest.approx(8.0)
        assert not failed

    def test_deterministic_under_seed(self):
        fm = FailureModel(task_failure_prob=0.3, straggler_prob=0.3)
        a = fm.stage_time(1.0, 10, np.random.default_rng(7))
        b = fm.stage_time(1.0, 10, np.random.default_rng(7))
        assert a == b

    def test_stage_time_validation(self, rng):
        with pytest.raises(ConfigurationError):
            NO_FAILURES.stage_time(1.0, 0, rng)


class TestClusterWithFailures:
    def test_failures_increase_jct(self):
        clean = run_cluster([small_job(scale=1e-2)], seed=5)
        # retry budget generous enough that the job always completes
        flaky = run_cluster(
            [small_job(scale=1e-2)],
            failures=FailureModel(task_failure_prob=0.6, max_retries=30),
            seed=5,
        )
        assert flaky.failed_jobs == 0
        assert flaky.avg_jct > clean.avg_jct
        assert all(j.map_attempts > j.spec.num_mappers for j in flaky.job_results)

    def test_job_aborts_when_retries_exhausted(self):
        res = run_cluster(
            [small_job(scale=1e-2) for _ in range(6)],
            failures=FailureModel(task_failure_prob=0.95, max_retries=0),
            seed=3,
        )
        assert res.failed_jobs >= 1
        # every submitted job is accounted for, failed or not.
        assert len(res.job_results) == 6
        # failed jobs never reach the fabric from the map stage.
        for j in res.job_results:
            if j.failed and j.shuffle_stage.end == 0.0:
                assert j.shuffle_bytes_sent == 0.0

    def test_failed_jobs_excluded_from_metrics(self):
        res = run_cluster(
            [small_job(scale=1e-2) for _ in range(6)],
            failures=FailureModel(task_failure_prob=0.95, max_retries=0),
            seed=3,
        )
        ok = res.successful
        assert len(ok) + res.failed_jobs == 6
        if ok:
            assert res.avg_jct > 0
        assert len(res.completions()) == len(ok)

    def test_stragglers_only_never_fail_jobs(self):
        res = run_cluster(
            [small_job(scale=1e-2) for _ in range(4)],
            failures=FailureModel(straggler_prob=0.5, straggler_slowdown=3.0),
            seed=9,
        )
        assert res.failed_jobs == 0
        assert len(res.successful) == 4

    def test_cores_released_even_on_failure(self):
        cfg = ClusterConfig(
            num_nodes=4,
            failures=FailureModel(task_failure_prob=0.95, max_retries=0),
            seed=3,
        )
        sim = ClusterSimulator(cfg, make_scheduler("sebf"))
        sim.submit_jobs([small_job(scale=1e-2) for _ in range(4)])
        sim.run()
        assert np.all(sim.cpu.claimed == 0)
