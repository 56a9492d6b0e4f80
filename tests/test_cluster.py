"""Cluster deployment simulator: jobs, stages, GC, traffic."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    FailureModel,
    GcModel,
    JobSpec,
    NodeSpec,
    place_tasks,
)
from repro.errors import ConfigurationError
from repro.schedulers import make_scheduler
from repro.traces.spark import get_profile, shuffle_coflow
from repro.units import GB, MB, gbps


def small_job(arrival=0.0, app="sort", mappers=2, reducers=2, scale=1e-3, **kw):
    return JobSpec(
        app=get_profile(app),
        input_bytes=64 * MB,
        num_mappers=mappers,
        num_reducers=reducers,
        shuffle_scale=scale,
        arrival=arrival,
        **kw,
    )


def run_cluster(jobs, scheduler="sebf", **cfg_kw):
    cfg = ClusterConfig(num_nodes=8, bandwidth=gbps(1), **cfg_kw)
    sim = ClusterSimulator(cfg, make_scheduler(scheduler))
    sim.submit_jobs(jobs)
    return sim.run()


class TestJobSpec:
    def test_shuffle_and_output_bytes(self):
        spec = small_job(scale=1.0, mappers=3, reducers=2)
        assert spec.shuffle_bytes == pytest.approx(
            6 * get_profile("sort").block_uncompressed
        )
        assert spec.output_bytes == pytest.approx(32 * MB)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobSpec(app=get_profile("sort"), input_bytes=0)
        with pytest.raises(ConfigurationError):
            JobSpec(app=get_profile("sort"), input_bytes=1, num_mappers=0)
        with pytest.raises(ConfigurationError):
            JobSpec(app=get_profile("sort"), input_bytes=1, shuffle_scale=0)

    def test_auto_label(self):
        spec = small_job()
        assert spec.label.startswith("sort-")


class TestNodeSpec:
    def test_defaults_sane(self):
        spec = NodeSpec()
        assert spec.cores > 0 and spec.map_speed > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(cores=0)
        with pytest.raises(ConfigurationError):
            NodeSpec(disk_bandwidth=-1)


class TestGcModel:
    def test_monotone_in_allocation(self):
        gc = GcModel()
        allocs = np.linspace(0, 8 * GB, 20)
        times = [gc.gc_time(a) for a in allocs]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_pressure_kicks_in_past_knee(self):
        gc = GcModel(heap=1 * GB, pressure_knee=0.5)
        assert gc.pressure(0.25 * GB) == 1.0
        assert gc.pressure(0.9 * GB) > 1.0

    def test_compression_halves_alloc_reduces_gc(self):
        gc = GcModel()
        assert gc.gc_time(1 * GB) > gc.gc_time(0.25 * GB)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GcModel(heap=0)
        with pytest.raises(ConfigurationError):
            GcModel(pressure_knee=0)
        with pytest.raises(ConfigurationError):
            GcModel().gc_time(-1)


class TestShuffleBuild:
    def test_flow_matrix(self):
        spec = small_job(mappers=3, reducers=2, scale=1.0)
        c = shuffle_coflow(
            spec.app, [0, 1, 2], [3, 4], scale=spec.shuffle_scale, arrival=5.0
        )
        assert c.width == 6
        assert c.arrival == 5.0
        assert sum(f.size for f in c.flows) == pytest.approx(
            spec.shuffle_bytes_per_round
        )
        assert all(f.ratio_override == pytest.approx(spec.app.ratio) for f in c.flows)

    def test_place_tasks_spreads(self, rng):
        nodes = place_tasks(rng, 4, 8)
        assert len(set(nodes.tolist())) == 4  # no collisions when room
        many = place_tasks(rng, 20, 8)
        assert len(many) == 20


class TestClusterRuns:
    def test_single_job_all_stages_ordered(self):
        res = run_cluster([small_job()])
        assert len(res.job_results) == 1
        j = res.job_results[0]
        assert j.map_stage.start <= j.map_stage.end <= j.shuffle_stage.end
        assert j.shuffle_stage.end <= j.reduce_stage.end <= j.result_stage.end
        assert j.jct > 0

    def test_stage_means_keys(self):
        res = run_cluster([small_job(), small_job(arrival=1.0)])
        means = res.stage_means()
        assert set(means) == {"map", "shuffle", "reduce", "result"}
        assert all(v >= 0 for v in means.values())

    def test_no_compression_no_traffic_reduction(self):
        res = run_cluster([small_job()], scheduler="sebf")
        assert res.traffic_reduction == pytest.approx(0.0)

    def test_swallow_reduces_traffic_by_app_ratio(self):
        """A sort job on a thin network compresses ~fully: traffic drops by
        ~1 - 0.2496 (Table I)."""
        cfg = ClusterConfig(num_nodes=8, bandwidth=100 * MB / 8)
        sim = ClusterSimulator(cfg, make_scheduler("fvdf"))
        sim.submit_jobs([small_job(scale=1e-2)])
        res = sim.run()
        assert res.traffic_reduction == pytest.approx(0.75, abs=0.08)

    def test_swallow_improves_jct(self):
        jobs_a = [small_job(arrival=i * 0.5, scale=5e-3) for i in range(4)]
        jobs_b = [small_job(arrival=i * 0.5, scale=5e-3) for i in range(4)]
        base = run_cluster(jobs_a, scheduler="sebf")
        swallow = run_cluster(jobs_b, scheduler="fvdf")
        assert swallow.avg_jct < base.avg_jct

    def test_gc_lower_with_compression(self):
        base = run_cluster([small_job(scale=0.1)], scheduler="sebf")
        comp = run_cluster([small_job(scale=0.1)], scheduler="fvdf")
        assert comp.gc_summary()["reduce"] <= base.gc_summary()["reduce"]
        assert comp.gc_summary()["map"] <= base.gc_summary()["map"]

    def test_double_submit_rejected(self):
        cfg = ClusterConfig(num_nodes=4)
        sim = ClusterSimulator(cfg, make_scheduler("sebf"))
        job = small_job()
        sim.submit_job(job)
        with pytest.raises(ConfigurationError, match="twice"):
            sim.submit_job(job)

    def test_completions_sorted(self):
        res = run_cluster([small_job(arrival=float(i)) for i in range(3)])
        comps = res.completions()
        assert comps == sorted(comps)
        assert len(comps) == 3

    def test_cores_released_at_end(self):
        cfg = ClusterConfig(num_nodes=4)
        sim = ClusterSimulator(cfg, make_scheduler("sebf"))
        sim.submit_jobs([small_job(), small_job(arrival=0.2)])
        sim.run()
        assert np.all(sim.cpu.claimed == 0)

    def test_cpu_sampling(self):
        res = run_cluster([small_job()], sample_cpu=True)
        assert res.cpu_recorder is not None
        assert len(res.cpu_recorder) > 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(bandwidth=0)

    def test_waves_stretch_map_stage(self):
        """More map tasks than cluster slots queue into waves (per-task
        work held constant by scaling the input with the task count)."""
        def run(mappers):
            cfg = ClusterConfig(
                num_nodes=2, bandwidth=gbps(1),
                node_spec=NodeSpec(cores=2), seed=6,
            )
            sim = ClusterSimulator(cfg, make_scheduler("sebf"))
            job = JobSpec(
                app=get_profile("sort"),
                input_bytes=mappers * 32 * MB,  # 32 MB per map task
                num_mappers=mappers,
                num_reducers=1,
                shuffle_scale=1e-3,
            )
            sim.submit_jobs([job])
            return sim.run().stage_means()["map"]

        one_wave = run(2)  # 2 tasks on 4 slots
        many_waves = run(16)  # 16 tasks on 4 slots -> >= 4 waves
        assert many_waves >= one_wave * 3


class TestIterativeJobs:
    def run_one(self, rounds):
        cfg = ClusterConfig(num_nodes=8, bandwidth=gbps(1), seed=2)
        sim = ClusterSimulator(cfg, make_scheduler("sebf"))
        sim.submit_jobs([small_job(scale=2e-2, rounds=rounds)])
        net = sim.net
        res = sim.run()
        return res, net

    def test_rounds_validation(self):
        with pytest.raises(ConfigurationError):
            small_job(rounds=0)

    def test_total_shuffle_bytes_scale_with_rounds(self):
        spec1 = small_job(scale=1.0, rounds=1)
        spec3 = small_job(scale=1.0, rounds=3)
        assert spec3.shuffle_bytes == pytest.approx(3 * spec1.shuffle_bytes)
        assert spec3.shuffle_bytes_per_round == pytest.approx(spec1.shuffle_bytes)

    def test_each_round_is_one_coflow(self):
        res, net = self.run_one(rounds=3)
        assert len(net.result().coflow_results) == 3
        assert res.job_results[0].failed is False

    def test_iterative_job_takes_longer(self):
        one, _ = self.run_one(rounds=1)
        three, _ = self.run_one(rounds=3)
        assert three.avg_jct > one.avg_jct
        # shuffle + reduce stage time accumulates across rounds.
        assert three.stage_means()["shuffle"] > one.stage_means()["shuffle"]
        assert three.stage_means()["reduce"] > one.stage_means()["reduce"]

    def test_swallow_compresses_every_round(self):
        cfg = ClusterConfig(num_nodes=8, bandwidth=100 * MB / 8, seed=2)
        sim = ClusterSimulator(cfg, make_scheduler("fvdf"))
        sim.submit_jobs([small_job(scale=1e-2, rounds=3)])
        res = sim.run()
        assert res.traffic_reduction == pytest.approx(0.75, abs=0.08)


class TestHibenchSuites:
    def test_scales_match_table7(self, rng):
        from repro.cluster import SCALE_TRAFFIC, hibench_suite, suite_shuffle_bytes

        for scale, target in SCALE_TRAFFIC.items():
            suite = hibench_suite(scale, rng, num_jobs=10)
            assert suite_shuffle_bytes(suite) == pytest.approx(target, rel=1e-6)

    def test_unknown_scale(self, rng):
        from repro.cluster import hibench_suite

        with pytest.raises(ConfigurationError):
            hibench_suite("ludicrous", rng)

    def test_expected_reduction_near_paper(self, rng):
        """The default mix's full-compression saving brackets the paper's
        48.41% average."""
        from repro.cluster import expected_traffic_reduction, hibench_suite

        suite = hibench_suite("large", rng, num_jobs=12)
        assert expected_traffic_reduction(suite) == pytest.approx(0.484, abs=0.06)

    def test_poisson_arrivals(self, rng):
        from repro.cluster import hibench_suite

        suite = hibench_suite("large", rng, num_jobs=20, arrival_rate=2.0)
        arr = [s.arrival for s in suite]
        assert arr == sorted(arr)
        assert arr[-1] > 0

    def test_iterative_apps_stay_calibrated(self, rng):
        """Marking pagerank iterative must not change the suite's total
        Table VII traffic — per-round volume shrinks instead."""
        from repro.cluster import SCALE_TRAFFIC, hibench_suite, suite_shuffle_bytes

        suite = hibench_suite(
            "large", rng, num_jobs=12, iterative={"pagerank": 3}
        )
        assert suite_shuffle_bytes(suite) == pytest.approx(
            SCALE_TRAFFIC["large"], rel=1e-6
        )
        pr = [s for s in suite if s.app.name == "pagerank"]
        assert pr and all(s.rounds == 3 for s in pr)


class TestRunHibench:
    def test_is_the_hand_built_suite_run(self):
        from repro.cluster import hibench_suite, run_hibench

        cfg = ClusterConfig(num_nodes=8, bandwidth=gbps(1), slice_len=0.01)
        sim = ClusterSimulator(cfg, make_scheduler("fvdf"))
        sim.submit_jobs(hibench_suite("large", np.random.default_rng(5), num_jobs=3))
        by_hand = sim.run()
        res = run_hibench("fvdf", "large", suite_seed=5, num_jobs=3, num_nodes=8)
        assert res.avg_jct == by_hand.avg_jct
        assert res.stage_means() == by_hand.stage_means()
        assert res.shuffle_bytes_sent == by_hand.shuffle_bytes_sent
        assert len(res.job_results) == 3

    def test_cluster_seed_passes_through(self):
        """``seed`` is ``ClusterConfig``'s placement and failure seed; the
        suite draws from ``suite_seed`` alone."""
        from repro.cluster import hibench_suite, run_hibench

        churn = FailureModel(task_failure_prob=0.3, max_retries=10,
                             straggler_prob=0.3, straggler_slowdown=4.0)

        def by_hand(seed):
            cfg = ClusterConfig(num_nodes=8, failures=churn, seed=seed)
            sim = ClusterSimulator(cfg, make_scheduler("sebf"))
            sim.submit_jobs(hibench_suite("large", np.random.default_rng(5), num_jobs=3))
            return sim.run()

        for seed in (1, 2):
            res = run_hibench("sebf", suite_seed=5, num_jobs=3, num_nodes=8,
                              failures=churn, seed=seed)
            assert res.avg_jct == by_hand(seed).avg_jct
        assert by_hand(1).avg_jct != by_hand(2).avg_jct

    def test_config_knobs_are_checked(self):
        from repro.cluster import run_hibench

        with pytest.raises(ConfigurationError, match="bandwidth"):
            run_hibench("sebf", num_jobs=1, bandwidth=float("nan"))
