"""Parallel execution is an optimisation, never a semantic change.

The contract of :mod:`repro.runner` (and of ``run_many(parallel=...)``)
is that the process pool reproduces the sequential path *exactly* — the
same metrics to the last bit, at any worker count — and that a cache hit
returns the same summary the cold run produced.  These tests pin that on
a fig6e-shaped grid (the 7 coflow policies × 3 bandwidths of the
Fig. 6(e) sweep, over a smaller trace so the suite stays fast).
"""

import numpy as np
import pytest

from repro.analysis import ExperimentSetup, run_many
from repro.runner import ResultCache, RunSpec, WorkloadSpec, run_specs
from repro.traces.distributions import LogNormalSizes
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import KB, MB, gbps, mbps

POLICIES = ["sebf", "scf", "ncf", "lcf", "pff", "pfp", "fvdf"]
BANDWIDTHS = [("100mbps", mbps(100)), ("1gbps", gbps(1)), ("10gbps", gbps(10))]
WORKER_COUNTS = [1, 2, 4]


def _trace(seed=14, num_coflows=16):
    """A scaled-down fig6e-shaped coflow trace (log-normal sizes)."""
    cfg = WorkloadConfig(
        num_coflows=num_coflows, num_ports=16,
        size_dist=LogNormalSizes(median=2 * MB, sigma=1.3, lo=64 * KB, hi=32 * MB),
        width=(1, 8), arrival_rate=2.0,
    )
    return generate_workload(cfg, np.random.default_rng(seed))


def _grid_specs(coflows, full=False):
    workload = WorkloadSpec.inline(coflows)
    return [
        RunSpec(
            policy=p, workload=workload, key=f"{label}/{p}", full=full,
            setup=ExperimentSetup(num_ports=16, bandwidth=bw, slice_len=0.01),
        )
        for label, bw in BANDWIDTHS
        for p in POLICIES
    ]


def _result_bits(result):
    """Every observable of a full SimulationResult, exactly."""
    return (
        [(f.flow_id, f.fct, f.bytes_sent, f.finish) for f in result.flow_results],
        [(c.coflow_id, c.cct, c.finish) for c in result.coflow_results],
        result.makespan,
        result.decision_points,
        result.total_bytes_sent,
        result.total_bytes_original,
    )


class TestRunManyParallel:
    """run_many(parallel=N) == run_many() for N in {1, 2, 4}."""

    @pytest.fixture(scope="class")
    def coflows(self):
        return _trace()

    @pytest.fixture(scope="class")
    def sequential(self, coflows):
        return {
            label: run_many(
                POLICIES, coflows,
                ExperimentSetup(num_ports=16, bandwidth=bw, slice_len=0.01),
            )
            for label, bw in BANDWIDTHS
        }

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_sequential(self, coflows, sequential, workers):
        for label, bw in BANDWIDTHS:
            setup = ExperimentSetup(num_ports=16, bandwidth=bw, slice_len=0.01)
            pooled = run_many(
                POLICIES, coflows, setup, parallel=workers, cache=False
            )
            assert pooled.keys() == sequential[label].keys()
            for name in pooled:
                assert _result_bits(pooled[name]) == _result_bits(
                    sequential[label][name]
                ), (label, name, workers)


class TestRunSpecsParallel:
    """The raw spec fan-out is bit-identical at every worker count."""

    @pytest.fixture(scope="class")
    def coflows(self):
        return _trace(seed=15)

    @pytest.fixture(scope="class")
    def sequential(self, coflows):
        outs = run_specs(_grid_specs(coflows), workers=0, cache=False)
        return {o.key: o.summary for o in outs}

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_summaries_bit_identical(self, coflows, sequential, workers):
        outs = run_specs(_grid_specs(coflows), workers=workers, cache=False)
        assert [o.key for o in outs] == list(sequential)  # spec order kept
        for out in outs:
            # ResultSummary.__eq__ is exact: float equality, array equality.
            assert out.summary == sequential[out.key], (out.key, workers)

    def test_per_flow_arrays_bit_identical(self, coflows, sequential):
        specs = [
            RunSpec(
                policy="fvdf", workload=WorkloadSpec.inline(coflows),
                key=f"arr/{i}", arrays=True,
                setup=ExperimentSetup(
                    num_ports=16, bandwidth=mbps(100), slice_len=0.01
                ),
            )
            for i in range(4)
        ]
        seq = run_specs(specs, workers=0, cache=False)
        par = run_specs(specs, workers=2, cache=False)
        for s, p in zip(seq, par):
            assert np.array_equal(s.summary.fct, p.summary.fct)
            assert np.array_equal(s.summary.cct, p.summary.cct)
            assert s.summary == p.summary


class TestCacheHitsMatchColdRuns:
    def test_warm_summaries_equal_cold(self, tmp_path):
        coflows = _trace(seed=16, num_coflows=10)
        specs = _grid_specs(coflows)
        cache = ResultCache(root=tmp_path, enabled=True)
        cold = run_specs(specs, workers=2, cache=cache)
        assert cache.misses == len(specs) and cache.hits == 0
        warm = run_specs(specs, workers=2, cache=cache)
        assert cache.hits == len(specs)
        for c, w in zip(cold, warm):
            assert not c.cached and w.cached
            assert c.key == w.key
            assert c.summary == w.summary

    def test_warm_full_results_equal_cold(self, tmp_path):
        coflows = _trace(seed=17, num_coflows=8)
        specs = _grid_specs(coflows, full=True)[:4]
        cache = ResultCache(root=tmp_path, enabled=True)
        cold = run_specs(specs, workers=0, cache=cache)
        warm = run_specs(specs, workers=0, cache=cache)
        for c, w in zip(cold, warm):
            assert _result_bits(c.result) == _result_bits(w.result)

    def test_run_many_cache_roundtrip_matches_sequential(self, tmp_path):
        coflows = _trace(seed=18, num_coflows=8)
        setup = ExperimentSetup(num_ports=16, bandwidth=mbps(100), slice_len=0.01)
        baseline = run_many(POLICIES, coflows, setup)
        # Inline (0) and pooled (2) runs both cache; each gets its own store.
        for parallel in (0, 2):
            store = tmp_path / str(parallel)
            cold = run_many(POLICIES, coflows, setup, parallel=parallel, cache=store)
            warm = run_many(POLICIES, coflows, setup, parallel=parallel, cache=store)
            assert list(cold) == list(warm) == list(baseline)
            for name in baseline:
                assert _result_bits(cold[name]) == _result_bits(baseline[name])
                assert _result_bits(warm[name]) == _result_bits(baseline[name])
