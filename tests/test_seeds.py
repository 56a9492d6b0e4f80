"""Multi-seed experiment statistics."""

import numpy as np
import pytest

from repro.analysis import ExperimentSetup, SeedStats, run_seeds
from repro.errors import ConfigurationError
from repro.traces.distributions import ConstantSize
from repro.traces.generator import WorkloadConfig, generate_workload


def factory(seed):
    cfg = WorkloadConfig(
        num_coflows=8, num_ports=4, size_dist=ConstantSize(2.0), width=2,
        arrival_rate=2.0,
    )
    return generate_workload(cfg, np.random.default_rng(seed))


SETUP = ExperimentSetup(num_ports=4, bandwidth=1.0, slice_len=0.01)


class TestRunSeeds:
    def test_collects_per_policy_samples(self):
        stats = run_seeds(["fifo", "sebf"], factory, SETUP, seeds=range(3))
        assert set(stats.samples) == {"fifo", "sebf"}
        assert len(stats.samples["fifo"]) == 3
        assert stats.metric == "avg_cct"

    def test_mean_and_std(self):
        stats = SeedStats("m", {"a": np.array([1.0, 3.0])})
        assert stats.mean("a") == 2.0
        assert stats.std("a") == pytest.approx(np.std([1, 3], ddof=1))

    def test_std_single_sample_is_zero(self):
        stats = SeedStats("m", {"a": np.array([5.0])})
        assert stats.std("a") == 0.0

    def test_speedup_and_win_rate(self):
        stats = SeedStats(
            "m", {"base": np.array([2.0, 4.0]), "ours": np.array([1.0, 2.0])}
        )
        assert stats.speedup_mean("base", "ours") == pytest.approx(2.0)
        assert stats.win_rate("ours", "base") == 1.0
        assert stats.win_rate("base", "ours") == 0.0

    def test_sebf_beats_fifo_across_seeds(self):
        stats = run_seeds(["fifo", "sebf"], factory, SETUP, seeds=range(4))
        assert stats.win_rate("sebf", "fifo") >= 0.75

    def test_lambda_factory_runs_inline(self, monkeypatch):
        # The inline path never pickles the factory, so a lambda works.
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        lam = run_seeds(["fifo", "sebf"], lambda s: factory(s), SETUP,
                        seeds=range(2))
        ref = run_seeds(["fifo", "sebf"], factory, SETUP, seeds=range(2))
        for name in ref.samples:
            assert lam.samples[name].tolist() == ref.samples[name].tolist()

    def test_requires_seeds(self):
        with pytest.raises(ConfigurationError):
            run_seeds(["fifo"], factory, SETUP, seeds=[])

    @pytest.mark.parametrize(
        "pair", [("sebf", "sebf-madd"), ("edf-deadline", "edf-noadmission")]
    )
    def test_rejects_policies_sharing_a_name(self, pair):
        with pytest.raises(ConfigurationError, match=rf"{pair[0]}.*{pair[1]}"):
            run_seeds(list(pair), factory, SETUP, seeds=range(2))

    def test_summary_rows_sorted(self):
        stats = SeedStats("m", {"b": np.array([1.0]), "a": np.array([2.0])})
        rows = stats.summary_rows()
        assert [r[0] for r in rows] == ["a", "b"]


class TestRunSeedsParallel:
    """The (seed × policy) grid through the process pool.

    ``factory`` above is module-level, so it pickles into the workers and
    is re-invoked there per seed (the workload itself never crosses the
    process boundary).
    """

    def test_pool_samples_equal_sequential(self):
        seq = run_seeds(["fifo", "sebf", "fvdf"], factory, SETUP,
                        seeds=range(3))
        par = run_seeds(["fifo", "sebf", "fvdf"], factory, SETUP,
                        seeds=range(3), parallel=2, cache=False)
        assert set(par.samples) == set(seq.samples)
        for name in seq.samples:
            # Exact equality: in-worker regeneration must be bit-identical.
            assert par.samples[name].tolist() == seq.samples[name].tolist()

    def test_pool_stats_match_sequential(self):
        seq = run_seeds(["sebf", "fvdf"], factory, SETUP, seeds=range(4))
        par = run_seeds(["sebf", "fvdf"], factory, SETUP, seeds=range(4),
                        parallel=2, cache=False)
        assert par.mean("fvdf") == seq.mean("fvdf")
        assert par.std("fvdf") == seq.std("fvdf")
        assert par.win_rate("fvdf", "sebf") == seq.win_rate("fvdf", "sebf")
        assert par.speedup_mean("sebf", "fvdf") == seq.speedup_mean(
            "sebf", "fvdf"
        )

    def test_pool_non_summary_metric_falls_back_to_full_results(self):
        # max_cct is not in SUMMARY_METRICS, so the pool ships full
        # SimulationResults back instead of compact summaries.
        seq = run_seeds(["fifo", "sebf"], factory, SETUP, seeds=range(2),
                        metric="max_cct")
        par = run_seeds(["fifo", "sebf"], factory, SETUP, seeds=range(2),
                        metric="max_cct", parallel=2, cache=False)
        for name in seq.samples:
            assert par.samples[name].tolist() == seq.samples[name].tolist()

    def test_pool_with_tagged_factory_caches(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(root=tmp_path, enabled=True)
        kw = dict(seeds=range(2), parallel=2, cache=cache,
                  workload_tag="seeds-const8")
        cold = run_seeds(["fifo", "sebf"], factory, SETUP, **kw)
        assert cache.misses == 4 and cache.hits == 0
        warm = run_seeds(["fifo", "sebf"], factory, SETUP, **kw)
        assert cache.hits == 4
        for name in cold.samples:
            assert warm.samples[name].tolist() == cold.samples[name].tolist()

    def test_untagged_factory_runs_uncached(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(root=tmp_path, enabled=True)
        stats = run_seeds(["fifo"], factory, SETUP, seeds=range(2),
                          parallel=2, cache=cache)
        assert len(stats.samples["fifo"]) == 2
        assert cache.hits == 0 and cache.misses == 0  # digest() is None
        assert list(tmp_path.iterdir()) == []
