"""Unit tests for the content-addressed result cache and its digests."""

import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import ExperimentSetup, run_policy
from repro.core.fvdf import FVDFScheduler
from repro.runner import (
    ResultCache,
    ResultSummary,
    RunSpec,
    WorkloadSpec,
    cache_enabled_by_env,
    execute_spec,
    run_specs,
)
from repro.traces.distributions import ConstantSize
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import mbps

SETUP = ExperimentSetup(num_ports=4, bandwidth=mbps(100), slice_len=0.01)


def _config(num_coflows=6):
    return WorkloadConfig(
        num_coflows=num_coflows, num_ports=4, size_dist=ConstantSize(1e6),
        width=(1, 3), arrival_rate=4.0,
    )


def _coflows(seed=3):
    return generate_workload(_config(), np.random.default_rng(seed))


def _spec(**kw):
    kw.setdefault("policy", "fvdf")
    kw.setdefault("workload", WorkloadSpec.generated(_config(), seed=3))
    kw.setdefault("setup", SETUP)
    return RunSpec(**kw)


class TestDigest:
    def test_stable_across_equal_specs(self):
        assert _spec().digest() == _spec().digest()
        assert _spec().digest() is not None

    def test_inline_digest_ignores_global_id_counters(self):
        """flow_id/coflow_id come from process-global counters; two
        identically generated traces digest the same even though their
        ids differ."""
        a = WorkloadSpec.inline(_coflows())
        b = WorkloadSpec.inline(_coflows())
        ids = lambda cs: [c.coflow_id for c in cs]  # noqa: E731
        assert ids(a.build()) != ids(b.build())
        assert _spec(workload=a).digest() == _spec(workload=b).digest()

    @pytest.mark.parametrize("change", ["policy", "params", "workload", "setup"])
    def test_any_content_change_changes_digest(self, change):
        base = _spec()
        changed = {
            "policy": lambda: _spec(policy="sebf"),
            "params": lambda: _spec(params={"starvation_window": 5}),
            "workload": lambda: _spec(
                workload=WorkloadSpec.generated(_config(), seed=4)
            ),
            "setup": lambda: _spec(
                setup=ExperimentSetup(num_ports=4, bandwidth=mbps(200),
                                      slice_len=0.01)
            ),
        }[change]()
        assert base.digest() != changed.digest()

    def test_full_and_arrays_change_digest(self):
        # A summary, a summary-with-arrays and a full result are three
        # different payloads; they must not collide in the store.
        digests = {
            _spec().digest(),
            _spec(arrays=True).digest(),
            _spec(full=True).digest(),
        }
        assert len(digests) == 3

    def test_source_edit_changes_digest(self, tmp_path):
        """The key hashes the package sources: a copy of the package gives
        the same key as this one, and the copy with one engine file
        edited (version unchanged) gives another."""
        package = tmp_path / "src" / "repro"
        shutil.copytree(Path(repro.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        blob = pickle.dumps(_spec())
        script = ("import pickle, sys, repro; print(repro.__file__); "
                  "print(pickle.loads(sys.stdin.buffer.read()).digest())")

        def digest_in_copy():
            env = dict(os.environ, PYTHONPATH=str(package.parent))
            out = subprocess.run([sys.executable, "-c", script], input=blob,
                                 env=env, capture_output=True, check=True)
            where, digest = out.stdout.decode().splitlines()
            assert Path(where).is_relative_to(package)
            return digest

        assert digest_in_copy() == _spec().digest()
        with open(package / "core" / "simulator.py", "a") as fh:
            fh.write("# edited\n")
        assert digest_in_copy() != _spec().digest()

    def test_live_scheduler_is_uncacheable(self):
        assert _spec(policy=FVDFScheduler()).digest() is None

    def test_callable_workload_needs_tag(self):
        def factory(rng):
            return generate_workload(_config(), rng)

        untagged = _spec(workload=WorkloadSpec.from_callable(factory, seed=3))
        tagged = _spec(
            workload=WorkloadSpec.from_callable(factory, seed=3, tag="const6")
        )
        assert untagged.digest() is None
        assert tagged.digest() is not None

    def test_background_setup_is_uncacheable(self):
        setup = ExperimentSetup(
            num_ports=4, bandwidth=mbps(100), slice_len=0.01,
            background=lambda t: 0.1,
        )
        assert _spec(setup=setup).digest() is None


class TestEnvControls:
    def test_repro_cache_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled_by_env()
        assert not ResultCache().enabled
        # resolve(True) still honours the kill switch.
        assert not ResultCache.resolve(True).enabled

    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled_by_env()

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert ResultCache().root == tmp_path / "store"

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultCache(root=tmp_path / "store", enabled=False)
        spec = _spec()
        assert cache.get(spec) is None
        assert not cache.put(spec, execute_spec(spec).summary)
        assert not (tmp_path / "store").exists()


class TestRoundtrip:
    def test_summary_store_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec()
        summary = execute_spec(spec).summary
        assert cache.put(spec, summary)
        assert cache.get(spec) == summary

    def test_full_result_store_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec(full=True)
        result = run_policy("fvdf", spec.workload.build(), SETUP)
        assert cache.put(spec, result)
        cached = cache.get(spec)
        assert [f.fct for f in cached.flow_results] == [
            f.fct for f in result.flow_results
        ]
        assert cached.makespan == result.makespan

    def test_uncacheable_spec_still_runs(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec(policy=FVDFScheduler(), key="live")
        [out] = run_specs([spec], workers=0, cache=cache)
        assert out.summary.avg_cct > 0
        assert not cache.put(spec, out.summary)
        assert list(tmp_path.iterdir()) == []  # nothing was stored

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        """Every payload shape (summary, summary with arrays, full result)
        is one ``<digest>.pkl``.  An empty file, a truncated pickle or a
        pickle of the other payload kind reads as a miss, is removed and
        counts as corrupt.  Loops rather than parametrizes, to keep this
        test's id."""
        cache = ResultCache(root=tmp_path, enabled=True)
        specs = [_spec(), _spec(arrays=True), _spec(full=True)]
        payloads = [execute_spec(spec).payload for spec in specs]
        for spec, payload in zip(specs, payloads):
            assert cache.put(spec, payload)
            path = cache._path(spec.digest())
            files = [p for p in tmp_path.rglob("*") if p.is_file()]
            assert files == [path]  # no .json / .npz beside it
            entry = path.read_bytes()
            wrong = payloads[0] if spec.full else payloads[2]
            for bad in (b"", entry[: len(entry) // 2], pickle.dumps(wrong)):
                corrupt = cache.corrupt
                path.write_bytes(bad)
                assert cache.get(spec) is None
                assert not path.exists()  # corrupt file dropped
                assert cache.corrupt == corrupt + 1
            # A subsequent put/get works again.
            assert cache.put(spec, payload)
            again = cache.get(spec)
            if spec.full:
                assert again.makespan == payload.makespan
            else:
                assert again == payload
            path.unlink()

    @pytest.mark.parametrize("full", [False, True], ids=["summary", "full"])
    def test_warm_keys_equal_cold_keys(self, tmp_path, full):
        """A hit is keyed as the run it replays: by the scheduler's name,
        not by the spelling of the policy."""
        cache = ResultCache(root=tmp_path, enabled=True)
        specs = [_spec(policy=p, full=full) for p in ("sebf-madd", "FVDF")]
        cold = run_specs(specs, workers=0, cache=cache)
        warm = run_specs(specs, workers=0, cache=cache)
        assert [out.cached for out in warm] == [True, True]
        assert [out.key for out in warm] == [out.key for out in cold]
        assert [out.key for out in cold] == ["sebf", "fvdf"]

    def test_summary_is_columnar_no_dataclass_roundtrip(self):
        """ResultSummary.from_result reads the result's cached columns directly —
        the lazy sequences stay unmaterialized and the arrays are the
        very objects SimulationResult caches."""
        result = run_policy("fvdf", _coflows(), SETUP)
        summary = ResultSummary.from_result("fvdf", result, arrays=True)
        assert summary.fct is result.fct_array
        assert summary.flow_size is result.size_array
        assert summary.cct is result.cct_array
        assert summary.coflow_finish is result.finish_array
        # ... and they match the dataclass path bit for bit.
        assert np.array_equal(
            summary.fct, [f.fct for f in result.flow_results]
        )
        assert np.array_equal(
            summary.cct, [c.cct for c in result.coflow_results]
        )
        assert summary.num_flows == len(result.flow_results)
        assert summary.num_coflows == len(result.coflow_results)

    def test_warm_cache_summary_identical(self, tmp_path):
        """A warm-cache hit returns a summary equal (bit-exact arrays
        included) to the one computed live from the columnar result."""
        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec(arrays=True)
        [cold] = run_specs([spec], workers=0, cache=cache)
        [warm] = run_specs([spec], workers=0, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert warm.summary == cold.summary
        live = ResultSummary.from_result(
            "fvdf", run_policy("fvdf", spec.workload.build(), SETUP),
            arrays=True,
        )
        assert warm.summary == live

    def test_hit_miss_counters(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        specs = [_spec(), _spec(policy="sebf")]
        run_specs(specs, workers=0, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        run_specs(specs, workers=0, cache=cache)
        assert (cache.hits, cache.misses) == (2, 2)
        assert cache.stats()["hits"] == 2

    def test_corrupt_counter_and_metrics(self, tmp_path):
        """A corrupt entry increments the dedicated counter and all three
        stats flow into an obs metrics registry via record_metrics."""
        from repro.obs.metrics import MetricsRegistry

        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec()
        cache.put(spec, execute_spec(spec).summary)
        cache._path(spec.digest()).write_text("{not json")
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert cache.stats()["corrupt"] == 1
        metrics = MetricsRegistry(enabled=True)
        cache.record_metrics(metrics)
        dump = metrics.dump()
        assert dump["cache.misses"]["value"] == 1
        assert dump["cache.corrupt_dropped"]["value"] == 1
        assert dump["cache.hits"]["value"] == 0


class TestConcurrentWrites:
    """put() must be atomic under thread-level concurrency: the old
    pid-suffixed temp name collided when threads in one process raced on
    the same digest, interleaving writes into a single temp file."""

    def test_racing_threads_same_spec_publish_valid_entry(self, tmp_path):
        import threading

        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec()
        summary = execute_spec(spec).summary
        start = threading.Barrier(8)
        results = []

        def writer():
            start.wait()
            for _ in range(25):
                results.append(cache.put(spec, summary))

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results) and len(results) == 200
        # The published entry is always complete and parseable.
        assert cache.get(spec) == summary
        # No orphaned temp files survive the race.
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_racing_threads_full_pickle(self, tmp_path):
        import threading

        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec(full=True)
        result = run_policy("fvdf", spec.workload.build(), SETUP)
        start = threading.Barrier(4)

        def writer():
            start.wait()
            for _ in range(10):
                assert cache.put(spec, result)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cached = cache.get(spec)
        assert cached.makespan == result.makespan
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_temp_files_stay_in_cache_shard_dir(self, tmp_path, monkeypatch):
        """Temp names must land next to the destination (same filesystem,
        atomic os.replace) — never in the global tempdir."""
        cache = ResultCache(root=tmp_path, enabled=True)
        spec = _spec()
        summary = execute_spec(spec).summary
        seen = []
        import tempfile as _tempfile

        real = _tempfile.mkstemp

        def spy(*a, **kw):
            seen.append(kw.get("dir"))
            return real(*a, **kw)

        monkeypatch.setattr("repro.atomicio.tempfile.mkstemp", spy)
        assert cache.put(spec, summary)
        digest = spec.digest()
        assert seen == [tmp_path / digest[:2]]
