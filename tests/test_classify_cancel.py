"""Coflow classification bins, engine cancellation, speculative execution."""

import numpy as np
import pytest

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import make_scheduler
from repro.traces.classify import (
    BINS,
    ClassifierConfig,
    bin_counts,
    cct_by_bin,
    classify_coflow,
    speedup_by_bin,
)
from repro.units import MB


def cf(length, width, **kw):
    return Coflow([Flow(0, i % 4, length) for i in range(width)], **kw)


class TestClassification:
    def test_four_bins(self):
        cfg = ClassifierConfig(length_threshold=5 * MB, width_threshold=50)
        assert classify_coflow(cf(1 * MB, 2), cfg) == "SN"
        assert classify_coflow(cf(50 * MB, 2), cfg) == "LN"
        assert classify_coflow(cf(1 * MB, 60), cfg) == "SW"
        assert classify_coflow(cf(50 * MB, 60), cfg) == "LW"

    def test_length_is_longest_flow(self):
        c = Coflow([Flow(0, 0, 1 * MB), Flow(0, 1, 100 * MB)])
        assert classify_coflow(c) == "LN"

    def test_bin_counts(self):
        counts = bin_counts([cf(1 * MB, 2), cf(1 * MB, 2), cf(50 * MB, 60)])
        assert counts["SN"] == 2
        assert counts["LW"] == 1
        assert set(counts) == set(BINS)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClassifierConfig(length_threshold=0)

    def test_cct_and_speedup_by_bin(self):
        """Classify real simulation results and compare two policies."""
        def workload():
            return [
                cf(1 * MB, 2, label="mouse", arrival=0.0),
                cf(40 * MB, 3, label="elephant", arrival=0.0),
            ]

        def run(policy):
            sim = SliceSimulator(BigSwitch(4, 10 * MB), make_scheduler(policy),
                                 slice_len=0.01)
            sim.submit_many(workload())
            return sim.run().coflow_results

        sebf, fifo = run("sebf"), run("coflow-fifo")
        by_bin = cct_by_bin(sebf)
        assert "SN" in by_bin and "LN" in by_bin
        sp = speedup_by_bin(fifo, sebf)
        assert all(v > 0 for v in sp.values())

    def test_classify_result_object(self):
        sim = SliceSimulator(BigSwitch(2, 1.0), make_scheduler("sebf"),
                             slice_len=0.01)
        sim.submit(Coflow([Flow(0, 0, 1.0)]))
        res = sim.run()
        assert classify_coflow(res.coflow_results[0]) == "SN"


class TestCancellation:
    def make_sim(self):
        sim = SliceSimulator(BigSwitch(2, 1.0), make_scheduler("sebf"),
                             slice_len=0.01)
        return sim

    def test_cancel_active_coflow_frees_the_port(self):
        sim = self.make_sim()
        hog = Coflow([Flow(0, 0, 100.0)], label="hog")
        later = Coflow([Flow(0, 0, 1.0)], arrival=1.0, label="later")
        sim.submit_many([hog, later])
        sim.run(until=0.5)
        n = sim.cancel_coflow(hog.coflow_id)
        assert n == 1
        res = sim.run()
        labels = {c.label for c in res.coflow_results}
        assert labels == {"later"}  # the hog never completes
        by_label = {c.label: c for c in res.coflow_results}
        assert by_label["later"].cct == pytest.approx(1.0, abs=0.05)
        assert sim.cancelled_coflows == {hog.coflow_id}

    def test_cancel_pending_coflow_never_activates(self):
        sim = self.make_sim()
        future = Coflow([Flow(0, 0, 5.0)], arrival=10.0)
        now = Coflow([Flow(1, 1, 1.0)])
        sim.submit_many([future, now])
        sim.cancel_coflow(future.coflow_id)
        res = sim.run()
        assert len(res.coflow_results) == 1
        assert res.makespan == pytest.approx(1.0)

    def test_finished_flows_keep_results(self):
        sim = self.make_sim()
        c = Coflow([Flow(0, 0, 1.0), Flow(1, 1, 50.0)], label="mixed")
        sim.submit(c)
        sim.run(until=2.0)  # first flow done, second still going
        sim.cancel_coflow(c.coflow_id)
        res = sim.run()
        assert res.coflow_results == []  # coflow itself never completes
        assert len(res.flow_results) == 1  # but the finished flow is kept
        assert res.flow_results[0].size == 1.0

    def test_cancel_stamps_cancellation_time(self):
        """Regression: cancelled flows used to keep ``_finish == 0.0`` (and
        pending ones a stale ``_start``), indistinguishable from flows that
        finished at t=0.  Cancellation must stamp the abort instant and
        emit a ``cancel`` trace record."""
        from repro.obs import Observability

        obs = Observability()
        sim = SliceSimulator(BigSwitch(2, 1.0), make_scheduler("sebf"),
                             slice_len=0.01, obs=obs)
        active = Coflow([Flow(0, 0, 100.0)], label="active")
        pending = Coflow([Flow(1, 1, 1.0)], arrival=5.0, label="pending")
        sim.submit_many([active, pending])
        sim.run(until=0.5)
        sim.cancel_coflow(active.coflow_id)
        sim.cancel_coflow(pending.coflow_id)
        g_active = int(sim._cf_first[sim._coflows[active.coflow_id]])
        g_pending = int(sim._cf_first[sim._coflows[pending.coflow_id]])
        assert sim._finish[g_active] == pytest.approx(0.5)
        assert sim._finish_phys[g_active] == pytest.approx(0.5)
        # the never-started flow gets start == finish == cancellation time
        assert sim._start[g_pending] == pytest.approx(0.5)
        assert sim._finish[g_pending] == pytest.approx(0.5)
        recs = [r for r in obs.recorder if r.kind == "cancel"]
        assert [(r.data["coflow_id"], r.data["n_flows"]) for r in recs] == [
            (active.coflow_id, 1),
            (pending.coflow_id, 1),
        ]
        assert all(r.t == pytest.approx(0.5) for r in recs)
        assert obs.metrics.value("engine.cancellations") == 2

    def test_cancel_unknown_or_complete(self):
        sim = self.make_sim()
        c = Coflow([Flow(0, 0, 1.0)])
        sim.submit(c)
        with pytest.raises(ConfigurationError, match="unknown"):
            sim.cancel_coflow(999_999)
        sim.run()
        with pytest.raises(ConfigurationError, match="already completed"):
            sim.cancel_coflow(c.coflow_id)

    def test_cancel_from_completion_callback(self):
        """A job-abort pattern: when coflow A finishes, kill coflow B."""
        sim = self.make_sim()
        a = Coflow([Flow(1, 1, 1.0)], label="a")
        b = Coflow([Flow(0, 0, 50.0)], label="b")
        sim.submit_many([a, b])

        def on_done(cr):
            if cr.label == "a":
                sim.cancel_coflow(b.coflow_id)

        sim.on_coflow_complete(on_done)
        res = sim.run()
        assert {c.label for c in res.coflow_results} == {"a"}
        assert res.makespan < 5.0


class TestSpeculation:
    def test_speculation_caps_straggler_tail(self):
        from repro.cluster.failures import FailureModel

        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        plain = FailureModel(straggler_prob=1.0, straggler_slowdown=10.0)
        spec = FailureModel(straggler_prob=1.0, straggler_slowdown=10.0,
                            speculative=True)
        d_plain, _, _ = plain.stage_time(1.0, 4, rng1)
        d_spec, _, _ = spec.stage_time(1.0, 4, rng2)
        assert d_plain == pytest.approx(10.0)
        assert d_spec == pytest.approx(2.0)

    def test_speculation_noop_without_stragglers(self, rng):
        from repro.cluster.failures import FailureModel

        fm = FailureModel(speculative=True)
        d, _, _ = fm.stage_time(3.0, 2, rng)
        assert d == pytest.approx(3.0)
