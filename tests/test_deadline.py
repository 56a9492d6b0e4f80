"""Deadline-aware EDF scheduling with admission control (extension)."""

import pytest

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import DeadlineEDF, deadline_stats, make_scheduler


def run(coflows, scheduler=None, n_ports=2, bandwidth=1.0):
    sched = scheduler or DeadlineEDF()
    sim = SliceSimulator(BigSwitch(n_ports, bandwidth), sched, slice_len=0.01)
    sim.submit_many(coflows)
    return sim.run(), sched


class TestModel:
    def test_deadline_validation(self):
        with pytest.raises(ConfigurationError):
            Coflow([Flow(0, 0, 1.0)], deadline=0.0)
        with pytest.raises(ConfigurationError):
            Coflow([Flow(0, 0, 1.0)], deadline=-1.0)

    def test_met_deadline_property(self):
        res, _ = run([Coflow([Flow(0, 0, 2.0)], deadline=5.0)])
        cr = res.coflow_results[0]
        assert cr.deadline == 5.0
        assert cr.met_deadline is True

    def test_no_deadline_is_none(self):
        res, _ = run([Coflow([Flow(0, 0, 2.0)])])
        assert res.coflow_results[0].met_deadline is None

    def test_registry(self):
        assert make_scheduler("edf-deadline").name == "edf-deadline"
        assert make_scheduler("edf-noadmission").admission is False


class TestAdmission:
    def test_feasible_deadline_admitted_and_met(self):
        c = Coflow([Flow(0, 0, 2.0)], deadline=4.0, label="ok")
        res, sched = run([c])
        assert sched.was_admitted(c.coflow_id)
        assert res.coflow_results[0].met_deadline is True

    def test_impossible_deadline_rejected(self):
        """4 bytes through a 1 B/s port cannot finish in 1 s."""
        c = Coflow([Flow(0, 0, 4.0)], deadline=1.0)
        res, sched = run([c])
        assert not sched.was_admitted(c.coflow_id)
        assert sched.rejected_count == 1
        # still completes, just best-effort and late.
        assert res.coflow_results[0].met_deadline is False

    def test_admitted_guarantee_survives_later_arrivals(self):
        """An admitted tight coflow keeps its rate when a second deadline
        coflow arrives that would otherwise steal the port."""
        first = Coflow([Flow(0, 0, 4.0)], arrival=0.0, deadline=5.0, label="first")
        second = Coflow([Flow(0, 0, 4.0)], arrival=1.0, deadline=2.0, label="second")
        res, sched = run([first, second])
        by_label = {c.label: c for c in res.coflow_results}
        assert sched.was_admitted(first.coflow_id)
        # second's demands (4 B in 2 s = 2 B/s) cannot fit: rejected.
        assert not sched.was_admitted(second.coflow_id)
        assert by_label["first"].met_deadline is True

    def test_admission_considers_residual_capacity(self):
        """Two coflows that together need exactly the port are both
        admitted and both meet their deadlines."""
        a = Coflow([Flow(0, 0, 2.0)], deadline=4.0, label="a")
        b = Coflow([Flow(1, 1, 2.0)], deadline=4.0, label="b")  # disjoint ports
        res, sched = run([a, b])
        assert sched.was_admitted(a.coflow_id)
        assert sched.was_admitted(b.coflow_id)
        stats = deadline_stats(res.coflow_results)
        assert stats["met_fraction"] == 1.0

    def test_no_admission_mode_misses_deadlines(self):
        """Without admission control, overload makes tight deadlines slip —
        the Varys argument for admission."""
        coflows_a = [
            Coflow([Flow(0, 0, 3.0)], arrival=0.0, deadline=3.2, label="x"),
            Coflow([Flow(0, 0, 3.0)], arrival=0.0, deadline=3.2, label="y"),
        ]
        res, _ = run(coflows_a, scheduler=DeadlineEDF(admission=False))
        stats = deadline_stats(res.coflow_results)
        assert stats["met"] <= 1  # at most one of the two can make it

    def test_admission_protects_the_feasible_one(self):
        coflows = [
            Coflow([Flow(0, 0, 3.0)], arrival=0.0, deadline=3.2, label="x"),
            Coflow([Flow(0, 0, 3.0)], arrival=0.0, deadline=3.2, label="y"),
        ]
        res, sched = run(coflows)
        stats = deadline_stats(res.coflow_results)
        assert stats["met"] == 1
        assert sched.rejected_count == 1


class TestBestEffortCoexistence:
    def test_best_effort_gets_leftovers(self):
        admitted = Coflow([Flow(0, 0, 2.0)], deadline=4.0, label="guaranteed")
        background = Coflow([Flow(0, 0, 2.0)], label="bg")
        res, _ = run([admitted, background])
        by_label = {c.label: c for c in res.coflow_results}
        assert by_label["guaranteed"].met_deadline is True
        # work conservation: port always busy, everything done by ~4 s.
        assert res.makespan == pytest.approx(4.0, abs=0.05)

    def test_work_conserving_when_guarantees_are_loose(self):
        """A loose deadline must not idle the port: backfill finishes the
        coflow far before its deadline."""
        c = Coflow([Flow(0, 0, 2.0)], deadline=100.0)
        res, _ = run([c])
        assert res.coflow_results[0].cct == pytest.approx(2.0, abs=0.05)

    def test_deadline_stats_empty(self):
        assert deadline_stats([])["met_fraction"] == 1.0
