"""The fresh()/reset() contract: no state leaks between runs.

``run_policy``/``run_many`` accept live Scheduler objects; some
policies carry cross-run state (FVDF's last decision, EDF's
admission/rejection sets).  The harness calls ``fresh()`` before every
run, so back-to-back runs of the *same* instance must be identical to
runs of newly built ones.  FVDF's priority classes and served flags,
which feed the "starved" aging rule, live in the engine's coflow
columns, so they cannot leak from one run into the next at all.
"""

import numpy as np

from repro.analysis import ExperimentSetup, run_many, run_policy
from repro.core.fvdf import FVDFScheduler
from repro.schedulers import DeadlineEDF, make_scheduler
from repro.traces.distributions import ConstantSize
from repro.traces.generator import WorkloadConfig, generate_workload

SETUP = ExperimentSetup(num_ports=4, bandwidth=10.0, slice_len=0.01)


def _workload(seed=7, num_coflows=12):
    cfg = WorkloadConfig(
        num_coflows=num_coflows, num_ports=4, size_dist=ConstantSize(3.0),
        width=(1, 3), arrival_rate=4.0,
    )
    return generate_workload(cfg, np.random.default_rng(seed))


def _fingerprint(result):
    return (
        [f.fct for f in result.flow_results],
        [c.cct for c in result.coflow_results],
        result.makespan,
        result.decision_points,
    )


class TestFreshContract:
    def test_fresh_resets_in_place_and_returns_self(self):
        sched = FVDFScheduler()
        run_policy(sched, _workload(), SETUP)
        assert sched.last is not None
        assert sched.fresh() is sched
        assert sched.last is None

    def test_fresh_clears_edf_admission_state(self):
        sched = DeadlineEDF()
        sched._admitted.add(1)
        sched._rejected.add(2)
        sched.fresh()
        assert not sched._admitted and not sched._rejected

    def test_base_scheduler_fresh_is_noop(self):
        sched = make_scheduler("fifo")
        assert sched.fresh() is sched


class TestBackToBackRuns:
    def test_fvdf_instance_reuse_is_identical(self):
        """The regression this contract exists for: FVDF's served flags
        must not leak into the next run and skew the "starved" aging
        decisions."""
        workload = _workload()
        sched = FVDFScheduler()
        first = run_policy(sched, workload, SETUP)
        # The instance now carries end-of-run state; without fresh() a
        # second run over the same coflow ids could age differently.
        second = run_policy(sched, workload, SETUP)
        pristine = run_policy(FVDFScheduler(), workload, SETUP)
        assert _fingerprint(first) == _fingerprint(second)
        assert _fingerprint(first) == _fingerprint(pristine)

    def test_fvdf_reuse_identical_even_with_poisoned_state(self):
        """An instance that ended a run on the same coflow ids, handed
        to a bare engine that never calls ``fresh()``, still decides as
        a new one: P and the served flags start over with the engine's
        coflow columns."""
        workload = _workload()
        baseline = run_policy(FVDFScheduler(), workload, SETUP)
        sched = FVDFScheduler()
        run_policy(sched, workload, SETUP)
        sim = SETUP.build_simulator(sched)
        sim.submit_many(workload)
        poisoned = sim.run()
        assert sim._decision_points > 0
        assert _fingerprint(baseline) == _fingerprint(poisoned)

    def test_edf_instance_reuse_is_identical(self):
        cfg = WorkloadConfig(
            num_coflows=10, num_ports=4, size_dist=ConstantSize(3.0),
            width=(1, 3), arrival_rate=4.0,
        )
        workload = generate_workload(cfg, np.random.default_rng(1))
        deadlined = [
            type(c)(
                [type(f)(f.src, f.dst, f.size, compressible=f.compressible)
                 for f in c.flows],
                arrival=c.arrival, label=c.label, deadline=2.0,
            )
            for c in workload
        ]
        sched = DeadlineEDF()
        first = run_policy(sched, deadlined, SETUP)
        second = run_policy(sched, deadlined, SETUP)
        assert _fingerprint(first) == _fingerprint(second)

    def test_run_many_with_instances_matches_names(self):
        workload = _workload(seed=11)
        by_instance = run_many([FVDFScheduler(), make_scheduler("sebf")],
                               workload, SETUP)
        by_name = run_many(["fvdf", "sebf"], workload, SETUP)
        for key in by_name:
            assert _fingerprint(by_instance[key]) == _fingerprint(by_name[key])
