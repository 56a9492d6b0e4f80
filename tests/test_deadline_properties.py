"""Property-based guarantee: admission control never breaks its promise."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import DeadlineEDF

N_PORTS = 3
SLICE = 0.05


@st.composite
def deadline_workloads(draw):
    """Random mixes of deadline and best-effort coflows, some infeasible."""
    coflows = []
    t = 0.0
    for _ in range(draw(st.integers(1, 6))):
        flows = [
            Flow(draw(st.integers(0, N_PORTS - 1)),
                 draw(st.integers(0, N_PORTS - 1)),
                 draw(st.floats(0.2, 8.0)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        deadline = draw(
            st.one_of(st.none(), st.floats(0.5, 20.0))
        )
        coflows.append(Coflow(flows, arrival=t, deadline=deadline))
        t += draw(st.floats(0.0, 2.0))
    return coflows


@given(deadline_workloads())
@settings(max_examples=100, deadline=None)
def test_every_admitted_coflow_meets_its_deadline(coflows):
    sched = DeadlineEDF()
    sim = SliceSimulator(BigSwitch(N_PORTS, 1.0), sched, slice_len=SLICE)
    sim.submit_many(coflows)
    res = sim.run()
    assert len(res.coflow_results) == len(coflows)
    for cr in res.coflow_results:
        if cr.deadline is not None and sched.was_admitted(cr.coflow_id):
            assert cr.met_deadline, (
                f"admitted coflow {cr.coflow_id} missed: cct={cr.cct} "
                f"deadline={cr.deadline}"
            )


@given(deadline_workloads())
@settings(max_examples=50, deadline=None)
def test_admission_completes_everything_and_respects_bounds(coflows):
    """Admission control is not starvation: every coflow (admitted,
    rejected, best-effort) completes; all bytes cross the fabric; and the
    makespan never beats the port-workload lower bound.  (Makespans may
    legitimately differ from no-admission EDF on multi-port fabrics —
    priority orders route spare capacity differently.)"""
    from repro.core.bounds import makespan_lower_bound

    def run(admission):
        sim = SliceSimulator(
            BigSwitch(N_PORTS, 1.0), DeadlineEDF(admission=admission),
            slice_len=SLICE,
        )
        sim.submit_many(coflows)
        return sim.run()

    with_adm = run(True)
    without = run(False)
    assert len(with_adm.coflow_results) == len(coflows)
    assert len(without.coflow_results) == len(coflows)
    assert with_adm.total_bytes_sent == pytest.approx(without.total_bytes_sent)
    bound = makespan_lower_bound(coflows, BigSwitch(N_PORTS, 1.0))
    assert with_adm.makespan * (1 + 1e-9) + SLICE >= bound
