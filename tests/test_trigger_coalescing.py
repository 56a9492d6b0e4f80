"""Trigger-kind coalescing at tied event boundaries.

FVDF's starvation-freedom guarantee needs the Upgrade step to fire at every
arrival/completion (Pseudocode 3), so the engine must not lose trigger
kinds when several events land on the same slice boundary.  The regression
tests here fail on the pre-fix ``_horizon_slices`` (which kept only the
first kind on ties); the hypothesis property checks the delivered trigger
kinds against the events that actually occurred, for arbitrary workloads.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.analysis import decision_timeline
from repro.core.coflow import Coflow
from repro.core.events import EventKind, ScheduleTrigger, kinds_of
from repro.core.flow import Flow
from repro.core.scheduler import Allocation
from repro.core.simulator import SliceSimulator
from repro.fabric.bigswitch import BigSwitch
from repro.obs import Observability
from repro.schedulers import make_scheduler


def _sim(num_ports=2, bandwidth=1.0, policy="fifo", obs=None, compression=None):
    return SliceSimulator(
        BigSwitch(num_ports, bandwidth),
        make_scheduler(policy),
        slice_len=0.01,
        compression=compression,
        obs=obs,
    )


def _horizon(sim, view, alloc):
    """``_horizon_slices`` with no ``run(until=...)`` horizon, its kinds
    mask read back as a set."""
    n, mask = sim._horizon_slices(view, sim._window(view, alloc), None)
    return n, kinds_of(mask)


class TestHorizonSlicesCoalescing:
    """Unit-level regression: the pre-fix code returned only the first kind."""

    def test_tied_arrival_and_completion_yield_both_kinds(self):
        sim = _sim()
        # c1's single flow drains at rate 1.0 -> completes at t=1.0,
        # exactly when c2 arrives.
        sim.submit(Coflow([Flow(src=0, dst=1, size=1.0, flow_id=0)], arrival=0.0))
        sim.submit(Coflow([Flow(src=1, dst=0, size=1.0, flow_id=1)], arrival=1.0))
        sim._activate_due()
        view = sim._build_view(ScheduleTrigger({EventKind.START}))
        n, kinds = _horizon(sim, view, Allocation(rates=np.array([1.0])))
        assert n == 100
        assert kinds == {EventKind.ARRIVAL, EventKind.COMPLETION}

    def test_tied_raw_exhaustion_is_not_dropped(self):
        engine = CompressionEngine(
            codec=Codec(name="t", speed=1.0, decompression_speed=4.0, ratio=0.5),
            size_dependent=False,
        )
        sim = _sim(policy="fvdf", compression=engine)
        # Compressing at R=1.0 exhausts raw at t=1.0; c2 also arrives then.
        sim.submit(
            Coflow([Flow(src=0, dst=1, size=1.0, flow_id=0, compressible=True)],
                   arrival=0.0)
        )
        sim.submit(Coflow([Flow(src=1, dst=0, size=1.0, flow_id=1)], arrival=1.0))
        sim._activate_due()
        view = sim._build_view(ScheduleTrigger({EventKind.START}))
        alloc = Allocation(
            rates=np.array([0.0]), compress=np.array([True])
        )
        _, kinds = _horizon(sim, view, alloc)
        assert EventKind.RAW_EXHAUSTED in kinds
        assert EventKind.ARRIVAL in kinds

    def test_events_within_the_jump_window_are_coalesced(self):
        sim = _sim()
        # Arrival lands mid-slice at t=0.005; the completion at the first
        # boundary (t=0.01) takes effect at the same decision point, so
        # both kinds must be reported.
        sim.submit(Coflow([Flow(src=0, dst=1, size=0.01, flow_id=0)], arrival=0.0))
        sim.submit(Coflow([Flow(src=1, dst=0, size=1.0, flow_id=1)], arrival=0.005))
        sim._activate_due()
        view = sim._build_view(ScheduleTrigger({EventKind.START}))
        n, kinds = _horizon(sim, view, Allocation(rates=np.array([1.0])))
        assert n == 1
        assert kinds == {EventKind.ARRIVAL, EventKind.COMPLETION}

    def test_distant_events_are_not_coalesced(self):
        sim = _sim()
        sim.submit(Coflow([Flow(src=0, dst=1, size=1.0, flow_id=0)], arrival=0.0))
        sim.submit(Coflow([Flow(src=1, dst=0, size=1.0, flow_id=1)], arrival=5.0))
        sim._activate_due()
        view = sim._build_view(ScheduleTrigger({EventKind.START}))
        n, kinds = _horizon(sim, view, Allocation(rates=np.array([1.0])))
        assert n == 100
        assert kinds == {EventKind.COMPLETION}


class TestTiedBoundaryEndToEnd:
    def test_tracer_shows_both_kinds_delivered(self):
        """The acceptance-criterion replay: a tied arrival+completion
        boundary must reach the scheduler as {ARRIVAL, COMPLETION}."""
        obs = Observability()
        sim = _sim(obs=obs)
        sim.submit(Coflow([Flow(src=0, dst=1, size=1.0, flow_id=0)], arrival=0.0))
        sim.submit(Coflow([Flow(src=1, dst=0, size=1.0, flow_id=1)], arrival=1.0))
        sim.run()
        # the fast-forward jump from t=0 must report both event kinds …
        jump = next(r for r in obs.recorder if r.kind == "jump")
        assert set(jump.data["kinds"]) == {EventKind.ARRIVAL, EventKind.COMPLETION}
        # … and the decision at t=1.0 must deliver both to the scheduler.
        [decision] = [
            r for r in decision_timeline(obs.recorder) if abs(r.t - 1.0) < 1e-9
        ]
        assert {EventKind.ARRIVAL, EventKind.COMPLETION} <= set(decision.data["kinds"])

    def test_fvdf_ages_priority_class_at_tied_boundary(self):
        """The starvation-freedom consequence: a coflow waiting through a
        tied arrival+completion boundary must receive its upgrade."""
        obs = Observability()
        sim = SliceSimulator(
            BigSwitch(2, 1.0), make_scheduler("fvdf-nocompress"),
            slice_len=0.01, obs=obs,
        )
        # Two same-port coflows: the later one waits (zero service) while
        # the first drains; a third coflow arrives exactly at the first's
        # completion instant.
        sim.submit(Coflow([Flow(src=0, dst=1, size=1.0, flow_id=0)], arrival=0.0))
        sim.submit(Coflow([Flow(src=0, dst=1, size=1.0, flow_id=1)], arrival=0.5))
        sim.submit(Coflow([Flow(src=1, dst=0, size=1.0, flow_id=2)], arrival=1.0))
        sim.run()
        assert obs.metrics.value("fvdf.upgrades") >= 1


def _events_by_decision(records):
    """Map each traced decision to the arrival/completion records that
    occurred since the previous decision (completions) or at the decision
    instant itself (arrivals).

    The COMPLETION trigger kind is *coflow*-level (a flow finishing while
    its coflow lives reschedules but does not fire the Upgrade step), so
    only coflow completion records — those without a ``flow_id`` — count.
    """
    decisions = decision_timeline(records)
    arrivals = [r.t for r in records if r.kind == "arrival"]
    completions = [
        r.t for r in records if r.kind == "completion" and "flow_id" not in r.data
    ]
    prev = -math.inf
    out = []
    for d in decisions:
        occurred = set()
        if any(abs(t - d.t) <= 1e-12 for t in arrivals):
            occurred.add(EventKind.ARRIVAL)
        if any(prev < t <= d.t + 1e-12 for t in completions):
            occurred.add(EventKind.COMPLETION)
        out.append((d, occurred))
        prev = d.t
    return out


@st.composite
def workloads(draw):
    """Small workloads with quantised arrivals/sizes to provoke ties."""
    n = draw(st.integers(min_value=1, max_value=5))
    coflows = []
    for i in range(n):
        arrival = draw(st.integers(min_value=0, max_value=8)) * 0.25
        width = draw(st.integers(min_value=1, max_value=3))
        flows = []
        for j in range(width):
            size = draw(st.integers(min_value=1, max_value=8)) * 0.25
            src = draw(st.integers(min_value=0, max_value=3))
            dst = draw(st.integers(min_value=0, max_value=3))
            flows.append(Flow(src=src, dst=dst, size=size, flow_id=i * 10 + j))
        coflows.append(Coflow(flows, arrival=arrival, coflow_id=i))
    return coflows


class TestTriggerKindsProperty:
    @settings(max_examples=40, deadline=None)
    @given(workload=workloads(), policy=st.sampled_from(["fifo", "sebf", "fvdf-nocompress"]))
    def test_delivered_kinds_match_observed_events(self, workload, policy):
        """For any workload, the ARRIVAL/COMPLETION kinds handed to the
        scheduler at each boundary equal the set of arrival/completion
        events that actually took effect there."""
        obs = Observability()
        sim = SliceSimulator(
            BigSwitch(4, 1.0), make_scheduler(policy), slice_len=0.01, obs=obs
        )
        sim.submit_many(workload)
        sim.run()
        for decision, occurred in _events_by_decision(list(obs.recorder)):
            delivered = {
                k
                for k in decision.data["kinds"]
                if k in (EventKind.ARRIVAL, EventKind.COMPLETION)
            }
            assert delivered == occurred, (
                f"at t={decision.t}: delivered {delivered}, occurred {occurred}"
            )
