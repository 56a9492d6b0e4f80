"""Property-based invariants on the two-tier oversubscribed fabric.

Every policy, on random rack-structured workloads, must produce rate
allocations the fabric's (stricter) feasibility check accepts — the engine
validates every window, so a clean completion *is* the proof — and the
big-switch lower bounds remain valid (two-tier only adds constraints)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import avg_cct_lower_bound, makespan_lower_bound
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.fabric import BigSwitch, TwoTierFabric
from repro.schedulers import make_scheduler

NUM_RACKS, HOSTS = 2, 2
N_PORTS = NUM_RACKS * HOSTS
#: registry names, and (name, params) for a policy built with params
POLICIES = ["fifo", "fair", "wss", "sebf", ("sebf", {"rate_policy": "madd"}),
            "dclas", "sincronia", "fvdf"]


@st.composite
def rack_workloads(draw):
    coflows = []
    t = 0.0
    for _ in range(draw(st.integers(1, 5))):
        flows = [
            Flow(draw(st.integers(0, N_PORTS - 1)),
                 draw(st.integers(0, N_PORTS - 1)),
                 draw(st.floats(0.1, 6.0)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        coflows.append(Coflow(flows, arrival=t))
        t += draw(st.floats(0.0, 2.0))
    return coflows


@given(rack_workloads(), st.sampled_from(POLICIES),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=120, deadline=None)
def test_two_tier_feasibility_and_bounds(coflows, policy, uplink):
    fabric = TwoTierFabric(NUM_RACKS, HOSTS, bandwidth=1.0,
                           uplink_bandwidth=uplink)
    name, params = (policy, {}) if isinstance(policy, str) else policy
    sim = SliceSimulator(fabric, make_scheduler(name, **params),
                         slice_len=0.05)
    sim.submit_many(coflows)
    res = sim.run()  # every window passed the two-tier feasibility check
    assert len(res.coflow_results) == len(coflows)
    # Big-switch bounds stay valid (two-tier adds constraints, never
    # removes any).  FVDF compresses, so skip the uncompressed bound there.
    if policy != "fvdf":
        big = BigSwitch(N_PORTS, 1.0)
        tol = 1 + 1e-6
        assert res.avg_cct * tol >= avg_cct_lower_bound(coflows, big)
        assert res.makespan * tol + 0.05 >= makespan_lower_bound(coflows, big)


@given(st.floats(0.5, 6.0), st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=40, deadline=None)
def test_single_inter_rack_flow_capped_by_uplink(size, uplink):
    """With one flow there are no scheduling anomalies: an inter-rack
    transfer can never beat ``size / min(host, uplink)``.

    (The multi-coflow version of "thinner uplink never helps" is *false*
    for greedy heuristics — Graham-style anomalies let a tighter
    constraint accidentally improve a priority schedule — which hypothesis
    duly demonstrated; hence this anomaly-free form.)
    """
    fabric = TwoTierFabric(NUM_RACKS, HOSTS, bandwidth=1.0,
                           uplink_bandwidth=uplink)
    sim = SliceSimulator(fabric, make_scheduler("sebf"), slice_len=0.05)
    sim.submit(Coflow([Flow(0, HOSTS, size)]))  # rack 0 -> rack 1
    res = sim.run()
    assert res.flow_results[0].fct * (1 + 1e-9) >= size / min(1.0, uplink)