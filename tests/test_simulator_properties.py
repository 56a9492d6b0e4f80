"""Property-based tests on the simulation engine's invariants.

Random workloads through random policies must always satisfy:

* conservation — a finished flow's bytes on the wire equal its raw bytes
  sent plus its compressed bytes at their compressed size;
* completeness — every submitted flow/coflow finishes, exactly once;
* causality — finishes are on the slice grid, after arrival, and physical
  finish never exceeds the observed finish;
* Eq. 8 — a coflow's CCT is the max of its member FCTs;
* compression only helps — bytes sent never exceed the original size.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.cpu.cores import CpuModel
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import make_scheduler

N_PORTS = 4
#: registry names, and (name, params) for a policy built with params
POLICIES = ["fifo", "fair", "srtf", "pfp", "wss", "sebf", "scf", "ncf",
            "lcf", "coflow-fifo", "dclas", "fvdf", "fvdf-flow",
            ("sebf", {"rate_policy": "madd"})]


@st.composite
def workloads(draw):
    n_coflows = draw(st.integers(1, 6))
    coflows = []
    t = 0.0
    for _ in range(n_coflows):
        width = draw(st.integers(1, 4))
        flows = [
            Flow(
                src=draw(st.integers(0, N_PORTS - 1)),
                dst=draw(st.integers(0, N_PORTS - 1)),
                size=draw(st.floats(0.05, 20.0)),
                compressible=draw(st.booleans()),
            )
            for _ in range(width)
        ]
        coflows.append(Coflow(flows, arrival=t))
        t += draw(st.floats(0.0, 3.0))
    return coflows


def run(coflows, policy):
    name, params = (policy, {}) if isinstance(policy, str) else policy
    scheduler = make_scheduler(name, **params)
    engine = CompressionEngine(
        Codec("prop", speed=8.0, decompression_speed=32.0, ratio=0.5),
        size_dependent=False,
    )
    sim = SliceSimulator(
        BigSwitch(N_PORTS, bandwidth=1.0),
        scheduler,
        slice_len=0.05,
        cpu=CpuModel(N_PORTS, cores_per_node=2),
        compression=engine if scheduler.uses_compression else None,
    )
    sim.submit_many(coflows)
    return sim.run(), engine


@given(workloads(), st.sampled_from(POLICIES))
@settings(max_examples=120, deadline=None)
def test_engine_invariants(coflows, policy):
    res, engine = run(coflows, policy)

    # completeness: every flow and coflow finishes exactly once.
    n_flows = sum(c.width for c in coflows)
    assert len(res.flow_results) == n_flows
    assert len(res.coflow_results) == len(coflows)
    assert len({f.flow_id for f in res.flow_results}) == n_flows

    slice_len = 0.05
    for fr in res.flow_results:
        # causality and grid alignment.
        assert fr.finish >= fr.arrival
        assert fr.finish_physical <= fr.finish + 1e-9
        k = fr.finish / slice_len
        assert abs(k - round(k)) < 1e-6, "observed finish off the slice grid"
        # conservation: wire bytes = raw part + compressed part at ratio.
        raw_sent = fr.size - fr.bytes_compressed_in
        expected = raw_sent + fr.bytes_compressed_in * 0.5
        assert fr.bytes_sent == pytest.approx(expected, rel=1e-6, abs=1e-6)
        assert fr.bytes_sent <= fr.size * (1 + 1e-9)

    # Eq. 8: CCT is the max member FCT.
    for cr in res.coflow_results:
        assert cr.finish == pytest.approx(max(f.finish for f in cr.flow_results))
        assert cr.bytes_sent == pytest.approx(
            sum(f.bytes_sent for f in cr.flow_results)
        )


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_compression_never_slower_than_disabled_on_makespan_bound(coflows):
    """FVDF with compression finishes no later than 2x the no-compression
    run (a loose regression bound: compression must never blow up)."""
    res_c, _ = run(coflows, "fvdf")
    res_n, _ = run(coflows, "fvdf-nocompress")
    assert res_c.makespan <= res_n.makespan * 2 + 1.0


@given(workloads(), st.sampled_from(["sebf", "fvdf"]))
@settings(max_examples=60, deadline=None)
def test_determinism(coflows, policy):
    """Same workload, same policy, same seedless engine -> identical output."""
    a, _ = run(coflows, policy)
    b, _ = run(coflows, policy)
    assert [f.finish for f in a.flow_results] == [f.finish for f in b.flow_results]
    assert a.total_bytes_sent == b.total_bytes_sent


def _shifted(coflows, offset):
    """Fresh copies of a workload translated ``offset`` seconds later."""
    out = []
    for cf in coflows:
        flows = [
            Flow(src=f.src, dst=f.dst, size=f.size,
                 compressible=f.compressible)
            for f in cf.flows
        ]
        out.append(Coflow(flows, arrival=cf.arrival + offset))
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_resume_at_large_now_matches_uninterrupted(data):
    """``run(until=...)`` resume is magnitude-independent.

    Regression for the horizon comparison's absolute 1e-12 epsilon: one
    ulp of 1e9 s is ~1.2e-7, so at large simulated times the tolerance
    underflowed to exact float equality and a resumed tick could stall
    on — or double-fire — a slice boundary.  The relative ``_time_eps``
    must make a chunked run (including chunks landing exactly on the
    slice grid) bit-identical to an uninterrupted one at any offset.
    """
    offset = data.draw(
        st.sampled_from([0.0, 1e3, 1e6, 1e9]), label="offset"
    )
    coflows = data.draw(workloads())
    policy = data.draw(st.sampled_from(["sebf", "fvdf-flow"]))

    whole, _ = run(_shifted(coflows, offset), policy)

    scheduler = make_scheduler(policy)
    engine = CompressionEngine(
        Codec("prop", speed=8.0, decompression_speed=32.0, ratio=0.5),
        size_dependent=False,
    )
    sim = SliceSimulator(
        BigSwitch(N_PORTS, bandwidth=1.0),
        scheduler,
        slice_len=0.05,
        cpu=CpuModel(N_PORTS, cores_per_node=2),
        compression=engine if scheduler.uses_compression else None,
    )
    sim.submit_many(_shifted(coflows, offset))
    # Resume in chunks; 0.05 lands exactly on the slice grid every time.
    chunk = data.draw(st.sampled_from([0.05, 0.1, 0.33]), label="chunk")
    n_chunks = data.draw(st.integers(1, 4), label="n_chunks")
    for i in range(1, n_chunks + 1):
        sim.run(until=offset + i * chunk)
        assert sim.now <= offset + i * chunk + 0.05
    chunked = sim.run()

    assert [f.finish for f in chunked.flow_results] == [
        f.finish for f in whole.flow_results
    ]
    assert [c.finish for c in chunked.coflow_results] == [
        c.finish for c in whole.coflow_results
    ]
    # Chunk boundaries split integration windows, so byte totals
    # accumulate in a different order — equal only up to float roundoff.
    assert chunked.total_bytes_sent == pytest.approx(
        whole.total_bytes_sent, rel=1e-9
    )


def _held_window_workload():
    """One coflow on port 0->0 whose compressed flow drains mid-slice.

    Under ``fvdf-flow`` the decision at t=0.1 holds one full-rate
    allocation until the compressed flow drains at t=0.45; a decision
    re-taken at a horizon inside that window (t=0.4) caps the almost
    finished flow at its demand and hands the spare rate to the next
    flow, finishing it a slice early.
    """
    return [Coflow([Flow(0, 0, 0.625, compressible=True),
                    Flow(0, 0, 2.0, compressible=False),
                    Flow(0, 0, 1.125, compressible=False)], arrival=0.0)]


def _sim(scheduler):
    return SliceSimulator(
        BigSwitch(N_PORTS, bandwidth=1.0),
        scheduler,
        slice_len=0.05,
        cpu=CpuModel(N_PORTS, cores_per_node=2),
        compression=CompressionEngine(
            Codec("prop", speed=8.0, decompression_speed=32.0, ratio=0.5),
            size_dependent=False,
        ),
    )


def test_horizon_keeps_the_held_allocation():
    """A ``run(until=...)`` horizon is not a decision point: the
    allocation in force and the trigger kinds pending at the horizon
    carry over to the next ``run`` call."""
    whole, _ = run(_held_window_workload(), "fvdf-flow")
    assert [f.finish for f in whole.flow_results] == [0.45, 1.5, 3.5]

    sim = _sim(make_scheduler("fvdf-flow"))
    sim.submit_many(_held_window_workload())
    for i in range(1, 5):
        sim.run(until=0.1 * i)
    chunked = sim.run()
    assert [f.finish for f in chunked.flow_results] == [0.45, 1.5, 3.5]
    assert chunked.decision_points == whole.decision_points


def test_split_compression_window_leaves_no_raw_residual():
    """Horizons at 0.05/0.10/0.15 split a 2-byte flow's 0.25 s
    compression window; the steps sum to 2.0 only up to roundoff.  The
    roundoff residual must not cost a spurious extra compression slice
    (the chunked run used to finish at 1.3 s instead of 1.25 s)."""
    def workload():
        return [Coflow([Flow(0, 0, 2.0, compressible=True)], arrival=0.0)]

    whole, _ = run(workload(), "fvdf-flow")
    assert [f.finish for f in whole.flow_results] == [1.25]

    sim = _sim(make_scheduler("fvdf-flow"))
    sim.submit_many(workload())
    for i in range(1, 4):
        sim.run(until=0.05 * i)
    chunked = sim.run()
    assert [f.finish for f in chunked.flow_results] == [1.25]
    assert chunked.decision_points == whole.decision_points


def test_checkpoint_inside_a_held_window_resumes_identically(tmp_path):
    """The held allocation and pending trigger kinds survive a
    checkpoint round trip taken at a horizon."""
    from repro.service.checkpoint import load_checkpoint, save_checkpoint

    whole, _ = run(_held_window_workload(), "fvdf-flow")

    sim = _sim(make_scheduler("fvdf-flow"))
    sim.submit_many(_held_window_workload())
    sim.run(until=0.1)  # RAW_EXHAUSTED pending at the horizon
    save_checkpoint(tmp_path / "a.npz", sim)
    state = load_checkpoint(tmp_path / "a.npz")["state"]
    assert state["resume_kinds"] == ["RAW_EXHAUSTED"]
    resumed = _sim(state["scheduler"])
    resumed.import_state(state)
    resumed.run(until=0.3)  # horizon inside the held window
    save_checkpoint(tmp_path / "b.npz", resumed)
    state = load_checkpoint(tmp_path / "b.npz")["state"]
    assert state["held"] is not None
    final = _sim(state["scheduler"])
    final.import_state(state)
    res = final.run()

    assert [f.finish for f in res.flow_results] == [
        f.finish for f in whole.flow_results
    ]
    assert res.decision_points == whole.decision_points
