"""Lazy columnar results match the eager dataclass path bit for bit.

The columnar engine (batched ingest/retirement, ``ResultStore``-backed
lazy results) must be an exact behavioural match for the pinned
pre-columnar engine (:class:`repro.core.reference.
PreColumnarSliceSimulator`: scalar per-flow submit, eager per-flow
``FlowResult`` retirement) — same dataclasses, same arrays, same
metrics, on the same workloads.

Covered here:

* full-trace equivalence across FVDF (coflow and flow granularity),
  SEBF, FAIR, SCF, NCF, LCF and PFP (every sweep-grid policy; PFF is
  FAIR's allocation) on generated and FB-synthesized workloads;
* cancellation mid-run (including the "only stamp unset finish_phys"
  rule) and ``run(until=...)`` horizon resume with mid-run submission;
* hypothesis sweeps over tied retirement boundaries (constant sizes,
  clumped arrivals → many flows/coflows retiring in one batch), and
  closing batches that mix coflow widths below 8 or of 8 and more;
* the lazy sequences' contracts: list equality, member object identity
  shared between ``coflow_results[k].flow_results`` and the flat flow
  list, frozen snapshots across resumed runs;
* the metrics helpers returning identical values/types on both
  backings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExperimentSetup
from repro.core import metrics
from repro.core.reference import PreColumnarSliceSimulator
from repro.core.results import LazyCoflowResults, LazyFlowResults
from repro.schedulers import make_scheduler
from repro.traces.distributions import ConstantSize
from repro.traces.facebook import synthesize
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import mbps

#: ``fvdf-flow`` is the paper's flow-granularity FVDF, with compression on.
POLICIES = ["fvdf", "fvdf-flow", "sebf", "fair", "scf", "ncf", "lcf", "pfp"]


def _make_sim(policy, cls, num_ports=6, bandwidth=mbps(100), slice_len=0.01):
    setup = ExperimentSetup(
        num_ports=num_ports, bandwidth=bandwidth, slice_len=slice_len
    )
    scheduler = make_scheduler(policy)
    base = setup.build_simulator(scheduler)
    return cls(
        base.fabric,
        scheduler,
        slice_len=setup.slice_len,
        cpu=base.cpu,
        compression=base.compression,
    )


def _pair(policy, **kw):
    """(columnar engine, pre-columnar engine) on identical fabrics."""
    from repro.core.simulator import SliceSimulator

    return (
        _make_sim(policy, SliceSimulator, **kw),
        _make_sim(policy, PreColumnarSliceSimulator, **kw),
    )


def _generated_coflows(seed=7, num_coflows=12, num_ports=6):
    cfg = WorkloadConfig(
        num_coflows=num_coflows, num_ports=num_ports,
        size_dist=ConstantSize(1e6), width=(1, 4), arrival_rate=4.0,
    )
    return generate_workload(cfg, np.random.default_rng(seed))


def _fb_coflows(seed=11, num_coflows=40, num_ports=6):
    return synthesize(
        np.random.default_rng(seed),
        num_coflows=num_coflows, num_ports=num_ports,
        arrival_rate=5.0, mean_reducer_mb=0.1,
    ).coflows


def assert_identical(a, b):
    """Bit-exact comparison of two SimulationResults (any backing)."""
    assert a.makespan == b.makespan
    assert a.decision_points == b.decision_points
    assert len(a.flow_results) == len(b.flow_results)
    assert len(a.coflow_results) == len(b.coflow_results)
    # Dataclass equality covers every field, CoflowResult recursively
    # including its member FlowResults.
    assert list(a.flow_results) == list(b.flow_results)
    assert list(a.coflow_results) == list(b.coflow_results)
    for name in ("fct_array", "size_array", "cct_array", "finish_array"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in (
        "avg_fct", "avg_cct", "max_cct",
        "total_bytes_sent", "total_bytes_original", "traffic_reduction",
    ):
        assert getattr(a, name) == getattr(b, name), name


# --------------------------------------------------------- full-trace runs
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", ["generated", "fb"])
def test_columnar_matches_precolumnar(policy, workload):
    coflows = (
        _generated_coflows() if workload == "generated" else _fb_coflows()
    )
    new, old = _pair(policy)
    new.submit_many(coflows)
    old.submit_many(coflows)
    res_new, res_old = new.run(), old.run()
    assert isinstance(res_new.flow_results, LazyFlowResults)
    assert isinstance(res_old.flow_results, list)
    assert_identical(res_new, res_old)


@pytest.mark.parametrize("policy", ["fvdf", "fair"])
def test_force_regroup_matches_delta_regroup(policy):
    """The incremental arrival/retire regroup deltas produce the same
    runs as rebuilding the segmentation at every decision."""
    from repro.core.simulator import SliceSimulator

    coflows = _fb_coflows(seed=29, num_coflows=25)
    delta = _make_sim(policy, SliceSimulator)
    full = _make_sim(policy, SliceSimulator)
    full.force_regroup = True
    delta.submit_many(coflows)
    full.submit_many(coflows)
    assert_identical(delta.run(), full.run())


# ------------------------------------------------ cancellation + horizons
@pytest.mark.parametrize("policy", ["fvdf", "fair"])
def test_cancellation_matches_precolumnar(policy):
    coflows = _generated_coflows(seed=19, num_coflows=10)
    new, old = _pair(policy)
    new.submit_many(coflows)
    old.submit_many(coflows)
    horizon = 0.5
    new.run(until=horizon)
    old.run(until=horizon)
    closed = {c.coflow_id for c in new.result().coflow_results}
    open_ids = [c.coflow_id for c in coflows if c.coflow_id not in closed]
    assert open_ids, "horizon too late: nothing left to cancel"
    target = open_ids[0]
    assert new.cancel_coflow(target) == old.cancel_coflow(target)
    res_new, res_old = new.run(), old.run()
    assert target in new.cancelled_coflows
    assert target not in {c.coflow_id for c in res_new.coflow_results}
    assert_identical(res_new, res_old)


@pytest.mark.parametrize("policy", ["fvdf", "fair"])
def test_cancel_before_arrival_matches_precolumnar(policy):
    """A coflow cancelled before it arrives ends no window in either
    engine: its arrival is not a boundary, so both make the same
    decisions and integrate the same windows.  The target arrives while
    the coflow ahead of it (due 0.55 s) still transmits, so the step
    that passes its arrival is a transmit window, not an idle jump."""
    coflows = _fb_coflows(seed=29, num_coflows=20)
    new, old = _pair(policy)
    new.submit_many(coflows)
    old.submit_many(coflows)
    horizon = 0.5
    new.run(until=horizon)
    old.run(until=horizon)
    pending = [c.coflow_id for c in coflows if c.arrival > horizon]
    assert len(pending) >= 2, "horizon too late: nothing left to arrive"
    target = pending[1]
    assert new.cancel_coflow(target) == old.cancel_coflow(target)
    res_new, res_old = new.run(), old.run()
    assert target in new.cancelled_coflows
    assert target not in {c.coflow_id for c in res_new.coflow_results}
    assert_identical(res_new, res_old)


def test_cancel_stamps_only_unset_finish_phys():
    """A cancelled coflow's already-retired flows keep their physical
    finish; only still-live flows get stamped with the abort instant."""
    new, old = _pair("fvdf")
    coflows = _generated_coflows(seed=21, num_coflows=8)
    new.submit_many(coflows)
    old.submit_many(coflows)
    new.run(until=0.5)
    old.run(until=0.5)
    closed = {c.coflow_id for c in new.result().coflow_results}
    target = next(
        c.coflow_id for c in coflows if c.coflow_id not in closed
    )
    new.cancel_coflow(target)
    old.cancel_coflow(target)
    res_new, res_old = new.run(), old.run()
    cancelled_new = [
        f for f in res_new.flow_results if f.coflow_id == target
    ]
    cancelled_old = [
        f for f in res_old.flow_results if f.coflow_id == target
    ]
    assert cancelled_new == cancelled_old
    for f in cancelled_new:
        assert f.finish_physical > 0.0


@pytest.mark.parametrize("policy", ["fvdf", "sebf"])
def test_until_horizon_resume_matches(policy):
    """Split runs (run(until) → submit more → run()) equal the
    pre-columnar engine run the same way, and intermediate snapshots
    stay frozen while the engine advances."""
    first = _generated_coflows(seed=5, num_coflows=8)
    horizon = 0.4
    late = _generated_coflows(seed=6, num_coflows=4)
    for c in late:
        c.arrival += horizon + 0.1
    new, old = _pair(policy)
    new.submit_many(first)
    old.submit_many(first)
    mid_new = new.run(until=horizon)
    mid_old = old.run(until=horizon)
    assert_identical(mid_new, mid_old)
    n_mid = len(mid_new.flow_results)
    mid_fct = mid_new.fct_array.copy()
    new.submit_many(late)
    old.submit_many(late)
    res_new, res_old = new.run(), old.run()
    assert_identical(res_new, res_old)
    # The mid-run snapshot is a frozen copy: resuming retired more
    # flows, but the earlier result still sees exactly what it saw.
    assert len(mid_new.flow_results) == n_mid
    assert np.array_equal(mid_new.fct_array, mid_fct)
    assert len(res_new.coflow_results) == len(first) + len(late)


# --------------------------------------------------- tied-boundary batches
@given(
    seed=st.integers(0, 2**16),
    num_coflows=st.integers(1, 6),
    max_width=st.integers(1, 4),
    policy=st.sampled_from(["fair", "fvdf"]),
)
@settings(max_examples=20, deadline=None)
def test_tied_boundary_retirement_batches(seed, num_coflows, max_width, policy):
    """Constant sizes + clumped arrivals retire many flows (often whole
    coflow groups) at the same slice boundary; the batched retirement
    must match the per-flow loop on every draw."""
    cfg = WorkloadConfig(
        num_coflows=num_coflows, num_ports=4,
        size_dist=ConstantSize(5e5), width=(1, max_width),
        arrival_rate=200.0,
    )
    coflows = generate_workload(cfg, np.random.default_rng(seed))
    new, old = _pair(policy, num_ports=4)
    new.submit_many(coflows)
    old.submit_many(coflows)
    assert_identical(new.run(), old.run())


@pytest.mark.parametrize("policy", ["fair", "fvdf-flow"])
@pytest.mark.parametrize("widths", [(2, 7), (8, 40)])
def test_mixed_width_closing_batches_match(policy, widths):
    """Coflows submitted at once with equal flow sizes and served flow
    by flow close many at a time; each closing batch sums its coflows'
    totals together (all narrower than 8 flows, or grouped by width),
    and must match the per-coflow sums bit for bit."""
    cfg = WorkloadConfig(
        num_coflows=24, num_ports=6, size_dist=ConstantSize(2e5),
        width=widths, arrival_rate=None,
    )
    coflows = generate_workload(cfg, np.random.default_rng(2))
    new, old = _pair(policy)
    mixed = []
    retire = new._retire_finished

    def recorded(boundary):
        n_chunks = len(new._closed_chunks)
        out = retire(boundary)
        if len(new._closed_chunks) > n_chunks:
            widths = set(new._cf_count[new._closed_chunks[-1]].tolist())
            if len(widths) > 1:
                mixed.append(widths)
        return out

    new._retire_finished = recorded
    new.submit_many(coflows)
    old.submit_many(coflows)
    assert_identical(new.run(), old.run())
    assert mixed, "no closing batch mixed widths"


# ----------------------------------------------------- lazy-seq contracts
def test_lazy_sequences_share_member_identity():
    new, _ = _pair("fvdf")
    new.submit_many(_fb_coflows(seed=13, num_coflows=15))
    res = new.run()
    flows = res.flow_results
    coflows = res.coflow_results
    assert isinstance(coflows, LazyCoflowResults)
    flat_ids = {id(f) for f in flows}
    for cr in coflows:
        assert len(cr.flow_results) == cr.width
        for f in cr.flow_results:
            # Same objects, not equal copies: members materialize
            # through the parent flat sequence.
            assert id(f) in flat_ids


def test_lazy_sequences_compare_like_lists():
    new, _ = _pair("sebf")
    new.submit_many(_generated_coflows(seed=3, num_coflows=6))
    res = new.run()
    flows = res.flow_results
    assert flows == list(flows)
    assert list(flows) == flows
    assert flows[:3] == list(flows)[:3]
    assert flows[-1] == list(flows)[-1]
    assert flows != list(flows)[:-1]
    with pytest.raises(IndexError):
        flows[len(flows)]


# -------------------------------------------------------- metrics helpers
def test_metrics_identical_on_both_backings():
    coflows = _fb_coflows(seed=17, num_coflows=30)
    new, old = _pair("fvdf")
    new.submit_many(coflows)
    old.submit_many(coflows)
    res_new, res_old = new.run(), old.run()
    edges = [1e4, 1e5, 1e6]
    bins_new = metrics.fct_by_size_bins(res_new.flow_results, edges)
    bins_old = metrics.fct_by_size_bins(res_old.flow_results, edges)
    assert isinstance(bins_new, dict)
    assert bins_new == bins_old
    assert list(bins_new) == list(bins_old)  # same label order too
    kept_new = metrics.filter_flows_by_size_percentile(
        res_new.flow_results, 0.9
    )
    kept_old = metrics.filter_flows_by_size_percentile(
        res_old.flow_results, 0.9
    )
    assert isinstance(kept_new, list)
    assert kept_new == kept_old
    assert metrics.avg_fct(res_new.flow_results) == metrics.avg_fct(
        res_old.flow_results
    )
    assert metrics.avg_cct(res_new.coflow_results) == metrics.avg_cct(
        res_old.coflow_results
    )
