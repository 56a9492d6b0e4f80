"""Block-columnar ingest equivalence and calendar checkpointing.

The columnar fast path — ``CoflowBlock`` batches through
``submit_block`` and the :class:`~repro.core.events.ArrivalCalendar` —
must be *bit-identical* to scalar per-coflow submission: same tie
breaking (submission order), same activation spans, same results.  These
properties pin that across out-of-order batches, tied arrivals,
cancel-before-arrival and ``run(until)`` resumes mid-batch, plus the
checkpoint round trip of a populated calendar, and that a dropped engine
is freed by reference counting alone.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExperimentSetup
from repro.core.coflow import Coflow
from repro.core.events import ScheduleTrigger
from repro.core.flow import Flow
from repro.core.ingest import BlockRowError, CoflowBlock
from repro.core.reference import PreColumnarSliceSimulator
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.obs import Observability
from repro.schedulers import make_scheduler
from repro.service.checkpoint import (
    load_checkpoint,
    restore_simulator,
    save_checkpoint,
)
from repro.units import mbps

N_PORTS = 4
SLICE = 0.05


@st.composite
def workloads(draw, max_coflows=6):
    """Workloads with deliberate arrival ties (increments include 0.0)."""
    n_coflows = draw(st.integers(1, max_coflows))
    coflows = []
    t = 0.0
    for _ in range(n_coflows):
        width = draw(st.integers(1, 3))
        flows = [
            Flow(
                src=draw(st.integers(0, N_PORTS - 1)),
                dst=draw(st.integers(0, N_PORTS - 1)),
                size=draw(st.floats(0.05, 10.0)),
                compressible=draw(st.booleans()),
            )
            for _ in range(width)
        ]
        coflows.append(Coflow(flows, arrival=t))
        # 0.0 forces ties; 0.05 lands exactly on the slice grid.
        t += draw(st.sampled_from([0.0, 0.0, 0.05, 0.17, 1.0]))
    return coflows


def _sim(policy="sebf"):
    return SliceSimulator(
        BigSwitch(N_PORTS, bandwidth=1.0),
        make_scheduler(policy),
        slice_len=SLICE,
    )


def _assert_results_identical(a, b):
    assert a.makespan == b.makespan
    assert a.decision_points == b.decision_points
    assert list(a.flow_results) == list(b.flow_results)
    assert list(a.coflow_results) == list(b.coflow_results)


@given(workloads(), st.sampled_from(["sebf", "fvdf-flow"]))
@settings(max_examples=60, deadline=None)
def test_batched_equals_scalar_submit(coflows, policy):
    """One submit_many block == per-coflow submit, bit for bit."""
    batched, scalar = _sim(policy), _sim(policy)
    batched.submit_many(coflows)
    for c in coflows:
        scalar.submit(c)
    _assert_results_identical(batched.run(), scalar.run())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_batch_split_points_do_not_matter(data):
    """Any batching of the same submission order is equivalent: the
    calendar breaks arrival ties by submission order, not batch shape."""
    coflows = data.draw(workloads())
    cut = data.draw(st.integers(0, len(coflows)), label="cut")
    whole, split = _sim(), _sim()
    whole.submit_many(coflows)
    split.submit_many(coflows[:cut])
    split.submit_many(coflows[cut:])
    _assert_results_identical(whole.run(), split.run())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_run_until_resume_mid_batch(data):
    """run(until) with a second batch submitted at the pause point is
    identical between batched and scalar ingest."""
    first = data.draw(workloads(max_coflows=5))
    late = data.draw(workloads(max_coflows=3))
    horizon = data.draw(st.sampled_from([0.05, 0.25, 1.0]), label="horizon")
    for c in late:
        c.arrival += horizon + SLICE  # strictly after the pause point

    batched, scalar = _sim(), _sim()
    batched.submit_many(first)
    for c in first:
        scalar.submit(c)
    batched.run(until=horizon)
    scalar.run(until=horizon)
    batched.submit_many(late)
    for c in late:
        scalar.submit(c)
    _assert_results_identical(batched.run(), scalar.run())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cancel_before_arrival_batched_vs_scalar(data):
    """Cancelling a not-yet-arrived coflow (a lazy calendar discard on the
    columnar path) leaves batched and scalar engines identical."""
    coflows = data.draw(workloads())
    victim = Coflow(
        [Flow(0, 1, 5.0)], arrival=coflows[-1].arrival + 10.0, label="victim"
    )
    coflows = coflows + [victim]
    batched, scalar = _sim(), _sim()
    batched.submit_many(coflows)
    for c in coflows:
        scalar.submit(c)
    pause = data.draw(st.sampled_from([0.0, 0.05, 0.5]), label="pause")
    batched.run(until=pause)
    scalar.run(until=pause)
    batched.cancel_coflow(victim.coflow_id)
    scalar.cancel_coflow(victim.coflow_id)
    _assert_results_identical(batched.run(), scalar.run())


@pytest.mark.parametrize("engine", [SliceSimulator, PreColumnarSliceSimulator])
def test_reassigned_arrival_moves_its_flows(engine):
    """A flow arrives with its coflow: a coflow whose ``arrival`` is
    reassigned after construction (as a caller resuming a paused run may
    do) is submitted with every flow at the new arrival, so no FCT counts
    the shift."""
    cf = Coflow([Flow(0, 1, 1.0), Flow(1, 2, 2.0)], arrival=0.0)
    cf.arrival += 0.5
    sim = engine(BigSwitch(N_PORTS, bandwidth=1.0), make_scheduler("sebf"),
                 slice_len=SLICE)
    sim.submit_many([cf])
    res = sim.run()
    assert [fr.arrival for fr in res.flow_results] == [0.5, 0.5]
    assert max(fr.fct for fr in res.flow_results) == res.coflow_results[0].cct


class TestSubmitBlockValidation:
    def test_raw_columns_get_constructor_invariants(self):
        with pytest.raises(ConfigurationError, match="size must be positive"):
            _sim().submit_block(CoflowBlock.from_columns(
                arrival=[0.0], width=[1], label=[""], deadline=[None],
                src=np.array([0]), dst=np.array([1]),
                size=np.array([-3.0]),  # invalid size
                compressible=np.array([True]),
            ))

    @pytest.mark.parametrize(
        "size, deadline, row, message",
        [
            ([1.0, 1.0, 1.0, np.nan, 1.0, 1.0], [None, None, np.inf], 1,
             "flow size must be finite, got nan"),
            ([1.0] * 6, [None, None, np.inf], 2,
             "deadline must be finite, got inf"),
            ([1.0] * 5 + [-2.0], [None, np.nan, None], 1,
             "deadline must be finite, got nan"),
        ],
    )
    def test_block_error_names_first_bad_row(self, size, deadline, row, message):
        with pytest.raises(BlockRowError, match=message) as err:
            CoflowBlock.from_columns(
                arrival=[0.0, 0.0, 1.0], width=[2, 3, 1],
                label=["a", "b", "c"], deadline=deadline,
                src=np.arange(6) % 3, dst=np.arange(6) % 2,
                size=np.array(size), compressible=np.ones(6, dtype=bool),
            )
        assert err.value.row == row

    def test_submit_many_checks_its_block_once(self, monkeypatch):
        calls = []
        validate = CoflowBlock.validate
        monkeypatch.setattr(
            CoflowBlock, "validate", lambda b: calls.append(b) or validate(b)
        )
        _sim().submit_many([Coflow([Flow(0, 1, 1.0)]), Coflow([Flow(1, 0, 2.0)])])
        assert len(calls) == 1

    def test_duplicate_submission_rolls_back(self):
        sim = _sim()
        cf = Coflow([Flow(0, 1, 1.0)])
        sim.submit(cf)
        with pytest.raises(ConfigurationError, match="twice"):
            sim.submit_block(CoflowBlock.from_coflows([cf]))
        # the failed block left no partial state behind
        assert sim._n_cf == 1 and len(sim._cf_labels) == 1
        sim.run()
        assert len(sim.result().coflow_results) == 1

    def test_block_without_objects_runs(self):
        sim = _sim()
        sim.submit_block(CoflowBlock.from_columns(
            arrival=[0.0], width=[2], label=["raw"], deadline=[None],
            src=np.array([0, 1]), dst=np.array([1, 2]),
            size=np.array([2.0, 3.0]), compressible=np.array([True, False]),
        ))
        res = sim.run()
        assert len(res.flow_results) == 2
        assert res.coflow_results[0].label == "raw"


# ------------------------------------------------------- checkpointing
SETUP = ExperimentSetup(num_ports=N_PORTS, bandwidth=mbps(100), slice_len=0.01)


def _checkpoint_workload():
    """A workload whose tail is still in the calendar at checkpoint time."""
    rng = np.random.default_rng(11)
    coflows = []
    t = 0.0
    for i in range(12):
        w = int(rng.integers(1, 4))
        flows = [
            Flow(
                src=int(rng.integers(0, N_PORTS)),
                dst=int(rng.integers(0, N_PORTS)),
                size=float(rng.uniform(5e4, 4e5)),
                compressible=bool(rng.random() < 0.7),
            )
            for _ in range(w)
        ]
        coflows.append(Coflow(flows, arrival=t, label=f"ck{i}"))
        t += float(rng.uniform(0.0, 0.02))
    return coflows


class TestCalendarCheckpoint:
    def _paused_sim(self):
        sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
        sim.submit_many(_checkpoint_workload())
        sim.run(until=0.02)
        assert len(sim._calendar) > 0, "test needs pending arrivals"
        return sim

    def test_roundtrip_with_populated_calendar(self, tmp_path):
        sim = self._paused_sim()
        path = save_checkpoint(tmp_path / "cal.npz", sim, setup=SETUP)
        with np.load(path, allow_pickle=False) as data:
            assert data["cal_time"].size > 0
            assert {"cal_time", "cal_seq", "cal_slot"} <= set(data.files)
        restored = restore_simulator(load_checkpoint(path))
        assert len(restored._calendar) == len(sim._calendar)
        _assert_results_identical(sim.run(), restored.run())


# ------------------------------------------------------------ lifetime
@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _lazy_states(sim):
    """The active coflows' CoflowStates, as a view builds them for a
    policy that reads ``view.coflows``, whose coflow is not built yet."""
    view = sim._build_view(ScheduleTrigger(mask=0))
    return [st for st in view.coflows if st._coflow is None]


@pytest.mark.usefixtures("no_cyclic_gc")
class TestEngineLifetime:
    """Lazy CoflowStates hold their engine weakly: a dropped engine dies
    at once, with no engine -> state -> factory -> engine cycle left for
    the cyclic GC."""

    def _assert_freed_when_dropped(self, build):
        sim = build()
        first, late = _lazy_states(sim)[:2]
        cf = first.coflow  # materializes while the engine lives
        assert cf.coflow_id == first.coflow_id
        assert len(cf.flows) > 0
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        with pytest.raises(ReferenceError):
            late.coflow

    def test_traced_block_run_is_freed(self):
        def build():
            sim = SETUP.build_simulator(
                make_scheduler("fvdf-flow"), obs=Observability(trace=True)
            )
            sim.submit_block(CoflowBlock.from_coflows(_checkpoint_workload()))
            sim.run(until=0.02)
            return sim

        self._assert_freed_when_dropped(build)

    def test_restored_engine_is_freed(self, tmp_path):
        sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
        sim.submit_many(_checkpoint_workload())
        sim.run(until=0.02)
        path = save_checkpoint(tmp_path / "life.npz", sim, setup=SETUP)
        self._assert_freed_when_dropped(lambda: restore_simulator(
            load_checkpoint(path), obs=Observability(trace=True)
        ))
