"""The columnar flight recorder decodes to the per-record trace stream.

:class:`repro.obs.recorder.FlightRecorder` is the one trace sink.  The
engine hands it whole event batches as ndarray columns; decoding must
give the stream a per-record emitter would have produced — same kinds,
same payloads, same order.  The oracle is the pinned pre-columnar engine
(:class:`repro.core.reference.PreColumnarSliceSimulator`), which emits
its arrival, cancel and completion events one record at a time into the
same recorder.  Covered here:

* unit append/decode per columnar stream, plus the per-record ``emit``;
* engine-level equivalence: the columnar engine's decoded stream equals
  the reference engine's, record for record (generated and
  FB-synthesized workloads, cancellation, ``run(until=...)`` resume with
  mid-run ``submit_many``, capacity changes, and a hypothesis sweep over
  tied retirement boundaries);
* eager gating: tracing never forces per-flow result dataclass
  materialization;
* NPZ round-trip and JSONL export fidelity: the columnar JSONL writer is
  byte-identical to ``record_to_json`` of each decoded record, on fixed
  recordings and on hypothesis-built ones (signed zeros, NaN payloads,
  ±inf, subnormals and repeats in one chunk, batches over a chunk);
* a zero priority class is refused where the ``order`` row is recorded.
"""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import ExperimentSetup
from repro.core.events import EventKind, mask_of
from repro.core.reference import PreColumnarSliceSimulator
from repro.core.simulator import SliceSimulator
from repro.obs import NULL_RECORDER, Observability
from repro.obs import recorder as recorder_mod
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceRecord, record_to_json
from repro.schedulers import make_scheduler
from repro.traces.distributions import ConstantSize
from repro.traces.facebook import synthesize
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import mbps


def _make_sim(
    policy, obs, cls=SliceSimulator, num_ports=6, bandwidth=mbps(100),
    slice_len=0.01,
):
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
        obs=obs,
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


def _trace_obs():
    return Observability(trace=True, metrics=False)


def _both(drive):
    """Decoded streams of (columnar engine, pre-columnar reference) after
    ``drive(sim)`` runs each; callers pass both the same coflow objects,
    since generators draw ids globally."""
    streams = []
    for cls in (SliceSimulator, PreColumnarSliceSimulator):
        obs = _trace_obs()
        drive(lambda policy, **kw: _make_sim(policy, obs, cls=cls, **kw))
        streams.append(list(obs.recorder))
    assert streams[0], "the run recorded nothing"
    return streams


# ------------------------------------------------------ unit append/decode
class TestUnitDecode:
    def test_scalar_streams_roundtrip(self):
        rec = FlightRecorder()
        kinds = {EventKind.ARRIVAL, EventKind.COMPLETION}
        rec.add_decision(0.5, mask_of(kinds), 7, 3)
        rec.add_jump(0.5, 4, mask_of({EventKind.START}))
        rec.add_rates(0.5, 6, 120.5, 40.25)
        rec.add_cancel(0.7, 9, 2)
        rec.add_capacity(0.9, "egress", 3, 1e9)
        assert list(rec) == [
            TraceRecord(0.5, "decision",
                        {"kinds": kinds, "n_flows": 7, "n_coflows": 3}),
            TraceRecord(0.5, "jump",
                        {"n_slices": 4, "kinds": {EventKind.START}}),
            TraceRecord(0.5, "rates",
                        {"n_tx": 6, "total": 120.5, "max": 40.25}),
            TraceRecord(0.7, "cancel", {"coflow_id": 9, "n_flows": 2}),
            TraceRecord(0.9, "capacity",
                        {"side": "egress", "port": 3, "capacity": 1e9}),
        ]

    def test_batch_streams_expand_per_row(self):
        rec = FlightRecorder()
        rec.add_arrivals(0.1, [4, 5], [2, 3])
        rec.add_flow_completions(0.2, np.array([10, 11]), np.array([4, 4]))
        rec.add_coflow_completions(0.2, np.array([4]))
        rec.add_core_claims(0.3, [0, 2], [1, 3])
        assert list(rec) == [
            TraceRecord(0.1, "arrival", {"coflow_id": 4, "n_flows": 2}),
            TraceRecord(0.1, "arrival", {"coflow_id": 5, "n_flows": 3}),
            TraceRecord(0.2, "completion", {"flow_id": 10, "coflow_id": 4}),
            TraceRecord(0.2, "completion", {"flow_id": 11, "coflow_id": 4}),
            TraceRecord(0.2, "completion", {"coflow_id": 4}),
            TraceRecord(0.3, "core_claim", {"node": 0, "claims": 1}),
            TraceRecord(0.3, "core_claim", {"node": 2, "claims": 3}),
        ]

    def test_batch_record_streams_decode_to_one_record(self):
        rec = FlightRecorder()
        rec.add_beta(0.1, np.array([3, 1, 4]))
        rec.add_order(0.2, np.array([7, 8]), np.array([2.0, 6.0]),
                      np.array([4.0, 3.0]))
        assert list(rec) == [
            TraceRecord(0.1, "beta", {"flow_ids": [3, 1, 4]}),
            TraceRecord(0.2, "order",
                        {"units": [[7, 2.0, 4.0, 0.5], [8, 6.0, 3.0, 2.0]]}),
        ]
        assert len(rec) == 2
        assert rec.counts() == {"beta": 1, "order": 1}

    def test_emit_fallback_interleaves_in_order(self):
        rec = FlightRecorder()
        rec.add_decision(0.1, 0, 1, 1)
        rec.emit(0.1, "heartbeat", node=3)
        rec.add_rates(0.2, 1, 1.0, 1.0)
        kinds = [r.kind for r in rec]
        assert kinds == ["decision", "heartbeat", "rates"]
        assert rec.counts()["heartbeat"] == 1

    def test_empty_batches_are_skipped(self):
        rec = FlightRecorder()
        rec.add_arrivals(0.1, [], [])
        rec.add_flow_completions(0.1, np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64))
        rec.add_beta(0.1, [])
        assert list(rec) == []
        assert rec.batches == 0

    def test_growth_preserves_stream(self):
        rec = FlightRecorder()
        expect = []
        for i in range(500):  # far past the initial 64-row capacity
            rec.add_arrivals(float(i), [i], [1])
            expect.append(
                TraceRecord(float(i), "arrival",
                            {"coflow_id": i, "n_flows": 1})
            )
        assert list(rec) == expect

    def test_null_recorder_is_disabled(self):
        assert not NULL_RECORDER.enabled
        NULL_RECORDER.emit(0.0, "noise", x=1)  # silently ignored
        assert len(NULL_RECORDER) == 0

    def test_empty_order_batches_decode_to_empty_units(self):
        # FVDF records an ``order`` even with no rankable units, so an
        # empty batch journals one record.
        rec = FlightRecorder()
        rec.add_order(0.1, np.array([]), np.array([]), np.array([]))
        assert list(rec) == [TraceRecord(0.1, "order", {"units": []})]
        assert rec.counts() == {"order": 1}
        assert len(rec) == 1


# --------------------------------------------------- engine equivalence
def _run_both(policy, coflows):
    def drive(make):
        sim = make(policy)
        sim.submit_many(coflows)
        sim.run()

    return _both(drive)


@pytest.mark.parametrize("policy", ["fvdf", "fvdf-flow", "sebf", "fair"])
@pytest.mark.parametrize("workload", ["generated", "fb"])
def test_decoded_stream_matches_tracer(policy, workload):
    coflows = (
        _generated_coflows() if workload == "generated" else _fb_coflows()
    )
    decoded, reference = _run_both(policy, coflows)
    assert decoded == reference


def test_decoded_stream_matches_tracer_with_cancel_and_resume():
    """Cancellation, a run(until=...) horizon and mid-run submit_many all
    hit recorder hook sites outside the steady-state loop."""
    first = _generated_coflows(seed=19, num_coflows=10)
    late = _generated_coflows(seed=6, num_coflows=4)
    for c in late:
        c.arrival += 1.6

    def drive(make):
        sim = make("fvdf")
        sim.submit_many(first)
        sim.run(until=0.5)
        closed = {c.coflow_id for c in sim.result().coflow_results}
        target = next(
            c.coflow_id for c in first if c.coflow_id not in closed
        )
        sim.cancel_coflow(target)
        sim.run(until=1.5)
        sim.submit_many(late)
        sim.run()

    decoded, reference = _both(drive)
    assert "cancel" in {r.kind for r in decoded}
    assert decoded == reference


def test_decoded_stream_matches_tracer_with_capacity_changes():
    coflows = _generated_coflows(seed=23, num_coflows=8)

    def drive(make):
        sim = make("fvdf")
        sim.submit_many(coflows)
        sim.schedule_capacity_change(0.3, "egress", 1, mbps(50))
        sim.run()

    decoded, reference = _both(drive)
    assert "capacity" in {r.kind for r in decoded}
    assert decoded == reference


@given(
    seed=st.integers(0, 2**16),
    num_coflows=st.integers(1, 6),
    max_width=st.integers(1, 4),
    policy=st.sampled_from(["fair", "fvdf"]),
)
@settings(max_examples=20, deadline=None)
def test_tied_boundary_batches_decode_identically(
    seed, num_coflows, max_width, policy
):
    """Constant sizes + clumped arrivals retire many flows in one batch;
    the batched recorder appends must decode to the same per-record
    completion stream the reference engine emits."""
    cfg = WorkloadConfig(
        num_coflows=num_coflows, num_ports=4,
        size_dist=ConstantSize(5e5), width=(1, max_width),
        arrival_rate=200.0,
    )
    coflows = generate_workload(cfg, np.random.default_rng(seed))

    def drive(make):
        sim = make(policy, num_ports=4)
        sim.submit_many(coflows)
        sim.run()

    decoded, reference = _both(drive)
    assert decoded == reference


# ------------------------------------------------------------ eager gating
@pytest.mark.parametrize(
    "obs_kw",
    [
        {"trace": True, "metrics": False},
        {"trace": False, "metrics": True},
        {"trace": True, "metrics": True},
    ],
    ids=["recorder-only", "metrics-only", "trace-and-metrics"],
)
def test_recorder_never_materializes_flow_results(monkeypatch, obs_kw):
    """Tracing (or metrics) must not trip the eager per-flow dataclass
    path — only completion callbacks pay for materialization."""
    calls = {"n": 0}
    orig = SliceSimulator._make_flow_result

    def counting(self, g):
        calls["n"] += 1
        return orig(self, g)

    monkeypatch.setattr(SliceSimulator, "_make_flow_result", counting)
    sim = _make_sim("fvdf", Observability(**obs_kw))
    sim.submit_many(_generated_coflows(seed=9, num_coflows=6))
    res = sim.run()
    assert calls["n"] == 0
    # ... and the lazy results still materialize on demand afterwards.
    assert len(list(res.flow_results)) > 0


# ----------------------------------------------------------- NPZ round-trip
class TestNpzRoundtrip:
    def _recorded_run(self):
        obs = _trace_obs()
        sim = _make_sim("fvdf", obs)
        sim.submit_many(_fb_coflows(seed=31, num_coflows=20))
        sim.run()
        return obs.recorder

    def test_save_load_preserves_jsonl(self, tmp_path):
        rec = self._recorded_run()
        path = tmp_path / "trace.npz"
        rec.save_npz(path)
        again = FlightRecorder.load_npz(path)
        a, b = io.StringIO(), io.StringIO()
        assert rec.dump_jsonl(a) == again.dump_jsonl(b) == len(rec)
        assert a.getvalue() == b.getvalue()
        assert again.counts() == rec.counts()

    def test_spill_clears_and_resumes(self, tmp_path):
        rec = FlightRecorder()
        for i in range(20):
            rec.add_arrivals(float(i), [i], [1])
        n = rec.spill_npz(tmp_path / "chunk0.npz")
        assert n == 20
        assert len(rec) == 0
        rec.add_arrivals(99.0, [99], [1])  # buffers still usable
        assert len(rec) == 1
        chunk = FlightRecorder.load_npz(tmp_path / "chunk0.npz")
        assert len(chunk) == 20


# ------------------------------------------------------------ JSONL export
def _oracle_jsonl(rec):
    """The per-record encode: decode each record, then ``json.dumps`` it."""
    return "".join(record_to_json(r) + "\n" for r in rec)


def _every_stream_recorder():
    """Every stream kind with interleaved ``emit`` records, an empty
    ``order`` batch, non-finite floats, ``t = -1.0`` and a retirement
    batch larger than the writer's chunk."""
    nan, inf = math.nan, math.inf
    big = 2 * recorder_mod._CHUNK + 3
    rec = FlightRecorder()
    rec.emit(-1.0, "master_order", coflow_ids=[3, 1])
    rec.add_arrivals(0.0, [1, 2], [3, big])
    rec.add_decision(
        0.0, mask_of({EventKind.ARRIVAL, EventKind.START}), 3, 2
    )
    rec.add_decision(0.0, 0, 0, 0)
    rec.add_order(0.0, np.array([1, 2, 3, 4]),
                  np.array([nan, inf, -inf, 1.5e300]),
                  np.array([2.0, 1.0, 4.0, 1e-10]))
    rec.add_order(0.1, np.array([]), np.array([]), np.array([]))
    rec.add_beta(0.1, np.array([7, 5, 6]))
    rec.add_rates(0.1, 3, nan, inf)
    rec.add_rates(0.1, 0, -0.0, -inf)
    rec.add_core_claims(0.1, [0, 2], [1, 3])
    rec.emit(0.1, "bus", topic="decision",
             kinds={EventKind.COMPLETION, EventKind.ARRIVAL})
    rec.add_jump(0.2, 4, mask_of({EventKind.COMPLETION}))
    rec.add_capacity(0.2, "ingress", 1, inf)
    rec.add_capacity(0.2, "egress", 0, nan)
    rec.add_capacity(0.25, "egress", 0, 1e-320)
    rec.add_cancel(0.3, 1, 2)
    rec.add_flow_completions(-1.0, np.arange(big) + 100,
                             np.full(big, 2))
    rec.add_coflow_completions(0.4, np.array([2]))
    rec.emit(0.4, "heartbeat", node=3, free_cores=2)
    return rec


def _dump_both_ways(rec, tmp_path):
    """``dump_jsonl`` to a handle and to a path; both texts must agree and
    both calls must return ``len(rec)``."""
    buf = io.StringIO()
    assert rec.dump_jsonl(buf) == len(rec)
    path = tmp_path / "trace.jsonl"
    assert rec.dump_jsonl(path) == len(rec)
    assert path.read_text(encoding="utf-8") == buf.getvalue()
    return buf.getvalue()


class TestJsonlExport:
    def test_columnar_writer_matches_per_record_encode(self, tmp_path):
        rec = _every_stream_recorder()
        kinds = {r.kind for r in rec}
        assert {"decision", "jump", "rates", "beta", "order", "core_claim",
                "arrival", "completion", "cancel", "capacity", "bus",
                "heartbeat", "master_order"} <= kinds
        assert _dump_both_ways(rec, tmp_path) == _oracle_jsonl(rec)

    def test_npz_reload_matches_per_record_encode(self, tmp_path):
        rec = _every_stream_recorder()
        rec.save_npz(tmp_path / "rec.npz")
        again = FlightRecorder.load_npz(tmp_path / "rec.npz")
        text = _dump_both_ways(again, tmp_path)
        assert text == _oracle_jsonl(again) == _oracle_jsonl(rec)

    def test_spill_and_resume_match_per_record_encode(self, tmp_path):
        rec = _every_stream_recorder()
        expect = _oracle_jsonl(rec)
        assert rec.spill_npz(tmp_path / "chunk0.npz") > 0
        chunk = FlightRecorder.load_npz(tmp_path / "chunk0.npz")
        assert _dump_both_ways(chunk, tmp_path) == expect
        rec.add_order(0.5, np.array([9]), np.array([math.inf]),
                      np.array([math.inf]))
        rec.emit(0.5, "heartbeat", node=0, free_cores=1)
        rec.add_flow_completions(0.5, np.array([1, 2]), np.array([9, 9]))
        assert len(rec) == 4
        assert _dump_both_ways(rec, tmp_path) == _oracle_jsonl(rec)


#: Floats the writer must render as ``json.dumps`` does, bit for bit:
#: signed zeros, NaN (any payload), ±inf, subnormals and anything else.
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, -5e-324, 2.2250738585072014e-308, 1.2, 1e300]),
    st.floats(),
)


_APPENDS = (
    "add_order", "add_flow_completions", "add_arrivals", "add_core_claims",
    "add_coflow_completions", "add_beta", "add_decision", "add_jump",
    "add_rates", "add_cancel", "add_capacity",
)


@st.composite
def _recordings(draw):
    """A chunk size and a list of ``(method, args, kwargs)`` appends over
    every stream.  Float columns draw from a pool of a few values, so a
    chunk holds many repeats and, in about half the pools, both signed
    zeros (one value, two bit patterns)."""
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
    pool += draw(st.sampled_from([[], [0.0, -0.0]]))
    floats = st.sampled_from(pool)
    nonzero = st.sampled_from([x for x in pool if x != 0.0] or [1.2])
    ints = st.integers(-(2**40), 2**40)
    small = st.integers(0, 63)

    def col(elems, n, dtype=np.int64):
        return np.array(draw(st.lists(elems, min_size=n, max_size=n)),
                        dtype=dtype)

    def args(method, t, n):
        if method == "add_order":
            return t, col(ints, n), col(floats, n, float), col(nonzero, n, float)
        if method in ("add_flow_completions", "add_arrivals", "add_core_claims"):
            return t, col(ints, n), col(ints, n)
        if method in ("add_coflow_completions", "add_beta"):
            return t, col(ints, n)
        if method == "add_decision":
            return t, draw(small), draw(ints), draw(ints)
        if method == "add_jump":
            return t, draw(ints), draw(small)
        if method == "add_rates":
            return t, draw(ints), draw(floats), draw(floats)
        if method == "add_cancel":
            return t, draw(ints), draw(ints)
        side = draw(st.sampled_from(["ingress", "egress"]))
        return t, side, draw(ints), draw(floats)  # add_capacity

    ops = []
    for _ in range(draw(st.integers(1, 10))):
        method = draw(st.sampled_from(_APPENDS + ("emit",)))
        t = draw(floats)
        if method == "emit":
            ops.append((method, (t, "heartbeat"),
                        {"node": draw(ints), "load": draw(floats)}))
        else:
            ops.append((method, args(method, t, draw(st.integers(0, 9))), {}))
    return draw(st.sampled_from([1, 2, 3, recorder_mod._CHUNK])), ops


@given(_recordings())
@example((recorder_mod._CHUNK, [(
    "add_order",
    (0.0, np.array([1, 2, 3, 4]), np.array([0.0, -0.0, 0.0, -0.0]),
     np.array([1.0, 1.0, -1.0, math.nan])),
    {},
)]))
@settings(max_examples=150, deadline=None)
def test_writer_matches_per_record_encode_on_any_columns(recording):
    """The writer renders a float column of one bit pattern once per
    chunk; whatever the columns hold, its bytes equal the per-record
    encode."""
    chunk, ops = recording
    rec = FlightRecorder()
    for method, args, kwargs in ops:
        getattr(rec, method)(*args, **kwargs)
    with mock.patch.object(recorder_mod, "_CHUNK", chunk):
        buf = io.StringIO()
        assert rec.dump_jsonl(buf) == len(rec)
    assert buf.getvalue() == _oracle_jsonl(rec)


def test_zero_priority_class_fails_where_recorded():
    """``gamma/P`` is undefined at ``P = 0``: ``add_order`` refuses the
    batch, naming the unit, rather than journaling a row that every
    later decode or export would fail on."""
    rec = FlightRecorder()
    with pytest.raises(ValueError, match=r"unit 1 \(coflow 8\).*P = 0"):
        rec.add_order(0.0, np.array([7, 8]), np.array([1.0, 2.0]),
                      np.array([1.2, -0.0]))
    assert rec.batches == 0 and len(rec) == 0
    rec.add_order(0.0, np.array([7]), np.array([1.0]), np.array([1e-320]))
    buf = io.StringIO()
    rec.dump_jsonl(buf)
    assert buf.getvalue() == _oracle_jsonl(rec)
    assert '"units":[[7,1.0,1e-320,Infinity]]' in buf.getvalue()
