"""The columnar flight recorder decodes to the legacy tracer stream.

:class:`repro.obs.recorder.FlightRecorder` accepts whole event batches as
ndarray columns; everything observable about it must match the per-record
:class:`repro.obs.trace.Tracer` a run with tracing enabled would have
produced — same kinds, same payloads, same order.  Covered here:

* unit append/decode per columnar stream, plus the ``emit`` fallback;
* engine-level equivalence: recorder-attached runs decode record for
  record identical to tracer-attached runs (generated and FB-synthesized
  workloads, cancellation, ``run(until=...)`` resume with mid-run
  ``submit_many``, and a hypothesis sweep over tied retirement
  boundaries);
* the tee: tracer and recorder attached together see the same stream;
* eager gating: a recorder never forces per-flow result dataclass
  materialization (that is its whole point);
* ring-buffer truncation (``keep_last``) and drop accounting;
* NPZ round-trip and JSONL export fidelity.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExperimentSetup
from repro.core.events import EventKind
from repro.core.simulator import SliceSimulator
from repro.obs import NULL_RECORDER, Observability
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceRecord
from repro.schedulers import make_scheduler
from repro.traces.distributions import ConstantSize
from repro.traces.facebook import synthesize
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import mbps


def _make_sim(policy, obs, num_ports=6, bandwidth=mbps(100), slice_len=0.01):
    setup = ExperimentSetup(
        num_ports=num_ports, bandwidth=bandwidth, slice_len=slice_len
    )
    scheduler = make_scheduler(policy)
    base = setup.build_simulator(scheduler)
    return SliceSimulator(
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


def _tracer_obs():
    return Observability(trace=True, metrics=False)


def _recorder_obs(**kw):
    return Observability(trace=False, metrics=False, record=True, **kw)


# ------------------------------------------------------ unit append/decode
class TestUnitDecode:
    def test_scalar_streams_roundtrip(self):
        rec = FlightRecorder()
        kinds = {EventKind.ARRIVAL, EventKind.COMPLETION}
        rec.add_decision(0.5, kinds, 7, 3)
        rec.add_jump(0.5, 4, {EventKind.START})
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
        rec.add_decision(0.1, set(), 1, 1)
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

    def test_keep_last_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(keep_last=0)


# --------------------------------------------------- engine equivalence
def _run_both(policy, coflows):
    obs_tr, obs_rec = _tracer_obs(), _recorder_obs()
    for obs in (obs_tr, obs_rec):
        sim = _make_sim(policy, obs)
        sim.submit_many(coflows)
        sim.run()
    return obs_tr.tracer.records, list(obs_rec.recorder)


@pytest.mark.parametrize("policy", ["fvdf", "fvdf-flow", "sebf", "fair"])
@pytest.mark.parametrize("workload", ["generated", "fb"])
def test_decoded_stream_matches_tracer(policy, workload):
    coflows = (
        _generated_coflows() if workload == "generated" else _fb_coflows()
    )
    traced, decoded = _run_both(policy, coflows)
    assert decoded == traced


def test_decoded_stream_matches_tracer_with_cancel_and_resume():
    """Cancellation, a run(until=...) horizon and mid-run submit_many all
    hit recorder hook sites outside the steady-state loop."""
    first = _generated_coflows(seed=19, num_coflows=10)
    late = _generated_coflows(seed=6, num_coflows=4)
    for c in late:
        c.arrival += 1.6

    def drive(obs):
        sim = _make_sim("fvdf", obs)
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

    obs_tr, obs_rec = _tracer_obs(), _recorder_obs()
    drive(obs_tr)
    drive(obs_rec)
    decoded = list(obs_rec.recorder)
    assert "cancel" in {r.kind for r in decoded}
    assert decoded == obs_tr.tracer.records


def test_decoded_stream_matches_tracer_with_capacity_changes():
    coflows = _generated_coflows(seed=23, num_coflows=8)

    def drive(obs):
        sim = _make_sim("fvdf", obs)
        sim.submit_many(coflows)
        sim.schedule_capacity_change(0.3, "egress", 1, mbps(50))
        sim.run()

    obs_tr, obs_rec = _tracer_obs(), _recorder_obs()
    drive(obs_tr)
    drive(obs_rec)
    assert list(obs_rec.recorder) == obs_tr.tracer.records


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
    completion stream the tracer logs."""
    cfg = WorkloadConfig(
        num_coflows=num_coflows, num_ports=4,
        size_dist=ConstantSize(5e5), width=(1, max_width),
        arrival_rate=200.0,
    )
    coflows = generate_workload(cfg, np.random.default_rng(seed))
    obs_tr, obs_rec = _tracer_obs(), _recorder_obs()
    for obs in (obs_tr, obs_rec):
        sim = _make_sim(policy, obs, num_ports=4)
        sim.submit_many(coflows)
        sim.run()
    assert list(obs_rec.recorder) == obs_tr.tracer.records


def test_tee_feeds_both_sinks_identically():
    """trace=True + record=True attaches both: the tracer logs the legacy
    stream and the recorder independently decodes to the same one."""
    obs = Observability(trace=True, metrics=False, record=True)
    sim = _make_sim("fvdf", obs)
    sim.submit_many(_generated_coflows(seed=3, num_coflows=8))
    sim.run()
    assert obs.tracer.enabled and obs.recorder.enabled
    assert len(obs.tracer.records) > 0
    assert list(obs.recorder) == obs.tracer.records


def test_to_tracer_feeds_existing_consumers():
    obs = _recorder_obs()
    sim = _make_sim("sebf", obs)
    sim.submit_many(_generated_coflows(seed=5, num_coflows=6))
    sim.run()
    tr = obs.recorder.to_tracer()
    assert tr.records == list(obs.recorder)
    buf = io.StringIO()
    assert tr.dump_jsonl(buf) == len(tr.records)


# ------------------------------------------------------------ eager gating
@pytest.mark.parametrize(
    "obs_kw",
    [
        {"trace": False, "metrics": False, "record": True},
        {"trace": False, "metrics": True},
    ],
    ids=["recorder-only", "metrics-only"],
)
def test_recorder_never_materializes_flow_results(monkeypatch, obs_kw):
    """Attaching a recorder (or metrics) must not trip the eager
    per-flow dataclass path — only per-record consumers (tracer,
    completion callbacks) pay for materialization."""
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


def test_tracer_still_materializes(monkeypatch):
    calls = {"n": 0}
    orig = SliceSimulator._make_flow_result

    def counting(self, g):
        calls["n"] += 1
        return orig(self, g)

    monkeypatch.setattr(SliceSimulator, "_make_flow_result", counting)
    sim = _make_sim("fvdf", _tracer_obs())
    sim.submit_many(_generated_coflows(seed=9, num_coflows=6))
    sim.run()
    assert calls["n"] > 0


# -------------------------------------------------------------- ring mode
class TestRingBuffer:
    def test_keep_last_truncates_to_suffix(self):
        full = FlightRecorder()
        ring = FlightRecorder(keep_last=10)
        for i in range(100):
            for rec in (full, ring):
                rec.add_arrivals(float(i), [i], [1])
        assert ring.batches == 10
        assert list(ring) == list(full)[-10:]
        assert ring.dropped_batches == 90
        assert ring.dropped_records == 90

    def test_ring_spans_streams_and_misc(self):
        ring = FlightRecorder(keep_last=6)
        expect = []
        for i in range(60):
            ring.add_decision(float(i), {EventKind.START}, i, 1)
            expect.append(TraceRecord(
                float(i), "decision",
                {"kinds": {EventKind.START}, "n_flows": i, "n_coflows": 1},
            ))
            ring.emit(float(i), "heartbeat", node=i)
            expect.append(TraceRecord(float(i), "heartbeat", {"node": i}))
            ring.add_beta(float(i), [i, i + 1])
            expect.append(TraceRecord(float(i), "beta",
                                      {"flow_ids": [i, i + 1]}))
        assert list(ring) == expect[-6:]
        summary = ring.summary()
        assert summary["batches"] == 6
        assert summary["dropped_batches"] == 3 * 60 - 6

    def test_engine_run_under_ring_keeps_tail(self):
        coflows = _generated_coflows(seed=13, num_coflows=10)
        obs_full, obs_ring = _recorder_obs(), _recorder_obs(keep_last=25)
        for obs in (obs_full, obs_ring):
            sim = _make_sim("fvdf", obs)
            sim.submit_many(coflows)
            sim.run()
        full = list(obs_full.recorder)
        tail = list(obs_ring.recorder)
        assert obs_ring.recorder.batches == 25
        assert tail == full[len(full) - len(tail):]
        assert obs_ring.recorder.dropped_batches > 0


# ----------------------------------------------------------- NPZ round-trip
class TestNpzRoundtrip:
    def _recorded_run(self):
        obs = _recorder_obs()
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

    def test_ring_save_drops_only_dead_batches(self, tmp_path):
        ring = FlightRecorder(keep_last=5)
        for i in range(30):
            ring.add_arrivals(float(i), [i], [1])
        live = list(ring)
        ring.save_npz(tmp_path / "ring.npz")
        again = FlightRecorder.load_npz(tmp_path / "ring.npz")
        assert list(again) == live
        assert again.dropped_batches == ring.dropped_batches


# ------------------------------------------------- ring-mode edge cases
def _journal_invariants(rec):
    """Every live batch must reference live rows of its stream."""
    jl = rec._journal
    jc = jl.cols
    for i in range(jl.head, jl.n):
        code = int(jc["stream"][i])
        a = int(jc["start"][i])
        b = a + int(jc["count"][i])
        if code == 10:  # _MISC: starts index the fallback list
            assert rec._misc_head <= a < len(rec._misc)
            continue
        st = rec._streams[code]
        assert st.head <= a <= b <= st.n, (
            f"batch {i} of stream {code}: [{a}, {b}) outside "
            f"live [{st.head}, {st.n})"
        )


class TestRingEdgeCases:
    """Empty batches and compaction-on-a-boundary must not corrupt the
    rebased journal: decode must always equal the legacy stream suffix."""

    def test_empty_order_batches_decode_to_empty_units(self):
        # Tracer parity: fvdf emits an ``order`` record even with no
        # rankable units, so an empty batch journals one record.
        rec = FlightRecorder()
        rec.add_order(0.1, np.array([]), np.array([]), np.array([]))
        assert list(rec) == [TraceRecord(0.1, "order", {"units": []})]
        assert rec.counts() == {"order": 1}
        assert len(rec) == 1

    def test_empty_batches_survive_ring_drops_and_compaction(self):
        # Interleave empty order batches (start == n, zero rows) with
        # batches large enough to force both ensure() paths (dead-prefix
        # compaction and growth) under an aggressive ring bound.
        rec = FlightRecorder(keep_last=3)
        expect = []
        for i in range(40):
            k = [0, 33, 0, 64][i % 4]
            rec.add_order(float(i), np.arange(k), np.full(k, 2.0),
                          np.ones(k))
            expect.append(TraceRecord(
                float(i), "order",
                {"units": [[int(j), 2.0, 1.0, 2.0] for j in range(k)]},
            ))
            _journal_invariants(rec)
        got = list(rec)
        assert got == expect[rec.dropped_records:]
        assert len(rec) == len(got) == 3

    def test_compaction_exactly_on_batch_boundary(self):
        # Batch sizes chosen so drops leave the dead prefix ending
        # exactly at a batch start and appends exactly fill the 64-row
        # initial buffer; enumerate alignments exhaustively.
        import itertools

        sizes = (0, 16, 33, 64)
        for keep in (1, 2):
            for seq in itertools.product(sizes, repeat=4):
                rec = FlightRecorder(keep_last=keep)
                expect = []
                for t, k in enumerate(seq):
                    rec.add_order(float(t), np.arange(k),
                                  np.full(k, 2.0), np.ones(k))
                    expect.append(TraceRecord(
                        float(t), "order",
                        {"units": [[int(j), 2.0, 1.0, 2.0]
                                   for j in range(k)]},
                    ))
                    _journal_invariants(rec)
                assert list(rec) == expect[rec.dropped_records:], (
                    f"keep={keep} seq={seq}"
                )

    def test_ring_decode_matches_tracer_suffix_fuzz(self):
        # Mixed-stream fuzz: per-row, batch-record, scalar, and fallback
        # appends mirrored against the records a Tracer would hold, with
        # the ring dropping most of the stream.
        import random

        def one(rec, expect, op, t, rng):
            if op == "arrival":
                k = rng.choice([0, 1, 17])
                rec.add_arrivals(t, list(range(k)), [2] * k)
                expect.extend(
                    TraceRecord(t, "arrival", {"coflow_id": i, "n_flows": 2})
                    for i in range(k)
                )
            elif op == "order":
                k = rng.choice([0, 0, 9])
                rec.add_order(t, np.arange(k), np.full(k, 2.0), np.ones(k))
                expect.append(TraceRecord(
                    t, "order",
                    {"units": [[int(i), 2.0, 1.0, 2.0] for i in range(k)]},
                ))
            elif op == "decision":
                rec.add_decision(t, {EventKind.START}, 3, 1)
                expect.append(TraceRecord(
                    t, "decision",
                    {"kinds": {EventKind.START}, "n_flows": 3,
                     "n_coflows": 1},
                ))
            elif op == "misc":
                rec.emit(t, "heartbeat", x=int(t))
                expect.append(TraceRecord(t, "heartbeat", {"x": int(t)}))
            else:  # flow completions
                k = rng.choice([0, 11])
                rec.add_flow_completions(t, np.arange(k), np.arange(k))
                expect.extend(
                    TraceRecord(t, "completion",
                                {"flow_id": i, "coflow_id": i})
                    for i in range(k)
                )

        ops = ["arrival", "order", "decision", "misc", "flow"]
        for seed in range(25):
            rng = random.Random(seed)
            rec = FlightRecorder(keep_last=rng.choice([1, 2, 5, 20]))
            expect = []
            for s in range(rng.choice([8, 60, 400])):
                one(rec, expect, rng.choice(ops), float(s), rng)
            got = list(rec)
            assert got == expect[rec.dropped_records:], f"seed={seed}"
            assert sum(rec.counts().values()) == len(got)
            _journal_invariants(rec)

    def test_misc_journal_compaction_crossing(self, tmp_path):
        # The fallback list compacts once 1024 dead records accumulate;
        # decode, counts, and the NPZ round-trip must all survive the
        # crossing (and the list must stay bounded).
        rec = FlightRecorder(keep_last=3)
        expect = []
        for i in range(2600):
            rec.emit(float(i), "bus", node=i)
            expect.append(TraceRecord(float(i), "bus", {"node": i}))
        got = list(rec)
        assert got == expect[rec.dropped_records:]
        assert len(rec._misc) < 2048  # bounded, not stream-length
        _journal_invariants(rec)
        rec.save_npz(tmp_path / "misc.npz")
        again = FlightRecorder.load_npz(tmp_path / "misc.npz")
        assert list(again) == got
