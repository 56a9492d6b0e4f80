"""Observability layer: trace records, metrics, profiler, JSONL round-trip."""

import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import (
    decision_timeline,
    iter_trace,
    kinds_at,
    read_trace,
    trace_summary,
)
from repro.errors import ProtocolError, ReproError
from repro.obs import NULL_OBS, NULL_PROFILER, NULL_RECORDER, Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceRecord, record_from_json, record_to_json
from repro.scenarios import run_motivating_example
from repro.schedulers import make_scheduler
from repro.swallow.transport import MessageBus


class TestTracer:
    def test_emit_and_query(self):
        rec = FlightRecorder()
        rec.emit(0.0, "decision", kinds={"ARRIVAL"}, n_flows=2)
        rec.emit(0.5, "completion", flow_id=7)
        rec.emit(0.5, "arrival", coflow_id=1)
        assert len(rec) == 3
        records = list(rec)
        assert records[1] == TraceRecord(0.5, "completion", {"flow_id": 7})
        assert kinds_at(records, 0.5) == {"completion", "arrival"}
        assert rec.counts() == {"decision": 1, "completion": 1, "arrival": 1}
        assert trace_summary(records) == rec.counts()

    def test_null_tracer_records_nothing(self):
        NULL_RECORDER.emit(0.0, "decision")
        assert len(NULL_RECORDER) == 0
        assert not NULL_RECORDER.enabled

    def test_json_round_trip_coerces_types(self):
        from repro.core.events import EventKind

        rec = TraceRecord(
            0.25,
            "decision",
            {"kinds": {EventKind.ARRIVAL, EventKind.COMPLETION},
             "n_flows": np.int64(3)},
        )
        line = record_to_json(rec)
        back = record_from_json(line)
        assert back.t == 0.25
        assert back.kind == "decision"
        assert back.data["kinds"] == ["ARRIVAL", "COMPLETION"]
        assert back.data["n_flows"] == 3
        # the line itself is plain JSON
        assert json.loads(line)["kind"] == "decision"


class TestMetrics:
    def test_counter_gauge_histogram(self):
        mx = MetricsRegistry()
        mx.counter("c").inc()
        mx.counter("c").inc(2.5)
        mx.gauge("g").set(7)
        for v in (1.0, 3.0):
            mx.histogram("h").observe(v)
        assert mx.value("c") == 3.5
        assert mx.value("g") == 7.0
        h = mx.histogram("h")
        assert h.count == 2 and h.mean == 2.0 and h.min == 1.0 and h.max == 3.0
        snap = mx.as_dict()
        assert snap["c"] == 3.5
        assert snap["h"]["count"] == 2
        assert "c: 3.5" in mx.render()

    def test_type_conflict_raises(self):
        mx = MetricsRegistry()
        mx.counter("x")
        with pytest.raises(TypeError):
            mx.gauge("x")

    def test_disabled_registry_is_noop(self):
        mx = MetricsRegistry(enabled=False)
        mx.counter("c").inc(10)
        mx.histogram("h").observe(1.0)
        assert mx.names() == []
        assert mx.value("c") == 0.0


class TestProfiler:
    def test_sections_accumulate(self):
        prof = Profiler()
        with prof.section("work"):
            pass
        prof.add("work", 0.5)
        stats = prof.stats("work")
        assert stats.count == 2
        assert stats.total >= 0.5
        assert "work" in prof.report()

    def test_null_profiler(self):
        with NULL_PROFILER.section("x"):
            pass
        assert not NULL_PROFILER.enabled
        assert NULL_PROFILER.report() == "(no sections profiled)"


class TestObservabilityBundle:
    def test_defaults(self):
        obs = Observability()
        assert obs.recorder.enabled and obs.metrics.enabled
        assert not obs.profiler.enabled
        assert obs.enabled
        assert obs.tracer is obs.recorder  # read-only alias

    def test_null_obs_disabled(self):
        assert not NULL_OBS.enabled
        assert not NULL_OBS.recorder.enabled
        assert not NULL_OBS.metrics.enabled
        assert not NULL_OBS.profiler.enabled


class TestEngineTracing:
    def test_run_emits_records_and_metrics(self):
        obs = Observability(profile=True)
        res = run_motivating_example(make_scheduler("fvdf"), obs=obs)
        counts = obs.recorder.counts()
        # every decision point produced decision/order/rates/jump records
        assert counts["decision"] == res.decision_points
        assert counts["order"] == res.decision_points
        assert counts["jump"] == res.decision_points
        assert counts["arrival"] == 2
        # 5 flow completions + 2 coflow completions
        assert counts["completion"] == 7
        assert obs.metrics.value("engine.decisions") == res.decision_points
        assert obs.metrics.value("engine.completions") == 2
        assert obs.metrics.histogram("engine.decision_latency").count == res.decision_points
        assert obs.metrics.value("engine.bytes_sent") == pytest.approx(
            res.total_bytes_sent
        )
        assert obs.profiler.stats("schedule").count == res.decision_points
        assert obs.profiler.stats("integrate").count == res.decision_points

    def test_results_identical_with_and_without_obs(self):
        res_plain = run_motivating_example(make_scheduler("fvdf"))
        res_obs = run_motivating_example(
            make_scheduler("fvdf"), obs=Observability(profile=True)
        )
        assert res_obs.avg_cct == res_plain.avg_cct
        assert res_obs.avg_fct == res_plain.avg_fct
        assert res_obs.decision_points == res_plain.decision_points

    def test_jsonl_round_trip_through_analysis_reader(self, tmp_path):
        obs = Observability()
        run_motivating_example(make_scheduler("fvdf"), obs=obs)
        path = tmp_path / "run.jsonl"
        n = obs.recorder.dump_jsonl(str(path))
        assert n == len(obs.recorder)
        records = read_trace(str(path))
        assert len(records) == n
        assert trace_summary(records) == obs.recorder.counts()
        decisions = decision_timeline(records)
        assert decisions[0].data["kinds"] == ["ARRIVAL", "START"]
        # kinds_at agrees on the file and the in-memory recorder
        t0 = decisions[0].t
        assert "decision" in kinds_at(records, t0)
        assert kinds_at(records, t0) == kinds_at(list(obs.recorder), t0)
        # streaming reader agrees with the batch reader
        assert list(iter_trace(str(path))) == records

    def test_reader_rejects_malformed_lines(self, tmp_path):
        # Not JSON; then JSON that is not a record: an array, a bare
        # string, a non-numeric ``t``, a non-string ``kind``.
        path = tmp_path / "bad.jsonl"
        for line in ('not json', '[1,2]', '"str"', '{"t": null, "kind": "x"}',
                     '{"t": 0.0, "kind": 3}'):
            path.write_text('{"t": 0.0, "kind": "decision"}\n' + line + "\n")
            with pytest.raises(ReproError, match="line 2"):
                read_trace(str(path))

    def test_dump_to_handle(self):
        rec = FlightRecorder()
        rec.emit(0.0, "arrival", coflow_id=0)
        buf = io.StringIO()
        assert rec.dump_jsonl(buf) == 1
        assert read_trace(io.StringIO(buf.getvalue()))[0].kind == "arrival"


class TestBusObservability:
    def test_publish_counts_per_topic(self):
        obs = Observability()
        bus = MessageBus(obs=obs)
        bus.subscribe("a", lambda m: None)
        bus.publish("a", 1)
        bus.publish("a", 2)
        assert obs.metrics.value("bus.messages.a") == 2
        recs = [r for r in obs.recorder if r.kind == "bus"]
        assert len(recs) == 2
        assert recs[0].data["topic"] == "a"
        assert recs[0].t == -1.0  # no clock attached

    def test_clock_stamps_records(self):
        obs = Observability()
        bus = MessageBus(obs=obs)
        bus.clock = lambda: 4.5
        bus.subscribe("a", lambda m: None)
        bus.publish("a", 1)
        [rec] = list(bus.obs.recorder)
        assert rec.kind == "bus" and rec.t == 4.5


class TestCliTrace:
    def test_trace_fig4_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fig4.jsonl"
        assert main(["trace", "fig4", "--policy", "fvdf",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace records" in printed
        assert "engine.decisions" in printed
        records = read_trace(str(out))
        summary = trace_summary(records)
        assert summary["decision"] >= 1
        assert summary["completion"] >= 1

    def test_trace_synthetic_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["trace", "synthetic", "--coflows", "4", "--ports", "4",
                     "--policy", "sebf", "--out", "-", "--profile"]) == 0
        out = capsys.readouterr().out
        assert '"kind":"decision"' in out
        assert "hot sections" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["fig4", "--policy", "fvdf"],
             "9acbc9eda9d29ac13e40288b91e4d7ee62aea25244679e937c16067c023881bb"),
            (["synthetic", "--coflows", "20", "--policy", "fvdf-flow"],
             "19b389ed1e286e06ad799ed8a84ed7233d098c3c080048ad61b0003cdb350498"),
        ],
        ids=["fig4-fvdf", "synthetic-fvdf-flow"],
    )
    def test_trace_jsonl_bytes_are_pinned(self, tmp_path, argv, digest):
        """The exact ``--out`` bytes: record order, payload keys and float
        rendering all stay put.  A fresh process, because coflow and flow
        ids come from process-global counters."""
        out = tmp_path / "run.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
