"""The live telemetry plane: bucketed histograms, rolling-window rates,
Prometheus exposition, plane health/endpoints, and the `repro top` frame.

The plane's contract has four load-bearing edges, each pinned here:

* histogram buckets are fixed-boundary and cumulative-renderable, and
  their typed dumps merge losslessly (pool workers + streamed runs fold
  into one registry without losing bucket detail);
* the rolling window's rates are the windowed counter deltas divided by
  the windowed wall time — checked against hand-computed ticks;
* `/healthz` tracks the watchdog (a stalled driver turns 503, a cleanly
  finished one stays 200), `/readyz` flips on the first tick, and every
  endpoint answers while the driver thread is mid-tick;
* `render_dashboard` is a pure snapshot-dict → string function, so one
  `repro top --once` frame is pinned without a socket in sight.
"""

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.analysis import ExperimentSetup
from repro.obs import Observability
from repro.obs.exposition import (
    SNAPSHOT_SCHEMA,
    TelemetryPlane,
    render_prometheus,
)
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.top import render_dashboard
from repro.obs.window import STREAM_RATE_KEYS, RollingWindow
from repro.schedulers import make_scheduler
from repro.service import SourceSpec, StreamDriver
from repro.traces.distributions import ConstantSize
from repro.units import KB, mbps

SETUP = ExperimentSetup(num_ports=4, bandwidth=mbps(100), slice_len=0.01)


def _driver(*, obs=None, **kw):
    spec = SourceSpec(
        rate=40.0, num_ports=4, width=(1, 3),
        size_dist=ConstantSize(200 * KB), seed=5, limit=30,
    )
    sim = SETUP.build_simulator(make_scheduler("fvdf-flow"), obs=obs)
    kw.setdefault("tick", 0.2)
    return StreamDriver(sim, spec.build(), setup=SETUP, source_spec=spec, **kw)


class TestBucketedHistogram:
    def test_le_semantics_and_overflow(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(v)
        # bounds get +inf appended; a value equal to a bound lands in it.
        assert h.bounds == (1.0, 10.0, math.inf)
        assert h.buckets == [2, 2, 1]
        assert h.count == 5 and h.min == 0.5 and h.max == 11.0

    def test_default_bounds_log_spaced_and_clean(self):
        assert DEFAULT_BUCKETS[0] == 1e-06
        assert DEFAULT_BUCKETS[-1] == math.inf
        assert 2.5e-06 in DEFAULT_BUCKETS and 0.25 in DEFAULT_BUCKETS
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        # Bounds are parsed decimals, not accumulated products — the
        # exposition `le` labels must not read 2.4999999999999998e-06.
        assert all(
            len(repr(b)) <= 8 for b in DEFAULT_BUCKETS[:-1]
        ), DEFAULT_BUCKETS

    def test_quantiles_within_bucket_width(self):
        h = Histogram("h")
        for i in range(1, 101):
            h.observe(i / 1000.0)  # 1ms..100ms uniform
        s = h.summary()
        assert 0.025 <= s["p50"] <= 0.1
        assert s["p95"] >= s["p50"]
        assert s["p99"] <= s["max"] == 0.1
        assert s["p50"] >= s["min"] == 0.001

    def test_empty_summary_schema_matches_disabled(self):
        disabled = MetricsRegistry(enabled=False)
        assert Histogram("h").summary() == disabled.histogram("h").summary()
        assert disabled.histogram("h").quantile(0.5) == 0.0

    def test_dump_round_trip_lossless(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3.5)
        reg.gauge("g").set(7.0)
        h = reg.histogram("h", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        d = reg.dump()
        assert d["h"]["le"] == [0.1, 1.0]
        assert d["h"]["buckets"] == [1, 1, 1]
        assert len(d["h"]["buckets"]) == len(d["h"]["le"]) + 1
        # JSON-able (no bare infinities) and lossless through from_dump.
        restored = MetricsRegistry.from_dump(json.loads(json.dumps(d)))
        assert restored.dump() == d

    def test_merge_adds_buckets_elementwise(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for reg, vals in ((a, (0.05, 0.5)), (b, (0.5, 2.0))):
            h = reg.histogram("h", bounds=(0.1, 1.0))
            for v in vals:
                h.observe(v)
        a.merge(b.dump())
        h = a.histogram("h")
        assert h.buckets == [1, 2, 1]
        assert h.count == 4
        assert h.min == 0.05 and h.max == 2.0

    def test_merge_mismatched_bounds_raises(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", bounds=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="boundaries"):
            a.merge(b.dump())

    def test_merge_pre_bucket_dump_folds_moments_only(self):
        # A dump from before buckets existed has no "le": its moments
        # fold in, but no bucket detail can be invented for it.
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        a.merge({"h": {"type": "histogram", "count": 2, "sum": 6.0,
                       "min": 2.0, "max": 4.0, "mean": 3.0}})
        h = a.histogram("h")
        assert h.count == 3 and h.total == 6.5
        assert h.min == 0.5 and h.max == 4.0
        assert h.buckets == [1, 0]  # only the local observation is binned

    def test_merge_mixed_types_and_empty_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.counter("c").inc(2)
        b.gauge("g").set(5.0)
        b.histogram("h")  # registered, never observed
        a.counter("c").inc(1)
        a.gauge("g").set(9.0)
        a.merge(b.dump())
        assert a.counter("c").value == 3.0
        assert a.gauge("g").value == 9.0  # peak-seen semantics
        assert a.histogram("h").count == 0  # name registered, nothing folded
        assert "h" in a.names()

    def test_disabled_registry_ignores_merge(self):
        src = MetricsRegistry()
        src.counter("c").inc(5)
        dst = MetricsRegistry(enabled=False)
        dst.merge(src.dump())
        assert dst.dump() == {}


class TestRollingWindow:
    def test_rates_match_hand_computed_deltas(self):
        w = RollingWindow(capacity=8)
        w.prime({"flows_admitted": 100, "bytes_sent": 1000,
                 "bytes_original": 2000})
        w.push(0.5, {"flows_admitted": 130, "bytes_sent": 1500,
                     "bytes_original": 3000})
        w.push(1.5, {"flows_admitted": 200, "bytes_sent": 2500,
                     "bytes_original": 5000})
        # deltas: flows 30+70=100 over 2.0s wall; bytes 500+1000=1500.
        rates = w.rates()
        assert rates["flows_admitted"] == pytest.approx(50.0)
        assert rates["bytes_sent"] == pytest.approx(750.0)
        assert rates["restamped"] == pytest.approx(0.0)
        snap = w.snapshot()
        assert snap["ticks"] == 2
        assert snap["span_wall_s"] == pytest.approx(2.0)
        # window traffic reduction: 1 - 1500/3000 over the window.
        assert snap["traffic_reduction"] == pytest.approx(0.5)

    def test_ring_drops_oldest_beyond_capacity(self):
        w = RollingWindow(capacity=3, keys=("x",))
        w.prime({"x": 0})
        for i in range(1, 6):  # cumulative x = 1..5, one per tick
            w.push(1.0, {"x": i})
        assert len(w) == 3
        assert w.totals()["x"] == pytest.approx(3.0)  # last 3 deltas of 1
        assert w.span_wall_s == pytest.approx(3.0)

    def test_empty_and_zero_span_rates_are_none(self):
        w = RollingWindow(capacity=4)
        assert all(v is None for v in w.rates().values())
        assert w.snapshot()["traffic_reduction"] is None
        w.push(0.0, {k: 0 for k in STREAM_RATE_KEYS})
        assert all(v is None for v in w.rates().values())

    def test_unprimed_first_push_measures_from_zero(self):
        w = RollingWindow(capacity=4, keys=("x",))
        w.push(1.0, {"x": 7})
        assert w.totals()["x"] == pytest.approx(7.0)

    def test_tick_wall_percentiles_exact(self):
        w = RollingWindow(capacity=10, keys=("x",))
        for wall in (0.01, 0.02, 0.03, 0.04, 0.10):
            w.push(wall, {"x": 0})
        tw = w.tick_wall()
        assert tw["count"] == 5
        assert tw["min"] == 0.01 and tw["max"] == 0.10
        assert tw["p50"] == 0.03  # nearest rank on the sorted window
        assert tw["p95"] == 0.10
        assert tw["mean"] == pytest.approx(0.04)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RollingWindow(capacity=0)


class TestRenderPrometheus:
    def test_counter_gauge_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.counter("engine.decisions").inc(3)
        reg.gauge("stream.in_flight").set(42.5)
        h = reg.histogram("tick.wall_s", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE repro_engine_decisions_total counter" in lines
        assert "repro_engine_decisions_total 3" in lines
        assert "# TYPE repro_stream_in_flight gauge" in lines
        assert "repro_stream_in_flight 42.5" in lines
        # Cumulative buckets ending in +Inf == count, then sum and count.
        assert 'repro_tick_wall_s_bucket{le="0.1"} 1' in lines
        assert 'repro_tick_wall_s_bucket{le="1"} 2' in lines
        assert 'repro_tick_wall_s_bucket{le="+Inf"} 3' in lines
        assert "repro_tick_wall_s_sum 2.55" in lines
        assert "repro_tick_wall_s_count 3" in lines
        assert text.endswith("\n")

    def test_stream_window_and_extra_gauges(self):
        w = RollingWindow(capacity=4)
        w.push(2.0, {"flows_admitted": 10, "bytes_sent": 50,
                     "bytes_original": 100})
        text = render_prometheus(
            None,
            stream={"flows_done": 7, "policy": "fvdf", "wall_s": 1.25},
            window=w.snapshot(),
            extra_gauges={"repro_up": 1.0},
        )
        assert "repro_stream_flows_done 7" in text
        assert "policy" not in text  # non-numeric stream fields skipped
        assert "repro_window_flows_admitted_per_s 5" in text
        assert "repro_window_traffic_reduction 0.5" in text
        assert "repro_up 1" in text
        # Keys whose windowed rate exists render; None rates never do.
        assert "repro_window_spills_per_s 0" in text

    def test_empty_window_renders_no_rate_samples(self):
        text = render_prometheus(None, window=RollingWindow().snapshot())
        assert "_per_s" not in text
        assert "traffic_reduction" not in text

    def test_disabled_registry_contributes_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("engine.decisions").inc(3)
        assert render_prometheus(reg) == "\n"


class TestTelemetryPlane:
    def test_plane_off_driver_registers_zero_stream_instruments(self):
        d = _driver()
        d.run()
        assert d._plane is None
        assert not any(
            n.startswith("stream.") for n in d.sim.obs.metrics.names()
        )

    def test_registry_policy_never_mutates_disabled(self):
        d = _driver()  # NULL_OBS: disabled metrics
        plane = TelemetryPlane(d)
        assert plane.registry is not d.sim.obs.metrics
        assert plane.registry.enabled
        d2 = _driver(obs=Observability(trace=False, metrics=True))
        plane2 = TelemetryPlane(d2)
        assert plane2.registry is d2.sim.obs.metrics

    def test_on_tick_publishes_instruments_and_window(self):
        d = _driver()
        plane = TelemetryPlane(d)
        stats = d.run()
        assert stats.ticks > 0
        assert plane.ready and plane.finished and plane.healthy
        reg = plane.registry
        snap = plane.snapshot()
        assert snap["ticks"] == snap["stream"]["ticks"] == stats.ticks
        assert snap["in_flight"] == reg.value("stream.in_flight")
        assert snap["live_rows"] == reg.value("stream.live_rows")
        assert reg.histogram("stream.tick_wall_s").count == stats.ticks
        assert len(plane.window) == min(stats.ticks, plane.window.capacity)
        # Windowed lifetime == stream lifetime on a short run.
        assert plane.window.totals()["flows_admitted"] == stats.flows_submitted
        assert plane.window.totals()["coflows_retired"] == stats.coflows_done

    def test_watchdog_health_transitions(self):
        d = _driver()
        plane = TelemetryPlane(d, watchdog_s=0.5)
        assert not plane.ready
        assert plane.healthy  # within the watchdog of plane creation
        plane.started_mono -= 1.0  # never ticked, watchdog elapsed
        assert not plane.healthy
        plane.on_tick(0.01)  # a tick lands: ready + healthy again
        assert plane.ready and plane.healthy
        plane._last_tick_mono -= 1.0  # stalled mid-stream
        assert not plane.healthy
        plane.on_finish()  # clean completion overrides the watchdog
        assert plane.healthy

    def test_watchdog_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryPlane(_driver(), watchdog_s=0.0)

    def test_snapshot_schema_and_consistency(self):
        d = _driver()
        plane = TelemetryPlane(d)
        stats = d.run()
        snap = plane.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA == "repro-live-v1"
        assert snap["policy"] == "fvdf-flow"
        assert snap["ticks"] == stats.ticks
        assert snap["finished"] and snap["ready"] and snap["healthy"]
        assert snap["stream"] == d.stats.as_dict()
        assert snap["window"]["ticks"] == len(plane.window)
        assert snap["last_tick_age_s"] >= 0.0
        json.dumps(snap)  # the /snapshot body must be JSON-able

    def test_http_endpoints_end_to_end(self):
        d = _driver()
        plane = TelemetryPlane(d)
        port = plane.start(0)
        base = f"http://127.0.0.1:{port}"
        try:
            # Before the first tick: alive but not ready.
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(base + "/readyz", timeout=5)
            assert exc.value.code == 503
            d.run()
            with urllib.request.urlopen(base + "/metrics", timeout=5) as r:
                assert r.status == 200
                assert "version=0.0.4" in r.headers["Content-Type"]
                text = r.read().decode()
            assert "# TYPE repro_stream_in_flight gauge" in text
            assert 'repro_stream_tick_wall_s_bucket{le="+Inf"}' in text
            assert "repro_ready 1" in text
            # Valid exposition: every sample name+labelset appears once
            # (a duplicate fails the whole Prometheus scrape).
            keys = [
                l.rsplit(" ", 1)[0] for l in text.splitlines()
                if l and not l.startswith("#")
            ]
            assert len(keys) == len(set(keys))
            with urllib.request.urlopen(base + "/snapshot", timeout=5) as r:
                snap = json.loads(r.read().decode())
            assert snap["schema"] == "repro-live-v1"
            with urllib.request.urlopen(base + "/healthz", timeout=5) as r:
                assert json.loads(r.read().decode())["healthy"] is True
            with urllib.request.urlopen(base + "/readyz", timeout=5) as r:
                assert json.loads(r.read().decode())["ready"] is True
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(base + "/nope", timeout=5)
            assert exc.value.code == 404
        finally:
            plane.stop()
        assert not plane.serving
        plane.stop()  # idempotent

    def test_endpoints_answer_from_inside_a_tick(self):
        """The plane serves while the driver thread is mid-tick: a
        decision hook fetches every endpoint once, after the first tick
        and while the source still has coflows to admit."""
        d = _driver()
        plane = TelemetryPlane(d)
        base = f"http://127.0.0.1:{plane.start(0)}"
        probe = {}

        def fetch(now):
            if probe or not plane.ready or d.exhausted():
                return
            probe["ticks"] = d.stats.ticks
            for path in ("/metrics", "/snapshot", "/healthz"):
                with urllib.request.urlopen(base + path, timeout=5) as r:
                    probe[path] = (r.status, r.read().decode())

        d.sim.on_decision(fetch)
        try:
            stats = d.run()
        finally:
            plane.stop()
        assert 1 <= probe["ticks"] < stats.ticks
        assert all(probe[p][0] == 200 for p in ("/metrics", "/snapshot", "/healthz"))
        text = probe["/metrics"][1]
        assert "# TYPE repro_stream_in_flight gauge" in text
        assert "repro_ready 1" in text
        keys = [
            l.rsplit(" ", 1)[0] for l in text.splitlines()
            if l and not l.startswith("#")
        ]
        assert len(keys) == len(set(keys))
        snap = json.loads(probe["/snapshot"][1])
        assert snap["schema"] == "repro-live-v1"
        assert snap["ready"] and not snap["finished"]
        assert json.loads(probe["/healthz"][1])["healthy"] is True

    def test_start_twice_raises(self):
        plane = TelemetryPlane(_driver())
        plane.start(0)
        try:
            with pytest.raises(RuntimeError):
                plane.start(0)
        finally:
            plane.stop()


class TestDashboard:
    def test_one_shot_frame_from_live_snapshot(self):
        d = _driver()
        plane = TelemetryPlane(d)
        d.run()
        frame = render_dashboard(plane.snapshot(), color=False)
        assert frame.startswith("repro top")
        assert "policy fvdf-flow" in frame
        assert "FINISHED" in frame and "ready" in frame
        assert "rates (window of" in frame
        assert "in-flight [" in frame
        assert "p95" in frame and "traffic saved" in frame
        assert "\x1b[" not in frame  # --no-color means no ANSI at all

    def test_color_frame_carries_ansi(self):
        d = _driver()
        plane = TelemetryPlane(d)
        d.run()
        assert "\x1b[1m" in render_dashboard(plane.snapshot(), color=True)

    def test_empty_snapshot_renders_starting_state(self):
        frame = render_dashboard({}, color=False)
        assert "STALLED" in frame and "starting" in frame
        assert "n/a" in frame  # rates unknown, never fake zeros

    def test_cmd_top_once_against_live_plane(self, capsys):
        from repro.cli import main

        d = _driver()
        plane = TelemetryPlane(d)
        port = plane.start(0)
        d.run()
        try:
            rc = main(["top", "--port", str(port), "--once", "--no-color"])
        finally:
            plane.stop()
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("repro top")
        assert "policy fvdf-flow" in out

    def test_cmd_top_once_unreachable_exits_nonzero(self, capsys):
        from repro.cli import main

        rc = main(["top", "--url", "http://127.0.0.1:9", "--once"])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err


    def test_watch_loops_until_the_stream_finishes(self, capsys):
        from repro.obs.top import watch

        d = _driver()
        plane = TelemetryPlane(d)
        port = plane.start(0)
        d.run()
        try:
            rc = watch(f"http://127.0.0.1:{port}", interval=0.0)
        finally:
            plane.stop()
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("\x1b[2J\x1b[H")  # a loop frame clears first
        assert out.endswith("stream finished; exiting\n")

    def test_watch_waits_for_an_unreachable_plane(self, capsys, monkeypatch):
        from repro.obs import top

        def interrupt(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(top.time, "sleep", interrupt)
        assert top.watch("http://127.0.0.1:9", timeout=0.5) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("waiting for http://127.0.0.1:9/snapshot")
        assert captured.err == ""

class TestStreamReportIntegration:
    def test_report_window_and_kernel_with_plane(self):
        d = _driver()
        plane = TelemetryPlane(d)
        d.run()
        report = d.telemetry_report(label="t")
        assert report["window"]["ticks"] == len(plane.window)
        assert report["window"]["rates_per_s"]["flows_admitted"] is not None

    def test_report_window_null_without_plane(self):
        from repro.analysis.report import render_report

        d = _driver()
        d.run()
        report = d.telemetry_report(label="t")
        assert report["window"] is None  # explicit null, never absent
        assert "live window: n/a" in render_report(report)

    def test_render_report_formats_window_rates(self):
        from repro.analysis.report import render_report

        d = _driver()
        TelemetryPlane(d)
        d.run()
        text = render_report(d.telemetry_report(label="t"))
        assert "live window (" in text
        assert "admitted" in text and "tick p95" in text
