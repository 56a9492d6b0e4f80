"""The live telemetry plane: Prometheus exposition + HTTP endpoints.

A long-lived ``repro serve`` process used to be a black box until exit:
the only visibility was the final ``StreamStats`` dump.  This module
gives it a dependency-free telemetry plane — stdlib ``http.server`` on
a daemon thread — that any Prometheus scraper, ``curl``, or the bundled
``python -m repro top`` dashboard can poll while admission runs at full
rate:

``/metrics``
    Prometheus text exposition (version 0.0.4) rendered from the
    service's :class:`~repro.obs.metrics.MetricsRegistry` (counters →
    ``*_total``, gauges, histograms → ``*_bucket``/``*_sum``/
    ``*_count`` with the fixed log-spaced bounds) plus the driver's
    :class:`~repro.service.driver.StreamStats` lifetime aggregates and
    the rolling-window rates.
``/snapshot``
    One JSON document (schema :data:`SNAPSHOT_SCHEMA`) with the full
    ``StreamStats.as_dict()``, the typed registry dump,
    tick/in-flight/checkpoint state, the
    :class:`~repro.obs.window.RollingWindow` snapshot and health.
``/healthz`` / ``/readyz``
    Liveness and readiness: ready once the first tick completes (HTTP
    503 before), unhealthy (503) when the driver thread has not
    finished a tick within the watchdog interval — a stalled driver is
    distinguishable from a busy one because ticks are seconds-scale.

Synchronization model — the hot loop pays nothing new:

* the driver thread calls :meth:`TelemetryPlane.on_tick` once per
  service tick (never per flow), updating plain gauge/histogram
  instruments and pushing one window sample;
* HTTP handler threads *read* each value from its one source — the
  driver's ``StreamStats`` (one ``as_dict()`` per response, so the
  snapshot's ``ticks`` is the ``stream`` block's), the registry's
  instruments, the engine clock — by plain attribute loads (floats and
  ints, atomic under the GIL, no torn reads), and the window ring
  snapshot-on-read.  No locks, no condition variables, nothing the
  admission loop can block on.

The overhead is guarded like the recorder's: ``benchmarks/
bench_engine_microbench.py`` asserts a plane-enabled serve run stays
within 5 % of a plane-off run, and that a plane-off driver registers
zero ``stream.*`` instruments.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.window import STREAM_RATE_KEYS, RollingWindow

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = [
    "SNAPSHOT_SCHEMA",
    "TelemetryPlane",
    "render_prometheus",
]

#: Schema tag of the ``/snapshot`` JSON document (bump on breaking
#: layout changes).
SNAPSHOT_SCHEMA = "repro-live-v1"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """A metric name sanitized for the exposition format
    (``engine.decision_latency`` → ``repro_engine_decision_latency``)."""
    return prefix + _NAME_RE.sub("_", name)


def _prom_num(value: float) -> str:
    """A float in exposition syntax (``+Inf``/``-Inf``/``NaN`` spelled
    the Prometheus way, integers without a trailing ``.0``)."""
    v = float(value)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render_prometheus(
    registry: Optional[MetricsRegistry] = None,
    *,
    stream: Optional[Dict[str, Any]] = None,
    window: Optional[Dict[str, Any]] = None,
    extra_gauges: Optional[Dict[str, float]] = None,
    prefix: str = "repro_",
) -> str:
    """Render the Prometheus text exposition (content version 0.0.4).

    ``registry`` instruments map naturally: counters emit one
    ``<name>_total`` sample, gauges one ``<name>`` sample, histograms
    the full cumulative ``<name>_bucket{le="..."}`` series (ending in
    ``le="+Inf"``) plus ``_sum`` and ``_count``.  ``stream`` (a
    ``StreamStats.as_dict()``) emits ``<prefix>stream_<field>`` gauges,
    ``window`` (a ``RollingWindow.snapshot()``) emits
    ``<prefix>window_<key>_per_s`` rate gauges, and ``extra_gauges``
    passes through verbatim.

    Each section names its own families: no registry instrument is a
    copy of a ``StreamStats`` field (the vocabulary in
    ``docs/observability.md`` is checked for it), so no family is
    declared twice.
    """
    lines = []

    def sample(name: str, value: float, labels: str = "") -> None:
        lines.append(f"{name}{labels} {_prom_num(value)}")

    def declare(pname: str, kind: str) -> None:
        lines.append(f"# TYPE {pname} {kind}")

    if registry is not None and registry.enabled:
        for name in registry.names():
            inst = registry.get(name)
            pname = _prom_name(name, prefix)
            if isinstance(inst, Counter):
                declare(f"{pname}_total", "counter")
                sample(f"{pname}_total", inst.value)
            elif isinstance(inst, Gauge):
                declare(pname, "gauge")
                sample(pname, inst.value)
            elif isinstance(inst, Histogram):
                declare(pname, "histogram")
                cum = 0
                for bound, count in zip(inst.bounds, inst.buckets):
                    cum += count
                    sample(
                        f"{pname}_bucket", cum,
                        labels='{le="%s"}' % _prom_num(bound),
                    )
                sample(f"{pname}_sum", inst.total)
                sample(f"{pname}_count", inst.count)
    if stream:
        for field, value in stream.items():
            if not isinstance(value, (int, float)):
                continue
            pname = _prom_name(f"stream.{field}", prefix)
            declare(pname, "gauge")
            sample(pname, float(value))
    if window:
        rates = window.get("rates_per_s") or {}
        for key in STREAM_RATE_KEYS:
            rate = rates.get(key)
            if rate is None:
                continue
            pname = _prom_name(f"window.{key}", prefix) + "_per_s"
            declare(pname, "gauge")
            sample(pname, rate)
        tr = window.get("traffic_reduction")
        if tr is not None:
            pname = _prom_name("window.traffic_reduction", prefix)
            declare(pname, "gauge")
            sample(pname, tr)
    if extra_gauges:
        for name, value in extra_gauges.items():
            declare(name, "gauge")
            sample(name, float(value))
    return "\n".join(lines) + "\n"


class TelemetryPlane:
    """The live telemetry plane for one :class:`StreamDriver`.

    Owns the rolling window, the per-tick instrument updates and (once
    :meth:`start` is called) the HTTP server thread.  The driver only
    ever calls :meth:`on_tick`/:meth:`on_finish`; everything else
    happens on reader threads.

    Parameters
    ----------
    driver:
        The :class:`~repro.service.driver.StreamDriver` to observe.
        Attaching sets ``driver._plane`` so ``tick_once`` reports here.
    watchdog_s:
        ``/healthz`` turns 503 when no tick has completed within this
        many wall seconds (and the driver has not finished cleanly).
    window_ticks:
        Rolling-window capacity in ticks.
    registry:
        Instrument registry to publish into.  Defaults to the driver's
        ``sim.obs.metrics`` when that is enabled, else a private
        enabled registry — the plane never mutates a disabled registry.
    """

    def __init__(
        self,
        driver,
        *,
        watchdog_s: float = 10.0,
        window_ticks: int = 120,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if watchdog_s <= 0:
            raise ValueError(f"watchdog_s must be positive, got {watchdog_s}")
        self.driver = driver
        self.watchdog_s = float(watchdog_s)
        self.window = RollingWindow(capacity=window_ticks)
        if registry is None:
            obs_metrics = driver.sim.obs.metrics
            registry = (
                obs_metrics if obs_metrics.enabled
                else MetricsRegistry(enabled=True)
            )
        self.registry = registry
        self.started_mono = time.monotonic()
        self.started_wall = time.time()
        self.finished = False
        self._last_tick_mono: Optional[float] = None
        self._server: Optional["ThreadingHTTPServer"] = None
        self._thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None
        self.window.prime(self._cumulative())
        driver._plane = self

    # --------------------------------------------------- driver-side hooks
    def _cumulative(self) -> Dict[str, float]:
        """The cumulative counters the window tracks, read off the driver."""
        d = self.driver
        st = d.stats
        return {
            "flows_admitted": st.flows_submitted,
            "coflows_admitted": st.coflows_submitted,
            "flows_retired": d.sim.retired_flows,
            "coflows_retired": st.coflows_done,
            "restamped": st.restamped,
            "bytes_sent": st.bytes_sent,
            "bytes_original": st.bytes_original,
            "drains": st.drains,
            "spills": st.spills,
        }

    def on_tick(self, wall_s: float) -> None:
        """Per-tick update, called by the driver thread after each tick.

        Cost is once per tick, never per flow: a handful of gauge
        stores, one histogram observe and one window push.
        """
        d = self.driver
        reg = self.registry
        in_flight = d.in_flight
        reg.gauge("stream.in_flight").set(in_flight)
        reg.gauge("stream.live_rows").set(d.sim.live_rows)
        reg.gauge("stream.backlog_frac").set(in_flight / d.max_in_flight)
        reg.histogram("stream.tick_wall_s").observe(wall_s)
        self.window.push(wall_s, self._cumulative())
        self._last_tick_mono = time.monotonic()

    def on_finish(self) -> None:
        """Mark the stream complete: health stays green after the last
        tick even once the watchdog interval has passed."""
        self.finished = True

    # ---------------------------------------------------------- health
    @property
    def ready(self) -> bool:
        """True once the first service tick has completed."""
        return self._last_tick_mono is not None

    @property
    def healthy(self) -> bool:
        """True while ticks keep landing inside the watchdog interval
        (or the driver finished cleanly).  Before the first tick the
        watchdog runs from plane creation, so a driver that never
        starts ticking also turns unhealthy."""
        if self.finished:
            return True
        last = self._last_tick_mono
        base = last if last is not None else self.started_mono
        return (time.monotonic() - base) < self.watchdog_s

    # -------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, Any]:
        """The ``/snapshot`` JSON payload (schema repro-live-v1),
        assembled on the reader's thread, each value read from its one
        source."""
        d = self.driver
        reg = self.registry
        stream = d.stats.as_dict()
        last = self._last_tick_mono
        now_mono = time.monotonic()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "policy": d.policy,
            "tick_s": d.tick,
            "max_in_flight": d.max_in_flight,
            "ticks": stream["ticks"],
            "sim_now": float(d.sim.now),
            "in_flight": int(reg.value("stream.in_flight")),
            "live_rows": int(reg.value("stream.live_rows")),
            "checkpoints": stream["checkpoints"],
            "uptime_s": now_mono - self.started_mono,
            "last_tick_age_s": (
                now_mono - last if last is not None else None
            ),
            "ready": self.ready,
            "healthy": self.healthy,
            "finished": self.finished,
            "stream": stream,
            "window": self.window.snapshot(),
            "metrics": self.registry.dump(),
        }

    def render_metrics(self) -> str:
        """The ``/metrics`` exposition body."""
        return render_prometheus(
            self.registry,
            stream=self.driver.stats.as_dict(),
            window=self.window.snapshot(),
            extra_gauges={
                "repro_up": 1.0,
                "repro_healthy": 1.0 if self.healthy else 0.0,
                "repro_ready": 1.0 if self.ready else 0.0,
            },
        )

    # ----------------------------------------------------------- server
    def start(self, port: int = 0, host: str = "127.0.0.1") -> int:
        """Bind and serve on a daemon thread; returns the bound port
        (useful with ``port=0`` for an ephemeral port)."""
        if self._server is not None:
            raise RuntimeError("telemetry plane already started")
        server = _make_server(self, host, port)
        self._server = server
        self.port = int(server.server_address[1])
        self._thread = threading.Thread(
            # 0.1s poll so stop() returns promptly (shutdown blocks
            # until serve_forever's poll loop wakes up).
            target=lambda: server.serve_forever(poll_interval=0.1),
            name=f"repro-telemetry-:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def serving(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


def _make_server(plane: TelemetryPlane, host: str, port: int):
    """A bound ``ThreadingHTTPServer`` routing the four read-only endpoints
    to ``plane``.  ``http.server`` (with ``email``, ``ssl`` and
    ``http.client``) is imported here, so only a started plane loads it."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-telemetry"
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:  # no stderr chatter per scrape
            return None

        def _respond(self, code: int, body: str, content_type: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    self._respond(
                        200, plane.render_metrics(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                elif path == "/snapshot":
                    self._respond(
                        200, json.dumps(plane.snapshot()) + "\n",
                        "application/json",
                    )
                elif path == "/healthz":
                    ok = plane.healthy
                    self._respond(
                        200 if ok else 503,
                        json.dumps({"healthy": ok, "finished": plane.finished})
                        + "\n",
                        "application/json",
                    )
                elif path == "/readyz":
                    ok = plane.ready
                    self._respond(
                        200 if ok else 503,
                        json.dumps({"ready": ok}) + "\n",
                        "application/json",
                    )
                else:
                    self._respond(
                        404,
                        "not found; endpoints: /metrics /snapshot /healthz "
                        "/readyz\n",
                        "text/plain; charset=utf-8",
                    )
            except OSError:  # scraper went away mid-write (broken pipe,
                pass         # connection reset, ...) — never stderr chatter

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    return server
