"""Structured observability: tracing, metrics and profiling for the engine.

Debugging a vectorised discrete-event engine by print statements does not
scale: a single replay produces thousands of decision points, and the
interesting question is almost always *why* the scheduler was woken up and
*what* it decided — the trigger kinds, the Γ_C/P ordering, the β
assignments, the rate vector.  This package makes those observable as
typed records without touching the hot paths when disabled:

* :mod:`repro.obs.recorder` — the columnar flight recorder, the one
  trace sink: it accepts whole event batches as ndarray columns (plus
  per-record events from the system layers) and decodes losslessly to
  the typed record stream (see ``docs/observability.md``);
* :mod:`repro.obs.trace` — the :class:`TraceRecord` type and its JSONL
  form (read back via :func:`repro.analysis.read_trace`);
* :mod:`repro.obs.metrics` — counters, gauges and bucketed summary
  histograms (decision latency, slices fast-forwarded per jump, bus
  traffic …);
* :mod:`repro.obs.profile` — wall-clock profiling of named sections
  (``schedule`` and ``integrate`` hot paths);
* :mod:`repro.obs.window` — :class:`RollingWindow`, the fixed-capacity
  ring of per-tick counter deltas behind the streaming service's live
  rates (flows/s, bytes/s, restamps/s) and exact windowed tick-latency
  percentiles;
* :mod:`repro.obs.exposition` — the live telemetry plane: a stdlib
  ``http.server`` daemon thread exposing ``/metrics`` (Prometheus text
  exposition), ``/snapshot`` (``repro-live-v1`` JSON), ``/healthz`` and
  ``/readyz`` for a running ``repro serve``, plus the ``repro top``
  dashboard renderer.  Imported lazily (``from repro.obs.exposition
  import TelemetryPlane``) so engine imports stay free of the HTTP
  stack.

The components are bundled in an :class:`Observability` object that the
engine, the Swallow system layer and the cluster simulator all accept.  The
default is :data:`NULL_OBS`, whose components are permanently disabled;
every hook site guards on ``enabled`` before building a record, so a run
without observability pays only a predicate check per decision point
(guarded in ``benchmarks/bench_engine_microbench.py`` to stay under 5%).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.obs.trace import TraceRecord
from repro.obs.window import RollingWindow

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_PROFILER",
    "NULL_RECORDER",
    "Observability",
    "Profiler",
    "RollingWindow",
    "TraceRecord",
]


class Observability:
    """Bundle of recorder + metrics + profiler handed through the stack.

    Parameters
    ----------
    trace:
        Attach a :class:`~repro.obs.recorder.FlightRecorder` as
        :attr:`recorder`: typed events (decision points, arrivals, Γ
        orderings …) captured as columnar batches; iterate it to decode.
    metrics:
        Maintain counters/gauges/histograms.  Metrics are cheap enough to
        stay on even when tracing is off.
    profile:
        Time the ``schedule``/``integrate`` hot sections.
    """

    __slots__ = ("recorder", "metrics", "profiler")

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        profile: bool = False,
    ):
        self.recorder = FlightRecorder() if trace else NULL_RECORDER
        self.metrics = MetricsRegistry(enabled=metrics)
        self.profiler = Profiler() if profile else NULL_PROFILER

    @property
    def tracer(self) -> FlightRecorder:
        """Read-only alias of :attr:`recorder`, kept for the benchmark's
        fb-replay export; it goes with the next ``e2ebench/`` change."""
        return self.recorder

    @property
    def enabled(self) -> bool:
        """Whether any component would record anything."""
        return (
            self.recorder.enabled
            or self.metrics.enabled
            or self.profiler.enabled
        )

    def __repr__(self) -> str:
        return (
            f"<Observability trace={self.recorder.enabled} "
            f"metrics={self.metrics.enabled} profile={self.profiler.enabled}>"
        )


class _NullObservability(Observability):
    """The do-nothing default: every component permanently disabled."""

    def __init__(self):
        self.recorder = NULL_RECORDER
        self.metrics = MetricsRegistry(enabled=False)
        self.profiler = NULL_PROFILER


#: Shared disabled instance — the default everywhere an ``obs`` is accepted.
NULL_OBS = _NullObservability()
