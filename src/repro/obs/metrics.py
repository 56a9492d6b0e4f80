"""Counters, gauges and summary histograms for the engine and system layers.

The registry is deliberately tiny — a dict of named instruments — because
the point is the *names*: a stable metric vocabulary that benches and tests
can assert on.  The vocabulary is the table under *Metrics* in
``docs/observability.md``; ``tests/test_metric_vocabulary.py`` holds every
name a hook site registers to it, and every row to a hook site.

A disabled registry returns a shared no-op instrument from every accessor,
so hook sites need no guards: ``metrics.counter("x").inc()`` is safe and
nearly free either way.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


def _log_buckets(lo_exp: int, hi_exp: int) -> Tuple[float, ...]:
    """Log-spaced bucket bounds: {1, 2.5, 5} × 10^k for k in [lo, hi]."""
    out = []
    for k in range(lo_exp, hi_exp + 1):
        for m in ("1", "2.5", "5"):
            # Parse, don't multiply: m * 10.0**k accumulates float error
            # (2.4999999999999998e-06) that would leak into `le` labels.
            out.append(float(f"{m}e{k}"))
    return tuple(out)


#: Default histogram bucket upper bounds (``le`` semantics): log-spaced
#: from 1µ to 5k, wide enough to cover decision latencies (~1e-5 s),
#: service-tick wall times (~1e-3..10 s) and slice-jump counts alike
#: while keeping O(1) memory (31 buckets + overflow).
DEFAULT_BUCKETS: Tuple[float, ...] = _log_buckets(-6, 3) + (math.inf,)


class Counter:
    """Monotonically-increasing count (float to allow byte totals)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """Streaming summary: count / sum / min / max / mean + fixed buckets.

    Keeps O(1) state rather than raw samples — decision latencies alone
    would otherwise grow with every decision point of a long replay.
    Observations are additionally binned into fixed-boundary buckets
    (``le`` upper-bound semantics, log-spaced :data:`DEFAULT_BUCKETS` by
    default, always ending in ``+inf``), which is what lets the
    telemetry plane emit Prometheus ``*_bucket`` lines and approximate
    p50/p95/p99 instead of only min/max/mean.
    """

    __slots__ = ("name", "count", "total", "min", "max", "bounds", "buckets")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        b = tuple(float(x) for x in (bounds or DEFAULT_BUCKETS))
        if not b or b[-1] != math.inf:
            b = b + (math.inf,)
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"histogram bounds must be increasing: {b}")
        self.bounds = b
        #: per-bucket (non-cumulative) observation counts, one per bound.
        self.buckets = [0] * len(b)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bound >= value: `le` semantics (value == bound lands in it).
        self.buckets[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate the q-quantile (0..1) from the cumulative buckets.

        Linear interpolation inside the holding bucket, clamped to the
        exact observed ``[min, max]``.  Accurate to the bucket width —
        good enough for a p99 latency panel, never for billing.  Returns
        0.0 on an empty histogram.  Buckets only cover observations made
        *here* (a merge from a pre-bucket dump adds count but no bucket
        detail); the quantile is taken over the binned total.
        """
        total = sum(self.buckets)
        if total == 0:
            return 0.0
        rank = q * total
        cum = 0.0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            lo_cum = cum
            cum += n
            if cum >= rank:
                lo = self.bounds[i - 1] if i > 0 else self.min
                hi = self.bounds[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return min(max(lo, self.min), self.max)
                frac = (rank - lo_cum) / n
                return min(max(lo + frac * (hi - lo), self.min), self.max)
        return self.max  # pragma: no cover - rank <= total always lands

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()
    name = "<disabled>"
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        # Schema-compatible with Histogram.summary (incl. the quantile
        # keys) so disabled-registry consumers never special-case.
        return {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }


_NULL_INSTRUMENT = _NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is bound to one instrument type for the registry's lifetime;
    asking for the same name as a different type raises ``TypeError`` —
    that is always a hook-site bug.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, cls) -> Instrument:
        if not self.enabled:
            return _NULL_INSTRUMENT
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram under ``name`` (created on first use).

        ``bounds`` sets the fixed bucket boundaries at creation time
        only; a histogram that already exists keeps its boundaries (they
        are part of the instrument's identity, like its type).
        """
        if self.enabled and bounds is not None and name not in self._instruments:
            inst = Histogram(name, bounds)
            self._instruments[name] = inst
            return inst
        return self._get(name, Histogram)  # type: ignore[return-value]

    # ------------------------------------------------------------ inspection
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Counter/gauge value by name (``default`` when absent)."""
        inst = self._instruments.get(name)
        return getattr(inst, "value", default) if inst is not None else default

    def as_dict(self) -> Dict[str, object]:
        """Flat snapshot: counters/gauges → value, histograms → summary."""
        out: Dict[str, object] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                out[name] = inst.summary()
            else:
                out[name] = inst.value
        return out

    # --------------------------------------------------- serialize / merge
    def dump(self) -> Dict[str, Dict[str, object]]:
        """Typed JSON-able snapshot, losslessly mergeable across processes.

        Unlike :meth:`as_dict` (a flat display snapshot), every entry
        carries its instrument type, so :meth:`merge` can combine dumps
        from pool workers without guessing what a bare float means.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                out[name] = {"type": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {"type": "gauge", "value": inst.value}
            elif isinstance(inst, Histogram):
                # `le` excludes the implicit +inf bound (JSON has no
                # clean infinity); `buckets` keeps every per-bucket
                # count, so len(buckets) == len(le) + 1 and the last
                # entry is the overflow (+inf) bucket.
                out[name] = {
                    "type": "histogram",
                    **inst.summary(),
                    "le": list(inst.bounds[:-1]),
                    "buckets": list(inst.buckets),
                }
        return out

    def merge(self, dump: Dict[str, Dict[str, object]]) -> None:
        """Fold one :meth:`dump` into this registry.

        Counters add, gauges keep the maximum (peak-seen semantics — the
        only order-independent choice), histograms combine their count /
        sum / min / max exactly as if every observation had landed here.
        A disabled registry ignores the merge (its accessors hand out the
        shared no-op instrument, which must stay untouched).
        """
        if not self.enabled:
            return
        for name, entry in dump.items():
            kind = entry["type"]
            if kind == "counter":
                self.counter(name).inc(float(entry["value"]))
            elif kind == "gauge":
                g = self.gauge(name)
                g.set(max(g.value, float(entry["value"])))
            elif kind == "histogram":
                le = entry.get("le")
                bounds = tuple(float(x) for x in le) + (math.inf,) if le else None
                h = self.histogram(name, bounds=bounds)
                n = int(entry["count"])
                if n == 0:
                    continue  # name registered; nothing to fold
                h.count += n
                h.total += float(entry["sum"])
                h.min = min(h.min, float(entry["min"]))
                h.max = max(h.max, float(entry["max"]))
                if bounds is not None:
                    if bounds != h.bounds:
                        raise ValueError(
                            f"histogram {name!r} bucket boundaries differ "
                            "between dumps — boundaries are fixed per name"
                        )
                    for i, c in enumerate(entry["buckets"]):
                        h.buckets[i] += int(c)
                # A pre-bucket dump (no "le") folds its moments only:
                # bucket detail for those observations never existed.
            else:
                raise ValueError(f"unknown instrument type {kind!r} for {name!r}")

    @classmethod
    def from_dump(cls, dump: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """A fresh enabled registry preloaded from one :meth:`dump`."""
        reg = cls(enabled=True)
        reg.merge(dump)
        return reg

    def render(self) -> str:
        """Human-readable dump, one instrument per line."""
        lines = []
        for name, val in self.as_dict().items():
            if isinstance(val, dict):
                lines.append(
                    f"{name}: n={val['count']} mean={val['mean']:.6g} "
                    f"min={val['min']:.6g} max={val['max']:.6g}"
                )
            else:
                lines.append(f"{name}: {val:g}")
        return "\n".join(lines)
