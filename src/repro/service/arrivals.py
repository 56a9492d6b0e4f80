"""Unbounded, resumable coflow arrival sources for the streaming service.

A batch experiment materialises its whole workload up front; a service
cannot.  :class:`ArrivalSource` is a pull-based iterator over coflows in
arrival order with one-coflow lookahead (:meth:`~ArrivalSource.peek`
returns the next arrival time without consuming it), so the driver can
admit everything inside its horizon and leave the rest for later ticks.

Two concrete sources:

* :class:`SyntheticSource` — seeded generator mirroring
  :func:`repro.traces.generator.generate_workload` per-coflow construction
  (log-uniform widths, configurable size distribution, uniform ports) with
  three inter-arrival modes: ``steady`` (Poisson), ``bursty`` (two-state
  on/off rate modulation) and ``diurnal`` (sinusoidal rate).
* :class:`JsonlSource` — one JSON object per line from a file or stdin.

Both expose ``state()``/``seek(state)`` so a checkpoint can record a
compact cursor and resume the stream exactly where it left off.

Sources also vend whole *admission blocks*: :meth:`ArrivalSource.
pop_block` drains every coflow inside a horizon (subject to a flow
budget) into one :class:`~repro.core.ingest.CoflowBlock`.  The concrete
sources override it to emit raw columns — the synthetic generator gathers
its rng draws, the JSONL reader reads each due line once into flat Python
lists — and hand the whole block to one
:meth:`~repro.core.ingest.BlockBuilder.add_columns` call, so the
steady-state streaming path never constructs ``Flow``/``Coflow`` objects
and reserves ids once per block.  The ids are the ones the same coflows
would draw one object at a time, so a blocked stream is bit-identical
(ids included) to the same stream popped object by object.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.coflow import Coflow, reserve_coflow_ids
from repro.core.flow import Flow, reserve_flow_ids
from repro.core.ingest import (
    BlockBuilder,
    BlockRowError,
    CoflowBlock,
    coflow_from_columns,
)
from repro.errors import ConfigurationError
from repro.traces.distributions import SizeDistribution, spark_flow_sizes

_MODES = ("steady", "bursty", "diurnal")


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of an arrival source.

    A spec (rather than a live source) is what goes into cache digests and
    checkpoints: it is hashable/serialisable, and :meth:`build` makes a
    fresh source from it deterministically.

    Parameters
    ----------
    kind:
        ``"synthetic"`` (seeded generator) or ``"jsonl"`` (file/stdin).
    rate:
        Mean coflow arrival rate in coflows/second (synthetic only).
    num_ports, width, size_dist, compressible_fraction, seed:
        Workload shape knobs, mirroring
        :class:`repro.traces.generator.WorkloadConfig`.
    mode:
        ``"steady"`` — Poisson arrivals at ``rate``;
        ``"bursty"`` — alternate burst phases (rate ×``burst_factor``) and
        calm phases, with a ``burst_fraction`` share of arrivals landing in
        bursts while the long-run mean rate stays ``rate``;
        ``"diurnal"`` — rate modulated by ``1 + depth·sin(2πt/period)``.
    limit:
        Stop after this many coflows (``None`` = unbounded).
    path:
        JSONL file path, or ``"-"`` for stdin (jsonl only).
    """

    kind: str = "synthetic"
    rate: float = 50.0
    num_ports: int = 16
    width: Union[int, Tuple[int, int]] = (1, 8)
    size_dist: SizeDistribution = field(default_factory=spark_flow_sizes)
    compressible_fraction: float = 1.0
    seed: int = 0
    mode: str = "steady"
    burst_factor: float = 8.0
    burst_fraction: float = 0.1
    period: float = 60.0
    depth: float = 0.8
    limit: Optional[int] = None
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "jsonl"):
            raise ConfigurationError(f"unknown source kind {self.kind!r}")
        if self.kind == "jsonl" and not self.path:
            raise ConfigurationError("jsonl source needs a path ('-' for stdin)")
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")
        if self.burst_factor <= 1 or not 0 < self.burst_fraction < 1:
            raise ConfigurationError(
                "need burst_factor > 1 and burst_fraction in (0, 1); got "
                f"{self.burst_factor}, {self.burst_fraction}"
            )
        if self.period <= 0 or not 0 <= self.depth < 1:
            raise ConfigurationError(
                f"need period > 0 and depth in [0, 1); got {self.period}, {self.depth}"
            )
        if self.limit is not None and self.limit <= 0:
            raise ConfigurationError(f"limit must be positive, got {self.limit}")
        if isinstance(self.width, int):
            if self.width < 1:
                raise ConfigurationError("width must be >= 1")
        else:
            lo, hi = self.width
            if not (1 <= lo <= hi):
                raise ConfigurationError(f"bad width range {self.width}")

    def build(self) -> "ArrivalSource":
        """Instantiate a fresh source at the start of its stream."""
        if self.kind == "jsonl":
            return JsonlSource(self.path, limit=self.limit)
        return SyntheticSource(self)


class ArrivalSource:
    """Pull-based stream of coflows in non-decreasing arrival order.

    Subclasses implement :meth:`_next` returning the next coflow or
    ``None`` when the stream is exhausted, plus :meth:`_cursor` /
    :meth:`_seek_cursor` for resume; the base class provides the
    one-coflow lookahead buffer behind :meth:`peek`/:meth:`pop` and a
    :meth:`state` that always points *before* any buffered lookahead (the
    cursor is captured just before :meth:`_next` runs), so a restored
    source regenerates/rereads the buffered coflow identically.
    """

    def __init__(self) -> None:
        self._buffered: Optional[Coflow] = None
        self._pre_cursor: Optional[Dict[str, Any]] = None
        self._exhausted = False

    def _next(self) -> Optional[Coflow]:
        raise NotImplementedError

    def _cursor(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _seek_cursor(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def _fill(self) -> None:
        if self._buffered is None and not self._exhausted:
            cur = self._cursor()
            nxt = self._next()
            if nxt is None:
                self._exhausted = True
                self._pre_cursor = None
            else:
                self._buffered = nxt
                self._pre_cursor = cur

    def peek(self) -> Optional[float]:
        """Arrival time of the next coflow, or ``None`` if exhausted."""
        self._fill()
        return None if self._buffered is None else self._buffered.arrival

    def pop(self) -> Coflow:
        """Consume and return the next coflow (peek first)."""
        self._fill()
        if self._buffered is None:
            raise ConfigurationError("pop() on an exhausted arrival source")
        out, self._buffered = self._buffered, None
        self._pre_cursor = None
        return out

    def state(self) -> Dict[str, Any]:
        """Compact resumable cursor pointing before any buffered coflow."""
        if self._buffered is not None:
            assert self._pre_cursor is not None
            return dict(self._pre_cursor)
        return self._cursor()

    def seek(self, state: Dict[str, Any]) -> None:
        """Position a fresh source at a cursor from :meth:`state`."""
        if self._buffered is not None:
            raise ConfigurationError("seek() requires a fresh source")
        self._seek_cursor(state)

    def pop_block(
        self, horizon: float, flow_budget: Optional[int] = None
    ) -> Optional[CoflowBlock]:
        """Drain every coflow with ``arrival <= horizon`` into one block.

        The flow budget is checked *before* each pop, so the last coflow
        may overshoot it — exactly the driver's legacy admission rule.
        Returns ``None`` when nothing is due.  The base implementation
        pops objects; concrete sources override it to fill raw columns
        without materializing ``Flow``/``Coflow`` instances.
        """
        builder = BlockBuilder()
        while flow_budget is None or builder.n_flows < flow_budget:
            t = self.peek()
            if t is None or t > horizon:
                break
            builder.add_coflow(self.pop())
        return builder.build()

    def _take_lookahead(self, builder: BlockBuilder, horizon: float) -> bool:
        """Move a due lookahead coflow into ``builder``; ``False`` when it
        is past ``horizon``, which ends the block before it."""
        if self._buffered is None:
            return True
        if self._buffered.arrival > horizon:
            return False
        builder.add_coflow(self.pop())
        return True


class SyntheticSource(ArrivalSource):
    """Seeded unbounded generator of coflows (see :class:`SourceSpec`)."""

    def __init__(self, spec: SourceSpec) -> None:
        if spec.kind != "synthetic":
            raise ConfigurationError("SyntheticSource needs a synthetic spec")
        super().__init__()
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._count = 0  # coflows emitted so far (cursor)
        self._clock = 0.0  # arrival time of the previous coflow
        # bursty-mode phase machine
        self._in_burst = False
        self._phase_left = 0

    # -- arrival-time processes ------------------------------------------

    def _gap_steady(self) -> float:
        return float(self._rng.exponential(1.0 / self.spec.rate))

    def _gap_bursty(self) -> float:
        s = self.spec
        if self._phase_left <= 0:
            # choose the next phase; phase lengths are geometric with mean
            # ~20 arrivals so bursts are sustained, not single-coflow blips.
            self._in_burst = bool(self._rng.random() < s.burst_fraction)
            self._phase_left = 1 + int(self._rng.geometric(1.0 / 20.0))
        self._phase_left -= 1
        if self._in_burst:
            rate = s.rate * s.burst_factor
        else:
            # calm-phase rate chosen so the long-run mean stays s.rate:
            # burst_fraction of arrivals at rate*factor, the rest here.
            calm = (1.0 - s.burst_fraction * s.burst_factor) / (1.0 - s.burst_fraction)
            rate = s.rate * max(calm, 0.05)
        return float(self._rng.exponential(1.0 / rate))

    def _gap_diurnal(self) -> float:
        s = self.spec
        inst = s.rate * (1.0 + s.depth * math.sin(2.0 * math.pi * self._clock / s.period))
        return float(self._rng.exponential(1.0 / max(inst, s.rate * (1.0 - s.depth) * 0.5)))

    def _next_raw(self) -> Optional[Dict[str, Any]]:
        """Draw the next coflow as raw columns (rng consumed, no ids drawn)."""
        s = self.spec
        if s.limit is not None and self._count >= s.limit:
            return None
        if self._count == 0:
            gap = 0.0  # first coflow arrives at t=0, like generate_workload
        elif s.mode == "steady":
            gap = self._gap_steady()
        elif s.mode == "bursty":
            gap = self._gap_bursty()
        else:
            gap = self._gap_diurnal()
        self._clock += gap
        rng = self._rng
        if isinstance(s.width, int):
            w = s.width
        else:
            lo, hi = s.width
            w = int(np.clip(int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))), lo, hi))
        sizes = s.size_dist.sample(rng, w)
        srcs = rng.integers(0, s.num_ports, size=w)
        dsts = rng.integers(0, s.num_ports, size=w)
        compressible = rng.random(w) < s.compressible_fraction
        raw = {
            "arrival": self._clock,
            "label": f"cf{self._count}",
            "src": srcs,
            "dst": dsts,
            "size": sizes,
            "compressible": compressible,
        }
        self._count += 1
        return raw

    @staticmethod
    def _materialize(raw: Dict[str, Any]) -> Coflow:
        """Build the coflow object for one raw draw (ids reserved here, in
        the same order the columnar path reserves them: flows, then the
        coflow)."""
        w = int(raw["src"].size)
        flow_id0 = reserve_flow_ids(w)
        return coflow_from_columns(
            raw["src"], raw["dst"], raw["size"], raw["compressible"],
            np.full(w, -1.0), np.arange(flow_id0, flow_id0 + w),
            arrival=raw["arrival"], label=raw["label"], deadline=None,
            coflow_id=reserve_coflow_ids(1),
        )

    def _next(self) -> Optional[Coflow]:
        raw = self._next_raw()
        return None if raw is None else self._materialize(raw)

    def pop_block(
        self, horizon: float, flow_budget: Optional[int] = None
    ) -> Optional[CoflowBlock]:
        budget = math.inf if flow_budget is None else flow_budget
        builder = BlockBuilder()
        if budget <= 0 or not self._take_lookahead(builder, horizon):
            return None
        raws, overshoot = [], None
        n = builder.n_flows
        while n < budget and not self._exhausted:
            cur = self._cursor()
            raw = self._next_raw()
            if raw is None:
                self._exhausted = True
                self._pre_cursor = None
            elif raw["arrival"] > horizon:
                overshoot = raw, cur
                break
            else:
                raws.append(raw)
                n += raw["src"].size
        if raws:
            builder.add_columns(
                [r["arrival"] for r in raws],
                *(np.concatenate([r[k] for r in raws])
                  for k in ("src", "dst", "size", "compressible")),
                width=[r["src"].size for r in raws],
                label=[r["label"] for r in raws],
                deadline=[None] * len(raws),
            )
        if overshoot is not None:
            # stash it for the next tick, materialized so peek()/state()
            # keep their object-buffer contract; only after the block's
            # ids are reserved, because constructing the coflow draws its own
            self._buffered = self._materialize(overshoot[0])
            self._pre_cursor = overshoot[1]
        return builder.build()

    def _cursor(self) -> Dict[str, Any]:
        return {
            "kind": "synthetic",
            "count": self._count,
            "clock": self._clock,
            "rng": self._rng.bit_generator.state,
            "in_burst": self._in_burst,
            "phase_left": self._phase_left,
            "exhausted": self._exhausted,
        }

    def _seek_cursor(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != "synthetic":
            raise ConfigurationError(f"cursor kind {state.get('kind')!r} != synthetic")
        if self._count:
            raise ConfigurationError("seek() requires a fresh source")
        self._count = int(state["count"])
        self._clock = float(state["clock"])
        self._rng.bit_generator.state = state["rng"]
        self._in_burst = bool(state["in_burst"])
        self._phase_left = int(state["phase_left"])
        self._exhausted = bool(state["exhausted"])


def coflow_to_json(coflow: Coflow) -> Dict[str, Any]:
    """JSONL-line payload for a coflow (inverse of :func:`coflow_from_json`)."""
    rec: Dict[str, Any] = {
        "arrival": coflow.arrival,
        "flows": [
            {
                "src": f.src,
                "dst": f.dst,
                "size": f.size,
                **({} if f.compressible else {"compressible": False}),
                **(
                    {}
                    if f.ratio_override is None
                    else {"ratio_override": f.ratio_override}
                ),
            }
            for f in coflow.flows
        ],
    }
    if coflow.label:
        rec["label"] = coflow.label
    if coflow.deadline is not None:
        rec["deadline"] = coflow.deadline
    return rec


#: ``raw_decode`` of a default decoder: ``json.loads`` without its two
#: whitespace matches and two call frames.  A line it fails on, or that
#: holds more than whitespace after the object, goes to ``json.loads``,
#: so what is accepted and the error text are ``json.loads``'.
_raw_decode = json.JSONDecoder().raw_decode

_NUMBER = frozenset({int, float})
_OPTIONAL_NUMBER = frozenset({int, float, type(None)})

#: The JSON types each JSONL field accepts, and how an error names them.
#: Nothing is coerced, and a JSON boolean is not a number.
_FIELD_TYPES = {
    "arrival": (_NUMBER, "a number"),
    "label": (frozenset({str}), "a string"),
    "deadline": (_OPTIONAL_NUMBER, "a number or null"),
    "src": (frozenset({int}), "an integer"),
    "dst": (frozenset({int}), "an integer"),
    "size": (_NUMBER, "a number"),
    "compressible": (frozenset({bool}), "a boolean"),
    "ratio_override": (_OPTIONAL_NUMBER, "a number or null"),
}


def _bad_field(
    coflow_cols: Dict[str, list], flow_cols: Dict[str, list],
    width: Sequence[int],
) -> Optional[Tuple[int, str]]:
    """The first record holding a value of a type its field does not
    accept, as ``(record index, message)``, or ``None``.

    ``coflow_cols`` hold one value per record and ``flow_cols`` one per
    flow, each record's flows contiguous, ``width[i]`` of them.  Each
    column's set of types is taken once; only a column holding a bad
    type is walked to find its first bad value.
    """
    bad = []
    for cols, per_flow in ((coflow_cols, False), (flow_cols, True)):
        for name, col in cols.items():
            allowed, kind = _FIELD_TYPES[name]
            if set(map(type, col)) <= allowed:
                continue
            i = next(i for i, v in enumerate(col) if type(v) not in allowed)
            row = (
                int(np.cumsum(width).searchsorted(i, side="right"))
                if per_flow else i
            )
            bad.append((row, f"{name} must be {kind}, got {col[i]!r}"))
    return min(bad, key=lambda b: b[0]) if bad else None


def coflow_from_json(rec: Dict[str, Any]) -> Coflow:
    """Build a coflow from one parsed JSONL record.

    Raises :class:`ConfigurationError` when a field holds a JSON type it
    does not accept (see ``_FIELD_TYPES``)."""
    flows = rec["flows"]
    meta = {
        "arrival": [rec.get("arrival", 0.0)],
        "label": [rec.get("label", "")],
        "deadline": [rec.get("deadline")],
    }
    cols = {
        "src": [f["src"] for f in flows],
        "dst": [f["dst"] for f in flows],
        "size": [f["size"] for f in flows],
        "compressible": [f.get("compressible", True) for f in flows],
        "ratio_override": [f.get("ratio_override") for f in flows],
    }
    bad = _bad_field(meta, cols, [len(flows)])
    if bad is not None:
        raise ConfigurationError(bad[1])
    return Coflow(
        [
            Flow(src=s, dst=d, size=float(z), compressible=c, ratio_override=o)
            for s, d, z, c, o in zip(*cols.values())
        ],
        arrival=float(meta["arrival"][0]),
        label=meta["label"][0],
        deadline=meta["deadline"][0],
    )


class JsonlSource(ArrivalSource):
    """Coflows from a JSONL file (or stdin with path ``"-"``).

    Each line is an object ``{"arrival": t, "label": ..., "deadline": ...,
    "flows": [{"src", "dst", "size", "compressible"?, "ratio_override"?}]}``.
    Lines must be in non-decreasing arrival order; blank lines are skipped.
    The cursor is the number of non-blank lines consumed, so ``seek`` on a
    file re-opens and skips — stdin cannot seek.  Errors name the physical
    line, blank lines included.
    """

    def __init__(self, path: str, limit: Optional[int] = None) -> None:
        super().__init__()
        self.path = path
        self.limit = limit
        self._lines = 0  # non-blank lines consumed: the cursor
        self._lineno = 0  # physical lines read: for error messages
        self._last_arrival = -math.inf
        if path == "-":
            self._fh: Optional[IO[str]] = sys.stdin
            self._owns = False
        else:
            self._fh = open(path, "r", encoding="utf-8")
            self._owns = True

    def _bad_line(
        self, exc: Exception, lineno: Optional[int] = None
    ) -> ConfigurationError:
        line = self._lineno if lineno is None else lineno
        return ConfigurationError(
            f"bad JSONL coflow on line {line} of {self.path}: {exc}"
        )

    def _next_record(self) -> Optional[Dict[str, Any]]:
        """Parse the next non-blank line into a record dict (no objects).

        The record's arrival, checked non-decreasing, is left in
        ``self._last_arrival``.
        """
        if self._fh is None:
            return None
        if self.limit is not None and self._lines >= self.limit:
            self._close()
            return None
        for line in self._fh:
            self._lineno += 1
            if line.isspace():
                continue
            self._lines += 1
            try:
                try:
                    rec, end = _raw_decode(line)
                except ValueError:
                    rec = json.loads(line)
                else:
                    if end != len(line) and not line[end:].isspace():
                        rec = json.loads(line)
                arrival = rec.get("arrival", 0.0)
                if arrival.__class__ not in _NUMBER:
                    raise ConfigurationError(
                        f"arrival must be a number, got {arrival!r}"
                    )
            except (
                ConfigurationError, ValueError, KeyError, TypeError,
                AttributeError,
            ) as exc:
                raise self._bad_line(exc) from exc
            if arrival < self._last_arrival:
                raise ConfigurationError(
                    f"JSONL arrivals must be non-decreasing; line {self._lineno} "
                    f"has arrival {arrival} after {self._last_arrival}"
                )
            self._last_arrival = arrival
            return rec
        self._close()
        return None

    def _to_coflow(self, rec: Dict[str, Any]) -> Coflow:
        try:
            return coflow_from_json(rec)
        except (
            ConfigurationError, ValueError, KeyError, TypeError, AttributeError
        ) as exc:
            raise self._bad_line(exc) from exc

    def _next(self) -> Optional[Coflow]:
        rec = self._next_record()
        return None if rec is None else self._to_coflow(rec)

    def pop_block(
        self, horizon: float, flow_budget: Optional[int] = None
    ) -> Optional[CoflowBlock]:
        """Read every due line once into flat column lists, then hand the
        block to one :meth:`BlockBuilder.add_columns` call."""
        budget = math.inf if flow_budget is None else flow_budget
        builder = BlockBuilder()
        if budget <= 0 or not self._take_lookahead(builder, horizon):
            return None
        arrival, width, label, deadline, lines = [], [], [], [], []
        src, dst, size, comp, override = [], [], [], [], []
        add_src, add_dst, add_size = src.append, dst.append, size.append
        add_comp, add_override = comp.append, override.append
        n0 = n = builder.n_flows
        overshoot = None
        flow_cols = (src, dst, size, comp, override)
        try:
            while n < budget:
                rec = self._next_record()
                if rec is None:
                    self._exhausted = True
                    self._pre_cursor = None
                    break
                if self._last_arrival > horizon:
                    overshoot = rec
                    break
                flows = rec["flows"]
                for f in flows:
                    add_src(f["src"])
                    add_dst(f["dst"])
                    add_size(f["size"])
                    add_comp(f.get("compressible", True))
                    add_override(f.get("ratio_override"))
                label.append(rec.get("label", ""))
                arrival.append(self._last_arrival)
                width.append(len(flows))
                deadline.append(rec.get("deadline"))
                lines.append(self._lineno)
                n += len(flows)
        except (ConfigurationError, KeyError, TypeError, AttributeError) as exc:
            # A bad type on an earlier line is the first error.
            for col in flow_cols:
                del col[n - n0:]
            del label[len(width):]
            self._check_columns(lines, width, label, deadline, *flow_cols)
            if isinstance(exc, ConfigurationError):
                raise
            raise self._bad_line(exc) from exc
        if arrival:
            override = self._check_columns(
                lines, width, label, deadline, *flow_cols
            )
            builder.add_columns(
                arrival, src, dst, size, comp, override,
                width=width, label=label, deadline=deadline,
            )
        try:
            block = builder.build()
        except BlockRowError as exc:
            # the parsed coflows are the block's last len(lines) rows
            row = exc.row - (builder.n_coflows - len(lines))
            raise self._bad_line(exc, lines[row]) from exc
        if overshoot is not None:
            # stash it for the next tick; only after the block's ids are
            # reserved, because constructing the coflow draws its own
            self._buffered = self._to_coflow(overshoot)
            self._pre_cursor = {**self._cursor(), "lines": self._lines - 1}
        return block

    def _check_columns(
        self, lines: List[int], width: List[int], label, deadline,
        src, dst, size, comp, override,
    ) -> Optional[list]:
        """Check the parsed columns' JSON types, once per column, and
        return the override column with ``-1.0`` for "none" (``None``
        when no flow has an override).  The error names the line of the
        first record with a bad type; values are checked later, by the
        block."""
        bad = _bad_field(
            {"label": label, "deadline": deadline},
            {"src": src, "dst": dst, "size": size, "compressible": comp,
             "ratio_override": override},
            width,
        )
        if bad is None:
            if override.count(None) == len(override):
                return None
            if -1 in override:
                # the block's "no override" value; Flow rejects it
                j = override.index(-1)
                row = int(np.cumsum(width).searchsorted(j, side="right"))
                bad = (row, "ratio_override must lie in (0, 1), "
                            f"got {override[j]!r}")
        if bad is not None:
            raise self._bad_line(ConfigurationError(bad[1]), lines[bad[0]])
        return [-1.0 if r is None else r for r in override]

    def _close(self) -> None:
        if self._fh is not None and self._owns:
            self._fh.close()
        self._fh = None

    def _cursor(self) -> Dict[str, Any]:
        return {"kind": "jsonl", "lines": self._lines, "path": self.path}

    def _seek_cursor(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != "jsonl":
            raise ConfigurationError(f"cursor kind {state.get('kind')!r} != jsonl")
        if self.path == "-":
            raise ConfigurationError("cannot seek a stdin JSONL source")
        if self._lines:
            raise ConfigurationError("seek() requires a fresh source")
        target = int(state["lines"])
        # records, not coflows: skipping must draw no flow/coflow ids
        while self._lines < target:
            if self._next_record() is None:
                raise ConfigurationError(
                    f"JSONL cursor {target} beyond end of {self.path} ({self._lines} lines)"
                )
