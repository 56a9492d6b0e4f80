"""Unbounded, resumable coflow arrival sources for the streaming service.

A batch experiment materialises its whole workload up front; a service
cannot.  :class:`ArrivalSource` is a pull-based stream of coflows in
arrival order with one raw record of lookahead (:meth:`~ArrivalSource.
peek` returns the next arrival time without consuming it), so the driver
can admit everything inside its horizon and leave the rest for later
ticks.

Two concrete sources:

* :class:`SyntheticSource` — seeded generator mirroring
  :func:`repro.traces.generator.generate_workload` per-coflow construction
  (log-uniform widths, configurable size distribution, uniform ports) with
  three inter-arrival modes: ``steady`` (Poisson), ``bursty`` (two-state
  on/off rate modulation) and ``diurnal`` (sinusoidal rate).
* :class:`JsonlSource` — one JSON object per line from a file or stdin.

Both expose ``state()``/``seek(state)`` so a checkpoint can record a
compact cursor and resume the stream exactly where it left off.

A source supplies only how to read its next raw record (a synthetic
draw, a parsed JSONL line) with its arrival, and how to append one
record's fields to a block's columns.  The one admission loop,
:meth:`ArrivalSource.pop_block`, drains every due record inside a
horizon (subject to a flow budget) into one
:class:`~repro.core.ingest.CoflowBlock`, built by one
:meth:`~repro.core.ingest.CoflowBlock.from_columns` call: the streaming
path constructs no ``Flow``/``Coflow`` objects and reserves ids once per
block.  :meth:`ArrivalSource.pop` is a one-coflow block turned into a
``Coflow``, so the ids are the ones the same coflows draw through
``pop_block``, and a blocked stream is bit-identical (ids included) to
the same stream popped object by object.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, IO, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.coflow import Coflow, check_arrival
from repro.core.ingest import (
    BlockRowError,
    CoflowBlock,
    coflow_from_columns,
    row_of_flow,
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


#: A block's columns as the two functions that fill and build them:
#: ``append(record)`` appends one raw record's fields, all but its
#: arrival, and returns its number of flows; ``build(arrivals)`` makes
#: the block of the records appended so far, arriving at ``arrivals``,
#: and draws its ids.
_Columns = Tuple[Callable[[Any], int], Callable[[List[float]], CoflowBlock]]


def _only_coflow(block: CoflowBlock) -> Coflow:
    """The coflow of a one-coflow block, with the ids the block drew."""
    return coflow_from_columns(
        block.src, block.dst, block.size, block.compressible,
        block.override, block.flow_id, arrival=block.arrival[0],
        label=block.label[0], deadline=block.deadline[0],
        coflow_id=block.coflow_id[0],
    )


class ArrivalSource:
    """Pull-based stream of coflows in non-decreasing arrival order.

    A subclass implements :meth:`_read` (its next raw record with the
    record's arrival and the cursor just before it) and :meth:`_columns`
    (how one record's fields are appended to a block's columns), plus
    :meth:`_cursor` / :meth:`_seek_cursor` for resume.  The base class
    keeps one raw record of lookahead, read by :meth:`peek`, :meth:`pop`
    and :meth:`pop_block` alike, and a :meth:`state` that points *before*
    it, so a restored source rereads the lookahead record identically.
    """

    def __init__(self) -> None:
        # (record, arrival, cursor before it): read, not yet taken
        self._ahead: Optional[Tuple[Any, float, Any]] = None
        self._exhausted = False

    def _read(self) -> Optional[Tuple[Any, float, Any]]:
        """The next raw record, its arrival and the cursor just before it
        (what :meth:`_cursor` accepts), or ``None`` at the end."""
        raise NotImplementedError

    def _columns(self) -> _Columns:
        """Empty columns for one block (see :data:`_Columns`).  A record
        is appended when it is taken, so the block holds its fields, not
        the records."""
        raise NotImplementedError

    def _cursor(self, at: Any = None) -> Dict[str, Any]:
        """The resumable cursor at ``at``, a cursor :meth:`_read`
        returned, or by default at the current position."""
        raise NotImplementedError

    def _seek_cursor(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def _lookahead(self) -> Optional[Tuple[Any, float, Any]]:
        if self._ahead is None and not self._exhausted:
            self._ahead = self._read()
            self._exhausted = self._ahead is None
        return self._ahead

    def peek(self) -> Optional[float]:
        """Arrival time of the next coflow, or ``None`` if exhausted."""
        ahead = self._lookahead()
        return None if ahead is None else float(ahead[1])

    def pop(self) -> Coflow:
        """Consume and return the next coflow: a one-coflow block, built
        as an object with the ids the block drew."""
        block = self.pop_block(math.inf, 1)
        if block is None:
            raise ConfigurationError("pop() on an exhausted arrival source")
        return _only_coflow(block)

    def pop_block(
        self, horizon: float, flow_budget: Optional[int] = None
    ) -> Optional[CoflowBlock]:
        """Drain every coflow with ``arrival <= horizon`` into one block.

        The flow budget is checked *before* each coflow, so the last one
        may overshoot it.  Returns ``None`` when nothing is due.  When
        reading a record fails, the records taken before it are built
        first, so the first bad record's error is the one raised.
        """
        budget = math.inf if flow_budget is None else flow_budget
        append, build = self._columns()
        arrivals: List[float] = []
        n = 0
        try:
            while n < budget:
                ahead = self._lookahead()
                if ahead is None or ahead[1] > horizon:
                    break
                n += append(ahead[0])
                arrivals.append(ahead[1])
                self._ahead = None
        except ConfigurationError:
            if arrivals:
                build(arrivals)
            raise
        return build(arrivals) if arrivals else None

    def row_error(self, block: CoflowBlock, exc: BlockRowError) -> ConfigurationError:
        """The error for row ``exc.row`` of a block this source built,
        refused at admission (a port beyond the fabric): ``exc``, or
        the same error naming where the source read that row."""
        return exc

    def state(self) -> Dict[str, Any]:
        """Compact resumable cursor pointing before any lookahead record."""
        return self._cursor(None if self._ahead is None else self._ahead[2])

    def seek(self, state: Dict[str, Any]) -> None:
        """Position a fresh source at a cursor from :meth:`state`."""
        if self._ahead is not None:
            raise ConfigurationError("seek() requires a fresh source")
        self._seek_cursor(state)


class SyntheticSource(ArrivalSource):
    """Seeded unbounded generator of coflows (see :class:`SourceSpec`)."""

    def __init__(self, spec: SourceSpec) -> None:
        if spec.kind != "synthetic":
            raise ConfigurationError("SyntheticSource needs a synthetic spec")
        super().__init__()
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._count = 0  # coflows drawn so far (cursor)
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

    def _read(self) -> Optional[Tuple[tuple, float, Dict[str, Any]]]:
        """Draw the next coflow: ``(label, src, dst, size, compressible)``
        arrays, its arrival and the cursor before the draw."""
        s = self.spec
        if s.limit is not None and self._count >= s.limit:
            return None
        cursor = self._cursor()
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
        raw = (f"cf{self._count}", srcs, dsts, sizes, compressible)
        self._count += 1
        return raw, self._clock, cursor

    def _columns(self) -> _Columns:
        draws: List[tuple] = []

        def append(raw: tuple) -> int:
            draws.append(raw)
            return raw[1].size

        def build(arrivals: List[float]) -> CoflowBlock:
            label, src, dst, size, compressible = zip(*draws)
            return CoflowBlock.from_columns(
                arrival=arrivals, width=[a.size for a in src], label=label,
                deadline=[None] * len(draws), src=np.concatenate(src),
                dst=np.concatenate(dst), size=np.concatenate(size),
                compressible=np.concatenate(compressible),
            )

        return append, build

    def _cursor(self, at: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        if at is not None:
            return dict(at)
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

#: A port is an int64; a number a double (the block's column dtypes).
_PORT_RANGE = (-(2**63), 2**63 - 1)
_FLOAT_MAX = sys.float_info.max

#: The errors a record of the wrong shape raises while it is read: a
#: missing key, a list where an object belongs, a non-number compared.
_SHAPE_ERRORS = (ConfigurationError, ValueError, KeyError, TypeError,
                 AttributeError)


def _out_of_range(name: str, v: Any) -> bool:
    """An integer field ``name``'s array cannot hold: int64 for a port,
    a double for a number (other values are typed)."""
    if v.__class__ is not int:
        return False
    if name in ("src", "dst"):
        return not _PORT_RANGE[0] <= v <= _PORT_RANGE[1]
    try:
        float(v)
    except OverflowError:
        return True
    return False


def _bad_field(
    coflow_cols: Dict[str, list], flow_cols: Dict[str, list],
    width: Sequence[int], ranges: bool = False,
) -> Optional[Tuple[int, str]]:
    """The first record holding a value of a type its field does not
    accept, or an integer a deadline's double cannot hold, as ``(record
    index, message)``, or ``None``; with ``ranges``, or once such a
    value is found, an integer a per-flow column's dtype cannot hold
    counts too.

    ``coflow_cols`` hold one value per record and ``flow_cols`` one per
    flow, each record's flows contiguous, ``width[i]`` of them.  Each
    column's set of types is taken once; only a column holding a bad
    type (or, scanning ranges, every column) is walked for its first
    bad value, and the deadlines only when one is an integer.
    """
    cols = [(name, col, False) for name, col in coflow_cols.items()]
    cols += [(name, col, True) for name, col in flow_cols.items()]
    if not ranges:
        deadline = coflow_cols["deadline"]
        ranges = any(
            not set(map(type, col)) <= _FIELD_TYPES[name][0]
            for name, col, _ in cols
        ) or (int in set(map(type, deadline))
              and any(_out_of_range("deadline", d) for d in deadline))
        if not ranges:
            return None
    bad = []
    for name, col, per_flow in cols:
        allowed, kind = _FIELD_TYPES[name]
        ranged = per_flow or name == "deadline"
        for i, v in enumerate(col):
            if type(v) not in allowed:
                message = f"{name} must be {kind}, got {v!r}"
            elif ranged and _out_of_range(name, v):
                message = f"{name} out of range, got {v!r}"
            else:
                continue
            bad.append((row_of_flow(width, i) if per_flow else i, message))
            break
    return min(bad, key=lambda b: b[0]) if bad else None


def _arrival_of(rec: Dict[str, Any]) -> Union[int, float]:
    """A record's arrival, checked: a non-negative, finite JSON number."""
    arrival = rec.get("arrival", 0.0)
    if arrival.__class__ not in _NUMBER:
        raise ConfigurationError(f"arrival must be a number, got {arrival!r}")
    if not 0 <= arrival <= _FLOAT_MAX:
        if _out_of_range("arrival", arrival):
            raise ConfigurationError(f"arrival out of range, got {arrival!r}")
        check_arrival(float(arrival))
    return arrival


def _record_columns(
    bad_line: Callable[[Exception, Any], ConfigurationError],
) -> _Columns:
    """Columns of parsed JSONL records: the one reader of the record
    format past its arrival (see :class:`JsonlSource`).

    Returns ``append`` and ``build`` (see :data:`_Columns`).  A record
    is appended as ``(record, line)``; each error is raised as
    ``bad_line(error, line)`` of the first bad record.  Appending makes one pass over the
    record's flows; building checks each column's JSON types once.
    """
    width, label, deadline, lines = [], [], [], []
    src, dst, size, comp, override = flow_cols = [], [], [], [], []
    add_src, add_dst, add_size = src.append, dst.append, size.append
    add_comp, add_override = comp.append, override.append
    per_coflow = {"label": label, "deadline": deadline}
    per_flow = {"src": src, "dst": dst, "size": size, "compressible": comp,
                "ratio_override": override}

    def append(record: Tuple[Dict[str, Any], Any]) -> int:
        rec, line = record
        try:
            flows = rec["flows"]
            for f in flows:
                add_src(f["src"])
                add_dst(f["dst"])
                add_size(f["size"])
                add_comp(f.get("compressible", True))
                add_override(f.get("ratio_override"))
        except (KeyError, TypeError, AttributeError) as exc:
            n = sum(width)
            for col in flow_cols:
                del col[n:]
            raise bad_line(exc, line) from exc
        width.append(len(flows))
        label.append(rec.get("label", ""))
        deadline.append(rec.get("deadline"))
        lines.append(line)
        return len(flows)

    def check(ranges: bool = False) -> bool:
        """Raise the first bad type (or, with ``ranges``, an integer its
        column cannot hold); return whether any flow has an override."""
        bad = _bad_field(per_coflow, per_flow, width, ranges)
        overrides = override.count(None) != len(override)
        if bad is None and overrides and -1 in override:
            # the block's "no override" value; Flow rejects it
            j = override.index(-1)
            bad = (row_of_flow(width, j),
                   f"ratio_override must lie in (0, 1), got {override[j]!r}")
        if bad is not None:
            raise bad_line(ConfigurationError(bad[1]), lines[bad[0]])
        return overrides

    def build(arrivals: List[float]) -> CoflowBlock:
        overrides = check()
        try:
            return CoflowBlock.from_columns(
                arrival=arrivals, width=width, label=label,
                deadline=deadline, src=src, dst=dst, size=size,
                compressible=comp,
                override=[-1.0 if r is None else r for r in override]
                if overrides else None,
                line=lines,
            )
        except BlockRowError as exc:
            raise bad_line(exc, lines[exc.row]) from exc
        except OverflowError:  # an integer its column's dtype cannot hold
            check(ranges=True)
            raise

    return append, build


def _no_line(exc: Exception, _line: Any) -> ConfigurationError:
    return ConfigurationError(f"bad JSONL coflow: {exc}")


def coflow_from_json(rec: Dict[str, Any]) -> Coflow:
    """Build a coflow from one parsed JSONL record as
    :meth:`JsonlSource.pop` does: through the source's columns and
    checks into a one-coflow block, then the block's one coflow.

    Raises :class:`ConfigurationError` when a field is missing, holds a
    JSON type it does not accept (see ``_FIELD_TYPES``) or a number its
    column cannot hold, or breaks a :class:`Flow`/:class:`Coflow`
    invariant."""
    try:
        arrival = _arrival_of(rec)
    except _SHAPE_ERRORS as exc:
        raise _no_line(exc, None) from exc
    append, build = _record_columns(_no_line)
    append((rec, None))
    return _only_coflow(build([arrival]))


class JsonlSource(ArrivalSource):
    """Coflows from a JSONL file (or stdin with path ``"-"``).

    Each line is an object ``{"arrival": t, "label": ..., "deadline": ...,
    "flows": [{"src", "dst", "size", "compressible"?, "ratio_override"?}]}``.
    Lines must be in non-decreasing arrival order; blank lines are skipped.
    The cursor is the number of non-blank lines consumed, so ``seek`` on a
    file re-opens and skips — stdin cannot seek.  Errors name the physical
    line, blank lines included.  Reading a line checks its JSON and its
    arrival; its other fields are checked when it is popped.

    A line is decoded by ``orjson.loads``; one orjson refuses (``NaN``,
    ``Infinity``, a number past a double, a lone surrogate escape, bad
    JSON) goes to ``json.loads``, so which lines are accepted and the
    text of every error are ``json.loads``'.  Only JSON whitespace may
    surround the object.  orjson reads an integer outside
    [-2**63, 2**64) as a float: the same double for a number field, a
    type error for a port.
    """

    def __init__(self, path: str, limit: Optional[int] = None) -> None:
        import orjson  # here, so only a run that reads JSONL loads it

        super().__init__()
        self._loads = orjson.loads
        self.path = path
        self.limit = limit
        self._lines = 0  # non-blank lines consumed: the cursor
        self._lineno = 0  # physical lines read: for error messages
        self._last_arrival = -math.inf
        if path == "-":
            self._fh: Optional[IO[str]] = sys.stdin
            self._owns = False
        else:
            try:
                self._fh = open(path, "r", encoding="utf-8")
            except OSError as exc:
                raise ConfigurationError(f"cannot read JSONL {path}: {exc}") from exc
            self._owns = True

    def _bad_line(
        self, exc: Exception, lineno: Optional[int] = None
    ) -> ConfigurationError:
        line = self._lineno if lineno is None else lineno
        return ConfigurationError(
            f"bad JSONL coflow on line {line} of {self.path}: {exc}"
        )

    def _read(self) -> Optional[Tuple[Tuple[Dict[str, Any], int], float, int]]:
        """Parse the next non-blank line: ``((record, physical line),
        arrival, lines consumed before it)``.  The arrival must be a
        non-negative, finite number, not below the previous line's."""
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
                    rec = self._loads(line)
                except ValueError:  # json.loads' verdict and message
                    rec = json.loads(line)
                arrival = _arrival_of(rec)
            except _SHAPE_ERRORS as exc:
                raise self._bad_line(exc) from exc
            if arrival < self._last_arrival:
                raise ConfigurationError(
                    f"JSONL arrivals must be non-decreasing; line {self._lineno} "
                    f"has arrival {arrival} after {self._last_arrival}"
                )
            self._last_arrival = arrival
            return (rec, self._lineno), arrival, self._lines - 1
        self._close()
        return None

    def _columns(self) -> _Columns:
        return _record_columns(self._bad_line)

    def row_error(self, block: CoflowBlock, exc: BlockRowError) -> ConfigurationError:
        return self._bad_line(exc, block.line[exc.row])

    def _close(self) -> None:
        if self._fh is not None and self._owns:
            self._fh.close()
        self._fh = None

    def _cursor(self, at: Optional[int] = None) -> Dict[str, Any]:
        lines = self._lines if at is None else at
        return {"kind": "jsonl", "lines": lines, "path": self.path}

    def _seek_cursor(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != "jsonl":
            raise ConfigurationError(f"cursor kind {state.get('kind')!r} != jsonl")
        if self.path == "-":
            raise ConfigurationError("cannot seek a stdin JSONL source")
        if self._lines:
            raise ConfigurationError("seek() requires a fresh source")
        target = int(state["lines"])
        # raw records only: skipping draws no flow/coflow ids
        while self._lines < target:
            if self._read() is None:
                raise ConfigurationError(
                    f"JSONL cursor {target} beyond end of {self.path} ({self._lines} lines)"
                )
