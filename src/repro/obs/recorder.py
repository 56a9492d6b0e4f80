"""Columnar flight recorder: the one trace sink of the engine.

The engine hands the :class:`FlightRecorder` whole event *batches* — an
arrival batch, a retirement batch, a decision record, a rate summary —
as ndarray columns, appended to growable column buffers.  No per-flow
Python runs on the hot path; the cost of recording a 10k-flow
retirement batch is a handful of vectorized copies, and tracing never
forces the engine to materialize per-flow result objects.

Interleaving is preserved by a **batch journal**: one compact row per
append (stream id, timestamp, start row, row count) in emission order.
Iterating the recorder walks the journal and re-expands each batch into
the :class:`~repro.obs.trace.TraceRecord` stream, in emission order —
the stream :mod:`repro.analysis.tracefile` and ``python -m repro trace``
consume.

Record kinds with columnar streams: ``decision``, ``jump``, ``rates``,
``beta``, ``order``, ``core_claim``, ``arrival``, ``completion`` (flow
and coflow level), ``cancel``, ``capacity``.  Everything else (``bus``,
``heartbeat``, ``master_order``, ``job_stage`` …) arrives through the
per-record :meth:`FlightRecorder.emit` and is journaled one record at a
time — those kinds are per-decision scale, never per-flow.

Export: :meth:`~FlightRecorder.dump_jsonl` writes the decoded stream as
JSON lines; :meth:`~FlightRecorder.save_npz` writes every column to one
``.npz`` (no pickling) and :meth:`~FlightRecorder.load_npz` restores a
decodable recorder; :meth:`~FlightRecorder.spill_npz` saves and clears,
for chunked unbounded runs.

NPZ round-trips preserve the JSONL rendering of every record exactly.
Columnar streams also keep their Python payload types (``kinds`` decode
back to ``EventKind`` sets); per-record events are stored as JSON lines,
so after a reload their payloads carry JSON types (sets become sorted
name lists — the same coercion ``dump_jsonl`` applies).
"""

from __future__ import annotations

from typing import Any, Dict, IO, Iterator, List, Mapping, Union

import numpy as np

from repro.core.events import EventKind
from repro.obs.trace import (
    TraceRecord, record_from_json, record_to_json, write_jsonl,
)

__all__ = ["NULL_RECORDER", "FlightRecorder"]

#: Bit assigned to each EventKind in the packed ``kinds`` masks.
_KIND_BIT: Dict[EventKind, int] = {
    kind: 1 << i for i, kind in enumerate(EventKind)
}
_BIT_KIND: Dict[int, EventKind] = {bit: kind for kind, bit in _KIND_BIT.items()}


def _kinds_to_mask(kinds) -> int:
    mask = 0
    for k in kinds:
        mask |= _KIND_BIT[k]
    return mask


def _mask_to_kinds(mask: int) -> set:
    return {kind for bit, kind in _BIT_KIND.items() if mask & bit}


#: Stream codes (stable across NPZ round-trips; append-only).
_DECISION, _JUMP, _RATES, _ARRIVAL, _FLOW_DONE, _COFLOW_DONE = range(6)
_BETA, _CLAIM, _CANCEL, _CAPACITY, _MISC, _ORDER = range(6, 12)

#: Column layout of each columnar stream (name -> dtype).
_LAYOUT: Dict[int, Dict[str, type]] = {
    _DECISION: {"kinds": np.int64, "n_flows": np.int64, "n_coflows": np.int64},
    _JUMP: {"n_slices": np.int64, "kinds": np.int64},
    _RATES: {"n_tx": np.int64, "total": np.float64, "max": np.float64},
    _ARRIVAL: {"coflow_id": np.int64, "n_flows": np.int64},
    _FLOW_DONE: {"flow_id": np.int64, "coflow_id": np.int64},
    _COFLOW_DONE: {"coflow_id": np.int64},
    _BETA: {"flow_id": np.int64},
    _CLAIM: {"node": np.int64, "claims": np.int64},
    _CANCEL: {"coflow_id": np.int64, "n_flows": np.int64},
    _CAPACITY: {"side": np.int64, "port": np.int64, "capacity": np.float64},
    _ORDER: {"coflow_id": np.int64, "gamma": np.float64, "p": np.float64},
}

_STREAM_NAME = {
    _DECISION: "decision", _JUMP: "jump", _RATES: "rates",
    _ARRIVAL: "arrival", _FLOW_DONE: "flow_done", _COFLOW_DONE: "coflow_done",
    _BETA: "beta", _CLAIM: "core_claim", _CANCEL: "cancel",
    _CAPACITY: "capacity", _MISC: "misc", _ORDER: "order",
}

#: Trace-record kind decoded from each stream (``beta``/``order`` decode
#: one record per *batch*; the per-row streams decode one record per row).
_RECORD_KIND = {
    _DECISION: "decision", _JUMP: "jump", _RATES: "rates",
    _ARRIVAL: "arrival", _FLOW_DONE: "completion",
    _COFLOW_DONE: "completion", _BETA: "beta", _CLAIM: "core_claim",
    _CANCEL: "cancel", _CAPACITY: "capacity", _ORDER: "order",
}

#: Streams whose whole batch decodes to a single record.
_BATCH_RECORD = frozenset({_BETA, _ORDER})

_SIDES = ("ingress", "egress")


class _Columns:
    """A set of growable, same-length column buffers (growth doubles)."""

    __slots__ = ("cols", "n", "cap")

    def __init__(self, layout: Mapping[str, type]):
        self.cols = {name: np.empty(0, dtype=dt) for name, dt in layout.items()}
        self.n = 0
        self.cap = 0

    def reserve(self, count: int) -> int:
        """Claim ``count`` more rows; returns the first one's index."""
        a = self.n
        if a + count > self.cap:
            self.cap = max(64, 2 * self.cap, a + count)
            for name, arr in self.cols.items():
                grown = np.empty(self.cap, dtype=arr.dtype)
                grown[:a] = arr[:a]
                self.cols[name] = grown
        self.n = a + count
        return a

    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.cols.values())


class FlightRecorder:
    """Batch-native trace sink with lossless decode to ``TraceRecord``.

    The engine-facing ``add_*`` methods append one batch each; the
    per-record :meth:`emit` journals a single event for kinds without a
    columnar stream.  Iterating the recorder decodes the stream in
    emission order.
    """

    __slots__ = ("enabled", "_streams", "_journal", "_misc")

    def __init__(self):
        self.enabled = True
        self._streams = {
            code: _Columns(layout) for code, layout in _LAYOUT.items()
        }
        self._journal = _Columns(
            {"stream": np.int64, "t": np.float64,
             "start": np.int64, "count": np.int64}
        )
        self._misc: List[TraceRecord] = []

    # ------------------------------------------------------------- appends
    def _journal_batch(self, code: int, t: float, start: int, count: int) -> None:
        jl = self._journal
        j = jl.reserve(1)
        jc = jl.cols
        jc["stream"][j] = code
        jc["t"][j] = t
        jc["start"][j] = start
        jc["count"][j] = count

    def _rows(self, code: int, t: float, count: int):
        """Reserve ``count`` rows in a stream and journal them; returns the
        stream's columns and the first reserved row."""
        st = self._streams[code]
        a = st.reserve(count)
        self._journal_batch(code, t, a, count)
        return st.cols, a

    def add_decision(self, t, kinds, n_flows, n_coflows) -> None:
        cols, a = self._rows(_DECISION, float(t), 1)
        cols["kinds"][a] = _kinds_to_mask(kinds)
        cols["n_flows"][a] = n_flows
        cols["n_coflows"][a] = n_coflows

    def add_jump(self, t, n_slices, kinds) -> None:
        cols, a = self._rows(_JUMP, float(t), 1)
        cols["n_slices"][a] = n_slices
        cols["kinds"][a] = _kinds_to_mask(kinds)

    def add_rates(self, t, n_tx, total, max_rate) -> None:
        cols, a = self._rows(_RATES, float(t), 1)
        cols["n_tx"][a] = n_tx
        cols["total"][a] = total
        cols["max"][a] = max_rate

    def add_arrivals(self, t, coflow_ids, n_flows) -> None:
        """One arrival batch: per-coflow id and width columns."""
        k = len(coflow_ids)
        if k == 0:
            return
        cols, a = self._rows(_ARRIVAL, float(t), k)
        cols["coflow_id"][a:a + k] = coflow_ids
        cols["n_flows"][a:a + k] = n_flows

    def add_flow_completions(self, t, flow_ids, coflow_ids) -> None:
        """One retirement batch: every flow that finished at ``t``."""
        k = len(flow_ids)
        if k == 0:
            return
        cols, a = self._rows(_FLOW_DONE, float(t), k)
        cols["flow_id"][a:a + k] = flow_ids
        cols["coflow_id"][a:a + k] = coflow_ids

    def add_coflow_completions(self, t, coflow_ids) -> None:
        k = len(coflow_ids)
        if k == 0:
            return
        cols, a = self._rows(_COFLOW_DONE, float(t), k)
        cols["coflow_id"][a:a + k] = coflow_ids

    def add_beta(self, t, flow_ids) -> None:
        """The flows granted compression this window (one record)."""
        k = len(flow_ids)
        if k == 0:
            return
        cols, a = self._rows(_BETA, float(t), k)
        cols["flow_id"][a:a + k] = flow_ids

    def add_order(self, t, coflow_ids, gammas, ps) -> None:
        """FVDF's ranked unit order for one decision (one record).

        Rows arrive in ranking order; the decoded record carries the
        ``units`` payload (``[coflow_id, gamma, p, gamma/p]`` per
        unit, the key recomputed from the stored columns).

        Unlike the per-row streams there is deliberately no ``k == 0``
        early return: FVDF records an ``order`` even when no units are
        rankable, so an empty batch journals (and decodes to
        ``units=[]``).
        """
        k = len(coflow_ids)
        cols, a = self._rows(_ORDER, float(t), k)
        cols["coflow_id"][a:a + k] = coflow_ids
        cols["gamma"][a:a + k] = gammas
        cols["p"][a:a + k] = ps

    def add_core_claims(self, t, nodes, claims) -> None:
        k = len(nodes)
        if k == 0:
            return
        cols, a = self._rows(_CLAIM, float(t), k)
        cols["node"][a:a + k] = nodes
        cols["claims"][a:a + k] = claims

    def add_cancel(self, t, coflow_id, n_flows) -> None:
        cols, a = self._rows(_CANCEL, float(t), 1)
        cols["coflow_id"][a] = coflow_id
        cols["n_flows"][a] = n_flows

    def add_capacity(self, t, side, port, capacity) -> None:
        cols, a = self._rows(_CAPACITY, float(t), 1)
        cols["side"][a] = _SIDES.index(side)
        cols["port"][a] = port
        cols["capacity"][a] = capacity

    # Per-record events for kinds without a columnar stream (scheduler
    # orderings, bus traffic, heartbeats — per-decision scale).  Call
    # sites guard on ``enabled`` before building the payload.
    def emit(self, t: float, kind: str, **data: Any) -> None:
        if not self.enabled:
            return
        self._misc.append(TraceRecord(t=float(t), kind=kind, data=data))
        self._journal_batch(_MISC, float(t), len(self._misc) - 1, 1)

    def clear(self) -> None:
        """Drop every buffered batch (buffers stay allocated)."""
        for st in self._streams.values():
            st.n = 0
        self._journal.n = 0
        self._misc.clear()

    # -------------------------------------------------------------- decode
    def __iter__(self) -> Iterator[TraceRecord]:
        """Decode the batches back into the record stream, in order."""
        jl = self._journal
        n = jl.n
        journal = zip(
            *(jl.cols[name][:n].tolist()
              for name in ("stream", "t", "start", "count"))
        )
        # ``tolist`` per batch: payload values are Python ints and floats.
        for code, t, a, count in journal:
            b = a + count
            if code == _MISC:
                yield self._misc[a]
                continue
            cols = self._streams[code].cols
            if code == _DECISION:
                yield TraceRecord(t, "decision", {
                    "kinds": _mask_to_kinds(int(cols["kinds"][a])),
                    "n_flows": int(cols["n_flows"][a]),
                    "n_coflows": int(cols["n_coflows"][a]),
                })
            elif code == _JUMP:
                yield TraceRecord(t, "jump", {
                    "n_slices": int(cols["n_slices"][a]),
                    "kinds": _mask_to_kinds(int(cols["kinds"][a])),
                })
            elif code == _RATES:
                yield TraceRecord(t, "rates", {
                    "n_tx": int(cols["n_tx"][a]),
                    "total": float(cols["total"][a]),
                    "max": float(cols["max"][a]),
                })
            elif code == _ARRIVAL:
                for cid, width in zip(cols["coflow_id"][a:b].tolist(),
                                      cols["n_flows"][a:b].tolist()):
                    yield TraceRecord(t, "arrival", {
                        "coflow_id": cid, "n_flows": width,
                    })
            elif code == _FLOW_DONE:
                for fid, cid in zip(cols["flow_id"][a:b].tolist(),
                                    cols["coflow_id"][a:b].tolist()):
                    yield TraceRecord(t, "completion", {
                        "flow_id": fid, "coflow_id": cid,
                    })
            elif code == _COFLOW_DONE:
                for cid in cols["coflow_id"][a:b].tolist():
                    yield TraceRecord(t, "completion", {"coflow_id": cid})
            elif code == _BETA:
                yield TraceRecord(t, "beta", {
                    "flow_ids": cols["flow_id"][a:b].tolist(),
                })
            elif code == _ORDER:
                yield TraceRecord(t, "order", {
                    "units": [
                        [cid, g, p, g / p]
                        for cid, g, p in zip(cols["coflow_id"][a:b].tolist(),
                                             cols["gamma"][a:b].tolist(),
                                             cols["p"][a:b].tolist())
                    ],
                })
            elif code == _CLAIM:
                for node, claims in zip(cols["node"][a:b].tolist(),
                                        cols["claims"][a:b].tolist()):
                    yield TraceRecord(t, "core_claim", {
                        "node": node, "claims": claims,
                    })
            elif code == _CANCEL:
                yield TraceRecord(t, "cancel", {
                    "coflow_id": int(cols["coflow_id"][a]),
                    "n_flows": int(cols["n_flows"][a]),
                })
            elif code == _CAPACITY:
                yield TraceRecord(t, "capacity", {
                    "side": _SIDES[int(cols["side"][a])],
                    "port": int(cols["port"][a]),
                    "capacity": float(cols["capacity"][a]),
                })

    # ----------------------------------------------------------- inspection
    def __len__(self) -> int:
        """Decoded record count (no decoding done)."""
        return sum(self.counts().values())

    @property
    def batches(self) -> int:
        """Batch count (journal rows)."""
        return self._journal.n

    def counts(self) -> Dict[str, int]:
        """Decoded record count per kind, computed from the journal."""
        jl = self._journal
        jc = jl.cols
        stream = jc["stream"][: jl.n]
        count = jc["count"][: jl.n]
        out: Dict[str, int] = {}
        for code, kind in _RECORD_KIND.items():
            mask = stream == code
            if not mask.any():
                continue
            n = int(np.count_nonzero(mask)) if code in _BATCH_RECORD else int(
                count[mask].sum()
            )
            out[kind] = out.get(kind, 0) + n
        for idx in np.nonzero(stream == _MISC)[0]:
            kind = self._misc[int(jc["start"][idx])].kind
            out[kind] = out.get(kind, 0) + 1
        return out

    def nbytes(self) -> int:
        """Allocated column-buffer bytes (journal included)."""
        return self._journal.nbytes() + sum(
            st.nbytes() for st in self._streams.values()
        )

    def summary(self) -> Dict[str, Any]:
        """Compact telemetry summary (no decoding)."""
        return {
            "records": len(self),
            "batches": self.batches,
            "nbytes": self.nbytes(),
            "counts": self.counts(),
        }

    # --------------------------------------------------------------- export
    def dump_jsonl(self, dest: Union[str, IO[str]]) -> int:
        """Write the decoded stream as JSON lines; returns the count."""
        return write_jsonl(dest, self)

    def save_npz(self, path) -> None:
        """Write every column to one ``.npz`` (no pickling).

        Per-record events are stored as JSON lines (their decoded
        payloads carry JSON types after a reload, exactly as in
        ``dump_jsonl``).
        """
        jl = self._journal
        arrays: Dict[str, np.ndarray] = {}
        for code, st in self._streams.items():
            for name, arr in st.cols.items():
                arrays[f"{_STREAM_NAME[code]}.{name}"] = arr[: st.n]
        arrays["misc.json"] = np.asarray(
            [record_to_json(r) for r in self._misc], dtype=str
        )
        for name, arr in jl.cols.items():
            arrays[f"journal.{name}"] = arr[: jl.n]
        np.savez_compressed(path, **arrays)

    def spill_npz(self, path) -> int:
        """Save the batches to ``path`` and clear the buffers.

        Returns the number of records spilled — chunked export for
        unbounded runs: spill every N batches, concatenate offline.
        """
        n = len(self)
        self.save_npz(path)
        self.clear()
        return n

    @classmethod
    def load_npz(cls, path) -> "FlightRecorder":
        """Restore a recorder saved by :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as data:
            rec = cls()
            for code, st in rec._streams.items():
                prefix = _STREAM_NAME[code]
                n = None
                for name in st.cols:
                    arr = np.array(data[f"{prefix}.{name}"])
                    st.cols[name] = arr
                    n = arr.size
                st.n = st.cap = n or 0
            rec._misc = [
                record_from_json(line) for line in data["misc.json"].tolist()
            ]
            jl = rec._journal
            jl.cols = {
                "stream": np.array(data["journal.stream"]),
                "t": np.array(data["journal.t"]),
                "start": np.array(data["journal.start"]),
                "count": np.array(data["journal.count"]),
            }
            jl.n = jl.cap = jl.cols["stream"].size
        return rec

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder records={len(self)} batches={self.batches}>"
        )


class _NullFlightRecorder(FlightRecorder):
    """Permanently-disabled recorder; every append is a no-op."""

    def __init__(self):
        super().__init__()
        self.enabled = False

    def _rows(self, code, t, count):  # pragma: no cover - belt and braces
        raise RuntimeError("NULL_RECORDER cannot record")


#: Shared disabled recorder — the default wherever a recorder is accepted.
NULL_RECORDER = _NullFlightRecorder()
