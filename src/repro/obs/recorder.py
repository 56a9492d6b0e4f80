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
and coflow level), ``cancel``.  Everything else (the
cluster simulator's ``job_stage``) arrives through the
per-record :meth:`FlightRecorder.emit` and is journaled one record at a
time — those kinds are per-decision scale, never per-flow.

Export: :meth:`~FlightRecorder.dump_jsonl` formats JSON lines straight
from the columns (one ``%`` template per stream, one ``%``-format and
``write`` per chunk of a batch) without building the records; its bytes
equal :func:`~repro.obs.trace.record_to_json` of each decoded record.
:meth:`~FlightRecorder.save_npz` writes every column to one ``.npz`` (no
pickling) and :meth:`~FlightRecorder.load_npz` restores a decodable
recorder; :meth:`~FlightRecorder.spill_npz` saves and clears, for
chunked unbounded runs.

NPZ round-trips preserve the JSONL rendering of every record exactly.
Columnar streams also keep their Python payload types (``kinds`` decode
back to ``EventKind`` sets); per-record events are stored as JSON lines,
so after a reload their payloads carry JSON types (sets become sorted
name lists — the same coercion ``dump_jsonl`` applies).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, IO, Iterator, List, Mapping, Union

import numpy as np

from repro.core.events import KIND_BIT, EventKind
from repro.obs.trace import TraceRecord, record_from_json, record_to_json

__all__ = ["NULL_RECORDER", "FlightRecorder"]

_BIT_KIND: Dict[int, EventKind] = {bit: kind for kind, bit in KIND_BIT.items()}


def _mask_to_kinds(mask: int) -> set:
    return {kind for bit, kind in _BIT_KIND.items() if mask & bit}


#: Stream codes (stable across NPZ round-trips; append-only).  Code 9
#: belonged to a retired stream and is never reused.
_DECISION, _JUMP, _RATES, _ARRIVAL, _FLOW_DONE, _COFLOW_DONE = range(6)
_BETA, _CLAIM, _CANCEL = range(6, 9)
_MISC, _ORDER = 10, 11

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
    _ORDER: {"coflow_id": np.int64, "gamma": np.float64, "p": np.float64},
}

_STREAM_NAME = {
    _DECISION: "decision", _JUMP: "jump", _RATES: "rates",
    _ARRIVAL: "arrival", _FLOW_DONE: "flow_done", _COFLOW_DONE: "coflow_done",
    _BETA: "beta", _CLAIM: "core_claim", _CANCEL: "cancel",
    _MISC: "misc", _ORDER: "order",
}

#: Trace-record kind decoded from each stream (``beta``/``order`` decode
#: one record per *batch*; the per-row streams decode one record per row).
_RECORD_KIND = {
    _DECISION: "decision", _JUMP: "jump", _RATES: "rates",
    _ARRIVAL: "arrival", _FLOW_DONE: "completion",
    _COFLOW_DONE: "completion", _BETA: "beta", _CLAIM: "core_claim",
    _CANCEL: "cancel", _ORDER: "order",
}

#: Streams whose whole batch decodes to a single record.
_BATCH_RECORD = frozenset({_BETA, _ORDER})

# ------------------------------------------------------------ JSONL lines
#: Rows formatted per ``write``: a huge retirement batch is never held
#: whole as Python objects or text.
_CHUNK = 4096

_NONFINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _num(x: float) -> str:
    """A float exactly as ``json.dumps`` renders it."""
    if x - x == 0.0:  # finite
        return repr(x)
    return _NONFINITE.get(x, "NaN")


def _floats(col: np.ndarray) -> list:
    """JSON text of each float in ``col``.  A column of one *bit pattern*
    (an FVDF decision's Γ, P and key) renders once; comparing bits, not
    values, keeps ``-0.0`` apart from ``0.0``."""
    bits = col.view(np.int64)
    if (bits == bits[0]).all():
        return [_num(x) for x in col[:1].tolist()] * col.size
    return [_num(x) for x in col.tolist()]


class _KindsJson(dict):
    """``kinds`` mask -> its JSON array of sorted names, rendered once per
    distinct mask."""

    def __missing__(self, mask: int) -> str:
        text = self[mask] = json.dumps(
            sorted(kind.name for kind in _mask_to_kinds(mask)),
            separators=(",", ":"),
        )
        return text


#: ``%`` template of each stream's payload: one ``%s`` per ``_LAYOUT`` column
#: (and ``order``'s key ``gamma/p``), keys in decoded order.  A per-row line
#: is the batch head, this and ``}\n``; ``beta``/``order`` give ``(key, item)``.
_TEMPLATES = {
    _DECISION: '"kinds":%s,"n_flows":%s,"n_coflows":%s',
    _JUMP: '"n_slices":%s,"kinds":%s',
    _RATES: '"n_tx":%s,"total":%s,"max":%s',
    _ARRIVAL: '"coflow_id":%s,"n_flows":%s',
    _FLOW_DONE: '"flow_id":%s,"coflow_id":%s',
    _COFLOW_DONE: '"coflow_id":%s',
    _CLAIM: '"node":%s,"claims":%s',
    _CANCEL: '"coflow_id":%s,"n_flows":%s',
    _BETA: ("flow_ids", "%s"),
    _ORDER: ("units", "[%s,%s,%s,%s]"),
}


def _chunk_args(code: int, cols: dict, lo: int, hi: int, kinds: dict) -> tuple:
    """Rows ``lo:hi`` of a stream as the flat, row-major ``%`` arguments of
    its template: ints as Python ints, floats and ``kinds`` as JSON text;
    ``order``'s key ``gamma/p`` is one IEEE division, as Python's ``/``."""
    texts = []
    for name in _LAYOUT[code]:
        col = cols[name][lo:hi]
        if name == "kinds":
            texts.append([kinds[m] for m in col.tolist()])
        elif col.dtype == np.float64:
            texts.append(_floats(col))
        else:
            texts.append(col.tolist())
    if code == _ORDER:
        with np.errstate(all="ignore"):
            texts.append(_floats(cols["gamma"][lo:hi] / cols["p"][lo:hi]))
    k = len(texts)
    args = [None] * (k * (hi - lo))
    for i, text in enumerate(texts):
        args[i::k] = text
    return tuple(args)


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

    def add_decision(self, t, mask, n_flows, n_coflows) -> None:
        """``mask``: the trigger's kinds mask
        (:func:`repro.core.events.mask_of`)."""
        cols, a = self._rows(_DECISION, float(t), 1)
        cols["kinds"][a] = mask
        cols["n_flows"][a] = n_flows
        cols["n_coflows"][a] = n_coflows

    def add_jump(self, t, n_slices, mask) -> None:
        """``mask``: the kinds mask of the events ending the jump."""
        cols, a = self._rows(_JUMP, float(t), 1)
        cols["n_slices"][a] = n_slices
        cols["kinds"][a] = mask

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
        ``units`` payload (``[coflow_id, gamma, p, gamma/p]`` per unit,
        the key recomputed from the stored columns), so a zero ``p``
        raises ``ValueError`` here.  Unlike the per-row streams an empty
        batch is journaled (it decodes to ``units=[]``): FVDF records an
        ``order`` even when no units are rankable.
        """
        k = len(coflow_ids)
        if np.count_nonzero(ps) < len(ps):
            i = int(np.flatnonzero(np.equal(ps, 0.0))[0])
            raise ValueError(f"order unit {i} (coflow {coflow_ids[i]}) has "
                             "priority class P = 0; its key gamma/P is undefined")
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

    # Per-record events for kinds without a columnar stream (job stages
    # — per-decision scale).  Call sites guard on ``enabled`` before
    # building the payload.
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
    def _batches(self) -> Iterator[tuple]:
        """The journal as ``(stream, t, start, count)`` Python tuples."""
        jl = self._journal
        n = jl.n
        return zip(
            *(jl.cols[name][:n].tolist()
              for name in ("stream", "t", "start", "count"))
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        """Decode the batches back into the record stream, in order."""
        # ``tolist`` per batch: payload values are Python ints and floats.
        for code, t, a, count in self._batches():
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
        """Write the decoded stream as JSON lines to a path or open
        handle; returns the record count.

        Lines are formatted straight from the columns, one ``%`` of the
        stream's template per :data:`_CHUNK` rows (:func:`_chunk_args`),
        byte-identical to ``record_to_json`` of each decoded record.
        """
        if not hasattr(dest, "write"):
            with open(dest, "w", encoding="utf-8") as fh:
                return self.dump_jsonl(fh)
        write = dest.write
        kinds = _KindsJson()
        for code, t, a, count in self._batches():
            if code == _MISC:
                write(record_to_json(self._misc[a]) + "\n")
                continue
            head = f'{{"t":{_num(t)},"kind":"{_RECORD_KIND[code]}",'
            cols = self._streams[code].cols
            spans = [(lo, min(lo + _CHUNK, a + count))
                     for lo in range(a, a + count, _CHUNK)]
            if code not in _BATCH_RECORD:
                line = head + _TEMPLATES[code] + "}\n"
                for lo, hi in spans:
                    write(line * (hi - lo) % _chunk_args(code, cols, lo, hi, kinds))
                continue
            # One record per batch: its array is written chunk by chunk.
            key, item = _TEMPLATES[code]
            write(f'{head}"{key}":[')
            for lo, hi in spans:
                items = ",".join([item] * (hi - lo))
                write(("," if lo > a else "")
                      + items % _chunk_args(code, cols, lo, hi, kinds))
            write("]}\n")
        return len(self)

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
        """Restore a recorder saved by :meth:`save_npz`.

        Raises :class:`ValueError` if the journal names a stream this
        recorder does not have (code 9, the retired ``capacity`` stream).
        """
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
        unknown = set(jl.cols["stream"].tolist()) - set(_STREAM_NAME)
        if unknown:
            raise ValueError(f"{path} journals unknown stream codes "
                             f"{sorted(unknown)} (a retired stream)")
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
