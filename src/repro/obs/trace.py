"""Trace records and their JSONL form.

A :class:`TraceRecord` is one traced event — a simulated timestamp, a
record kind, and a flat payload dict.  The engine and system layers
capture them in the :class:`~repro.obs.recorder.FlightRecorder`, which
decodes back to this record stream; :func:`write_jsonl` and
:func:`record_from_json` are the two ends of the JSONL format that
:mod:`repro.analysis.tracefile` reads.

Record kinds (the schema is documented in ``docs/observability.md``):

======================  ====================================================
kind                    payload
======================  ====================================================
``decision``            ``kinds`` (trigger kinds), ``n_flows``, ``n_coflows``
``jump``                ``n_slices``, ``kinds`` (what bounded the horizon)
``order``               ``units``: ranked ``[coflow_id, gamma, p, key]``
``rates``               ``n_tx``, ``total``, ``max`` of the rate vector
``beta``                ``flow_ids`` granted compression this window
``core_claim``          ``node``, ``claims`` per-node core claims
``arrival``             ``coflow_id``, ``n_flows``
``completion``          ``coflow_id`` (coflow done) / ``flow_id`` (flow done)
``cancel``              ``coflow_id``, ``n_flows`` aborted
``capacity``            ``side``, ``port``, ``capacity``
``bus``                 ``topic`` of a published message
``master_order``        master's ranked ``coflow_ids`` for a scheduling()
``heartbeat``           daemon measurement: ``node``, ``free_cores``
======================  ====================================================

Timestamps are simulated seconds (engine records) or ``-1`` for records
emitted outside simulated time (e.g. master RPCs driven by a test).
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Any, Dict, IO, Iterable, NamedTuple, Union

__all__ = ["TraceRecord", "record_from_json", "record_to_json", "write_jsonl"]


class TraceRecord(NamedTuple):
    """One traced event: when, what, and the typed payload."""

    t: float
    kind: str
    data: Dict[str, Any]


def _jsonable(value: Any) -> Any:
    """Coerce payload values to JSON-stable types (EventKind sets → names)."""
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value


def record_to_json(record: TraceRecord) -> str:
    """Serialise one record to a single JSON line."""
    payload = {"t": record.t, "kind": record.kind}
    payload.update(_jsonable(record.data))
    return json.dumps(payload, separators=(",", ":"))


def record_from_json(line: str) -> TraceRecord:
    """Parse one JSONL line back into a :class:`TraceRecord`.

    Raises :class:`ValueError` unless the line is a JSON object with a
    numeric ``t`` and a string ``kind`` (:class:`KeyError` if either is
    missing).
    """
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    t = obj.pop("t")
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ValueError(f"'t' must be a number, got {t!r}")
    kind = obj.pop("kind")
    if not isinstance(kind, str):
        raise ValueError(f"'kind' must be a string, got {kind!r}")
    return TraceRecord(t=float(t), kind=kind, data=obj)


def write_jsonl(dest: Union[str, IO[str]], records: Iterable[TraceRecord]) -> int:
    """Write records as JSON lines to a path or open handle; returns the count."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            return write_jsonl(fh, records)
    n = 0
    for rec in records:
        dest.write(record_to_json(rec))
        dest.write("\n")
        n += 1
    return n
