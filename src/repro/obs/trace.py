"""Trace records and their JSONL form.

A :class:`TraceRecord` is one traced event — a simulated timestamp, a
record kind, and a flat payload dict.  The engine and system layers
capture them in the :class:`~repro.obs.recorder.FlightRecorder`, which
decodes back to this record stream.  :func:`record_to_json` is the
reference JSONL encoding of one record — the recorder's columnar
``dump_jsonl`` writes the same bytes — and :func:`record_from_json` is
the reader end that :mod:`repro.analysis.tracefile` uses.

The record kinds and their payloads have one home: the table under
*Trace records* in ``docs/observability.md``.

Timestamps are simulated seconds.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Any, Dict, NamedTuple

__all__ = ["TraceRecord", "record_from_json", "record_to_json"]


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
