"""Reading and summarising JSONL traces produced by :mod:`repro.obs`.

The writer side is :meth:`repro.obs.recorder.FlightRecorder.dump_jsonl`
(via :func:`repro.obs.trace.write_jsonl`); this module is the consumer:
load a trace back into typed records, slice it by kind or time, and render
a quick per-kind summary — the round-trip that ``python -m repro trace
<scenario> --out run.jsonl`` feeds.  The query helpers take any sequence
of records, so they work on a decoded recorder (``list(obs.recorder)``)
as well as on a file.
"""

from __future__ import annotations

from typing import Dict, IO, Iterator, List, Optional, Sequence, Set, Union

from repro.errors import ReproError
from repro.obs.trace import TraceRecord, record_from_json

__all__ = [
    "decision_timeline",
    "iter_trace",
    "kinds_at",
    "read_trace",
    "trace_summary",
]


def iter_trace(source: Union[str, IO[str]]) -> Iterator[TraceRecord]:
    """Stream records from a JSONL trace file or open text handle.

    Blank lines are skipped; a malformed line raises
    :class:`~repro.errors.ReproError` naming the line number.
    """
    if hasattr(source, "read"):
        yield from _iter_handle(source)  # type: ignore[arg-type]
        return
    with open(source, "r", encoding="utf-8") as fh:
        yield from _iter_handle(fh)


def _iter_handle(fh: IO[str]) -> Iterator[TraceRecord]:
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield record_from_json(line)
        except (ValueError, KeyError) as exc:
            raise ReproError(f"malformed trace line {lineno}: {exc}") from None


def read_trace(source: Union[str, IO[str]]) -> List[TraceRecord]:
    """Load a whole JSONL trace into memory, in file order."""
    return list(iter_trace(source))


def trace_summary(records: Sequence[TraceRecord]) -> Dict[str, int]:
    """Record count per kind (sorted by kind name)."""
    counts: Dict[str, int] = {}
    for r in records:
        counts[r.kind] = counts.get(r.kind, 0) + 1
    return dict(sorted(counts.items()))


def decision_timeline(records: Sequence[TraceRecord]) -> List[TraceRecord]:
    """The ``decision`` records in time order — one per scheduler wake-up.

    Each record's ``data["kinds"]`` holds the trigger kinds the scheduler
    saw (as ``EventKind`` names), which is how the tied-boundary regression
    test asserts that coincident events both reach the scheduler.
    """
    return sorted(
        (r for r in records if r.kind == "decision"), key=lambda r: r.t
    )


def kinds_at(
    records: Sequence[TraceRecord],
    t: float,
    tol: float = 1e-9,
    kinds: Optional[Set[str]] = None,
) -> Set[str]:
    """Record kinds present at simulated instant ``t`` (± ``tol``).

    ``kinds`` restricts the search to the given record kinds.
    """
    return {
        r.kind
        for r in records
        if abs(r.t - t) <= tol and (kinds is None or r.kind in kinds)
    }
