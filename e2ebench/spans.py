"""In-memory call spans for the traced benchmark run.

A :class:`Tracer` rebinds named attributes -- module functions or
instance methods -- with wrappers that record one span per call: name,
start, end, parent span and run id.  Spans stay in memory and are
written out once, when the run ends.  Every rebinding is logged;
:meth:`Tracer.restore` undoes it and :meth:`Tracer.unrestored` proves
that a traced pass left the program exactly as it found it.

A span's *self time* is its duration minus the part covered by its
child spans; the root span of a pass has the unattributed remainder as
its self time, so the self times of one pass sum to the pass wall.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

_MISSING = object()


@dataclass
class Span:
    """One recorded call (or explicit interval)."""

    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    run: int


class Tracer:
    """Span recorder, per-layer counters, and the rebinding log."""

    def __init__(self, run: int = 0) -> None:
        self.spans: List[Span] = []
        self.run = run
        #: counts recorded at the same boundaries as the spans
        self.counts: Dict[str, float] = {}
        #: per-call samples (e.g. active flows per decision)
        self.samples: Dict[str, List[float]] = {}
        self._stack: List[int] = []
        # (owner, attr, value in owner.__dict__ before rebinding or _MISSING)
        self._touched: List[tuple] = []
        self._pending: List[tuple] = []

    # ------------------------------------------------------------ recording
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(sid, name, time.perf_counter(), 0.0, parent, self.run)
        )
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} was open")

    def interval(self, name: str, start: float, end: float) -> None:
        """Record an already-finished interval as a child of the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(len(self.spans), name, start, end, parent, self.run)
        )

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------ rebinding
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Union[str, Callable[..., str]],
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a callable of the call's ``(*args, **kwargs)``
        that picks the span name per call.  ``before(*args, **kwargs)``
        runs just before the span opens; ``after(result, *args,
        **kwargs)`` runs inside it, after the call returns.
        """
        inner = getattr(owner, attr)
        entry = (owner, attr, vars(owner).get(attr, _MISSING))
        self._touched.append(entry)
        self._pending.append(entry)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = tracer.open(name(*args, **kwargs) if callable(name) else name)
            try:
                out = inner(*args, **kwargs)
                if after is not None:
                    after(out, *args, **kwargs)
            finally:
                tracer.close(sid)
            return out

        wrapper.__wrapped__ = inner  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every rebinding, newest first."""
        while self._pending:
            owner, attr, old = self._pending.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def targets(self) -> List[Tuple[Any, str]]:
        """Every ``(owner, attr)`` this tracer has rebound."""
        return [(owner, attr) for owner, attr, _ in self._touched]

    def unrestored(self) -> List[str]:
        """Rebound attributes that do not hold their original value."""
        return [
            f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
            for owner, attr, old in self._touched
            if vars(owner).get(attr, _MISSING) is not old
        ]

    # ------------------------------------------------------------- analysis
    def self_times(self) -> Dict[str, float]:
        """Per-name self time in seconds, summed over all spans."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out: Dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + (
                sp.end - sp.start - child[sp.sid]
            )
        return out

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``."""
        return [sp.end - sp.start for sp in self.spans if sp.name == name]


def dump_jsonl(tracers, path) -> None:
    """Write the spans of every tracer as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for sp in tracer.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
