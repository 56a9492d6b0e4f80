"""Event kinds and the arrival calendar of the slice-based engine.

The engine observes the world only at *slice boundaries* (Section IV-B1 of
the paper: scheduling decisions are recomputed per time slice, and
preemption happens at coflow arrivals/completions).  Between two decision
points nothing about the allocation changes, so the engine fast-forwards in
closed form; the events here mark why a decision point occurred.

Two calendar implementations live here:

* :class:`ArrivalCalendar` — the columnar calendar the engine uses: three
  sorted ndarray columns (arrival time, insertion sequence, coflow *slot*)
  with staged batch appends, span-returning ``pop_due`` and lazy
  cancellation through a discard set instead of a per-call predicate.
* :class:`HeapCalendar` — the original ``heapq``-of-``(arrival, counter,
  Coflow)`` calendar.  Only the pre-columnar test oracle
  (:class:`repro.core.reference.PreColumnarSliceSimulator`) uses it;
  ``tests/test_events.py`` checks its ordering and lazy-prune semantics
  directly.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.coflow import Coflow


class EventKind(Enum):
    """Why the engine woke the scheduler up.

    Each value is the kind's bit in a kinds mask.  Recordings store
    masks, so a bit is never reused: bit 4 belonged to a retired kind.
    """

    START = 1 << 0  # first decision point of the run
    ARRIVAL = 1 << 1  # one or more coflows became active
    COMPLETION = 1 << 2  # one or more flows/coflows finished
    RAW_EXHAUSTED = 1 << 3  # a compressing flow ran out of raw bytes
    HORIZON = 1 << 5  # run(until=...) boundary reached


#: Bit of each :class:`EventKind` in a kinds mask.
KIND_BIT: Dict[EventKind, int] = {kind: kind.value for kind in EventKind}


def kinds_of(mask: int) -> FrozenSet[EventKind]:
    """The event kinds set in ``mask``."""
    return frozenset(kind for kind, bit in KIND_BIT.items() if mask & bit)


def mask_of(kinds: Iterable[EventKind]) -> int:
    """The mask with the bit of every kind in ``kinds`` set."""
    mask = 0
    for kind in kinds:
        mask |= KIND_BIT[kind]
    return mask


_ARRIVAL_OR_COMPLETION = KIND_BIT[EventKind.ARRIVAL] | KIND_BIT[EventKind.COMPLETION]


class ScheduleTrigger:
    """The set of event kinds observed at the current slice boundary.

    Held as an int ``mask`` (see :data:`KIND_BIT`): the engine ORs bits
    in at every step, which costs no ``Enum.__hash__`` call the way set
    inserts and lookups do.  :attr:`kinds` reads the mask back as a set.
    The constructor takes a set of ``kinds`` (the public form) or, from
    the engine, a ready ``mask``.
    """

    __slots__ = ("mask",)

    def __init__(self, kinds: Iterable[EventKind] = (), mask: int = 0):
        self.mask = mask | mask_of(kinds) if kinds else mask

    @property
    def kinds(self) -> FrozenSet[EventKind]:
        return kinds_of(self.mask)

    @property
    def has_arrival(self) -> bool:
        return bool(self.mask & KIND_BIT[EventKind.ARRIVAL])

    @property
    def has_completion(self) -> bool:
        return bool(self.mask & KIND_BIT[EventKind.COMPLETION])

    @property
    def is_preemption_point(self) -> bool:
        """Arrivals and completions are the paper's preemption points."""
        return bool(self.mask & _ARRIVAL_OR_COMPLETION)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScheduleTrigger):
            return NotImplemented
        return self.mask == other.mask

    def __repr__(self) -> str:
        names = sorted(kind.name for kind in self.kinds)
        return f"ScheduleTrigger({{{', '.join(names)}}})"


#: What :meth:`ArrivalCalendar.pop_due` returns when nothing is due.
_NO_SLOTS = np.empty(0, dtype=np.intp)
_NO_SLOTS.setflags(write=False)


class ArrivalCalendar:
    """Columnar arrival calendar keyed by ``(arrival time, insertion seq)``.

    State is three parallel ndarrays sorted lexicographically by
    ``(time, seq)`` plus a consumed-prefix head pointer:

    * ``_time`` — arrival instants (float64);
    * ``_seq``  — monotone insertion sequence numbers (the heap counter's
      successor: ties at one arrival instant resolve in submission order);
    * ``_slot`` — the coflow's dense *slot* index in the engine's per-coflow
      columns (what ``pop_due`` hands back).

    Appends are *staged*: ``push_batch`` only records the batch arrays, and
    the next ``peek``/``pop`` folds every staged batch in at once — one
    concatenate + (when the batch really is out of order) one stable sort,
    instead of per-coflow ``heappush`` calls.  When every staged arrival is
    at/after the current tail — the common case for a streaming service
    admitting in arrival order — the merge is a plain append; ties at the
    boundary are safe because staged sequence numbers always exceed live
    ones.

    Cancellation is lazy: :meth:`discard` marks a slot dead in a set, and
    dead entries are filtered out when a merge, pop or peek touches them —
    no per-decision predicate scan when nothing was ever cancelled.
    """

    def __init__(self) -> None:
        self._time = np.empty(0, dtype=np.float64)
        self._seq = np.empty(0, dtype=np.int64)
        self._slot = np.empty(0, dtype=np.intp)
        self._head = 0
        self._staged_time: List[np.ndarray] = []
        self._staged_slot: List[np.ndarray] = []
        self._staged_n = 0
        self._seq_next = 0
        self._dead: Set[int] = set()

    # ------------------------------------------------------------- appends
    def push(self, when: float, slot: int) -> None:
        """Stage a single entry (convenience wrapper over the batch path)."""
        self.push_batch(
            np.asarray([when], dtype=np.float64),
            np.asarray([slot], dtype=np.intp),
        )

    def push_batch(self, times: np.ndarray, slots: np.ndarray) -> None:
        """Stage a batch of entries; merged lazily on the next peek/pop."""
        times = np.asarray(times, dtype=np.float64)
        slots = np.asarray(slots, dtype=np.intp)
        if times.size == 0:
            return
        if times.shape != slots.shape:
            raise ValueError("times and slots must have equal length")
        self._staged_time.append(times)
        self._staged_slot.append(slots)
        self._staged_n += times.size

    # --------------------------------------------------------------- state
    def __len__(self) -> int:
        """Live entries: staged + merged, minus lazily discarded ones."""
        return (self._time.size - self._head) + self._staged_n - len(self._dead)

    def _merge(self) -> None:
        if not self._staged_n:
            return
        if len(self._staged_time) == 1:
            t = self._staged_time[0]
            s = self._staged_slot[0]
        else:
            t = np.concatenate(self._staged_time)
            s = np.concatenate(self._staged_slot)
        q = np.arange(self._seq_next, self._seq_next + t.size, dtype=np.int64)
        self._seq_next += int(t.size)
        self._staged_time.clear()
        self._staged_slot.clear()
        self._staged_n = 0
        # Stable sort on time keeps push order within ties == seq order.
        if t.size > 1 and (t[1:] < t[:-1]).any():
            order = t.argsort(kind="stable")
            t, s, q = t[order], s[order], q[order]
        head = self._head
        mt = self._time[head:]
        if mt.size == 0:
            self._time, self._slot, self._seq = t, s, q
        else:
            ms, mq = self._slot[head:], self._seq[head:]
            if t[0] >= mt[-1]:
                # Fast append: staged entries sort at/after the live tail,
                # and their seqs exceed every live seq, so boundary ties
                # keep insertion order.
                self._time = np.concatenate((mt, t))
                self._slot = np.concatenate((ms, s))
                self._seq = np.concatenate((mq, q))
            else:
                tt = np.concatenate((mt, t))
                # Stable on time: within a tie, live entries precede staged
                # ones and both runs are already seq-sorted, which is
                # exactly (time, seq) order.
                order = np.argsort(tt, kind="stable")
                self._time = tt[order]
                self._slot = np.concatenate((ms, s))[order]
                self._seq = np.concatenate((mq, q))[order]
        self._head = 0
        if self._dead:
            self._purge_dead()

    def _purge_dead(self) -> None:
        """Physically drop every discarded entry from the merged columns."""
        dead = np.fromiter(self._dead, dtype=np.intp, count=len(self._dead))
        head = self._head
        mask = np.isin(self._slot[head:], dead)
        if mask.any():
            keep = ~mask
            self._time = self._time[head:][keep]
            self._slot = self._slot[head:][keep]
            self._seq = self._seq[head:][keep]
            self._head = 0
            for slot in dead.tolist():
                self._dead.discard(int(slot))

    def peek_time(self) -> Optional[float]:
        """Arrival time of the earliest live entry, or ``None``."""
        self._merge()
        if self._dead:
            self._purge_dead()
        if self._head >= self._time.size:
            return None
        return float(self._time[self._head])

    def discard(self, slot: int) -> None:
        """Lazily drop a (still pending) slot's entry — cancellation."""
        self._dead.add(int(slot))

    def pop_due(self, now: float) -> np.ndarray:
        """Remove and return the slots of every entry with ``time <= now``.

        The span comes back in ``(time, seq)`` order — the exact order the
        heap calendar popped coflows — as an ``intp`` array.
        """
        self._merge()
        if self._dead:
            self._purge_dead()
        head = self._head
        if head >= self._time.size or self._time[head] > now:
            return _NO_SLOTS
        hi = int(self._time.searchsorted(now, side="right"))
        out = self._slot[head:hi]
        self._head = hi
        # Compact the consumed prefix once it dominates the storage.
        if self._head > 1024 and self._head * 2 > self._time.size:
            self._time = self._time[self._head:].copy()
            self._slot = self._slot[self._head:].copy()
            self._seq = self._seq[self._head:].copy()
            self._head = 0
        return out

    # ------------------------------------------------- drain / checkpoints
    def remap(self, slot_map: np.ndarray) -> None:
        """Renumber slots after a drain compaction.

        ``slot_map[old_slot]`` is the new slot, or ``-1`` for evicted
        slots (which are dropped — drain only evicts terminal coflows, so
        any calendar entry it touches was already cancelled).
        """
        self._merge()
        if self._dead:
            self._purge_dead()
        head = self._head
        if head >= self._time.size:
            self._time = self._time[:0]
            self._slot = self._slot[:0]
            self._seq = self._seq[:0]
            self._head = 0
            return
        new_slots = slot_map[self._slot[head:]]
        keep = new_slots >= 0
        self._time = self._time[head:][keep]
        self._slot = new_slots[keep].astype(np.intp, copy=False)
        self._seq = self._seq[head:][keep]
        self._head = 0

    def export_entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(times, seqs, slots)`` copies, for checkpointing."""
        self._merge()
        if self._dead:
            self._purge_dead()
        head = self._head
        return (
            self._time[head:].copy(),
            self._seq[head:].copy(),
            self._slot[head:].copy(),
        )

    def import_entries(
        self, times: np.ndarray, seqs: np.ndarray, slots: np.ndarray
    ) -> None:
        """Restore :meth:`export_entries` output into a fresh calendar."""
        if len(self) or self._time.size:
            raise ValueError("import_entries needs a fresh calendar")
        self._time = np.asarray(times, dtype=np.float64).copy()
        self._seq = np.asarray(seqs, dtype=np.int64).copy()
        self._slot = np.asarray(slots, dtype=np.intp).copy()
        self._head = 0
        self._seq_next = int(self._seq.max()) + 1 if self._seq.size else 0


class HeapCalendar:
    """Min-heap of coflows keyed by arrival time (the pre-columnar
    calendar, kept verbatim for the test oracle in
    :mod:`repro.core.reference`)."""

    def __init__(self) -> None:
        self._heap: List = []
        self._counter = 0

    def push(self, coflow: Coflow) -> None:
        heapq.heappush(self._heap, (coflow.arrival, self._counter, coflow))
        self._counter += 1

    def __len__(self) -> int:
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Arrival time of the earliest pending coflow, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def prune_head(self, should_drop) -> None:
        """Discard leading entries for which ``should_drop(coflow)`` holds
        (lazy deletion for cancelled coflows)."""
        while self._heap and should_drop(self._heap[0][2]):
            heapq.heappop(self._heap)

    def pop_due(self, now: float) -> List[Coflow]:
        """Remove and return every coflow with ``arrival <= now``."""
        due: List[Coflow] = []
        while self._heap and self._heap[0][0] <= now:
            due.append(heapq.heappop(self._heap)[2])
        return due
