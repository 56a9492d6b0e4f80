"""Scheduler interface: what the engine asks, what schedulers answer.

At every decision point the engine hands the scheduler a
:class:`SchedulerView` — a read-only snapshot of all *active* flows in
structure-of-arrays form plus per-coflow grouping, the fabric capacities and
the free CPU cores — and receives an :class:`Allocation`: a rate per active
flow and a compression flag per active flow.

Contract (enforced by the engine):

* rates are non-negative and respect every port capacity;
* a flow either transmits (rate > 0) **or** compresses in a slice, never
  both — the paper's exclusive β (Pseudocode 2 lines 26–32);
* compression is only requested for compressible flows with raw bytes left,
  and at most ``free_cores[node]`` flows compress per source node.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.events import ScheduleTrigger
from repro.fabric.bigswitch import BigSwitch
from repro.obs import NULL_OBS, Observability


def segment_sums(
    cols, width: np.ndarray, first: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Per-segment sums of each column of ``cols``: segment ``i`` is
    ``col[first[i] : first[i] + width[i]]``; without ``first`` the
    segments lie back to back from the start of ``col``.

    Equal bit for bit to each segment's own ``.sum()``, without a Python
    step per segment (``np.add.reduceat`` adds in another order).  numpy
    sums fewer than 8 values one by one, as ``np.bincount`` fills a bin,
    so a batch of segments all that narrow takes one ``bincount``;
    otherwise the segments of each width are summed as the rows of their
    own ``(k, w)`` gather along ``axis=1``, which numpy reduces with the
    kernel of a slice's ``.sum()``.  A lone segment, the usual closing
    batch, is summed as the slice itself.
    """
    k = len(width)
    if k == 1:
        a = 0 if first is None else int(first[0])
        return [col[a : a + int(width[0])].sum(keepdims=True) for col in cols]
    if 0 < width.max(initial=0) < 8:
        unit = np.repeat(np.arange(k), width)
        if first is not None:
            rows = np.repeat(first - (np.cumsum(width) - width), width)
            rows += np.arange(len(rows))
            cols = [col[rows] for col in cols]
        return [np.bincount(unit, weights=col, minlength=k) for col in cols]
    if first is None:
        first = np.cumsum(width) - width
    out = [np.zeros(k) for _ in cols]
    for w in set(width.tolist()):
        sel = np.flatnonzero(width == w)
        rows = first[sel, None] + np.arange(w)
        for o, col in zip(out, cols):
            o[sel] = col[rows].sum(axis=1)
    return out


class CoflowState:
    """One active coflow as a policy that walks coflows one by one sees it.

    Attributes
    ----------
    coflow:
        The immutable coflow definition.  With the block-columnar ingest
        path the engine may never have built a :class:`Coflow` object at
        all — states constructed with ``coflow_id=``/``coflow_factory=``
        materialize one on first access as ``coflow_factory(coflow_id)``
        (one factory serves every state of an engine), while
        :attr:`coflow_id` always answers without materializing.
    flow_idx:
        Indices of this coflow's *unfinished* flows within the view's
        active-flow arrays.

    A state holds no scheduling state of its own: the engine builds a
    view's states only when a policy reads ``view.coflows``, and FVDF's
    priority class and served flag live in engine columns
    (:meth:`SchedulerView.priority_columns`).
    """

    __slots__ = ("_coflow", "_coflow_id", "_coflow_factory", "flow_idx")

    def __init__(
        self,
        coflow: Optional[Coflow] = None,
        flow_idx: Optional[np.ndarray] = None,
        *,
        coflow_id: Optional[int] = None,
        coflow_factory=None,
    ):
        if coflow is None and coflow_id is None:
            raise TypeError("CoflowState needs a coflow or a coflow_id")
        self._coflow = coflow
        self._coflow_id = (
            int(coflow.coflow_id) if coflow is not None else int(coflow_id)
        )
        self._coflow_factory = coflow_factory
        self.flow_idx = flow_idx

    @property
    def coflow(self) -> Coflow:
        cf = self._coflow
        if cf is None:
            cf = self._coflow = self._coflow_factory(self._coflow_id)
        return cf

    @coflow.setter
    def coflow(self, value: Coflow) -> None:
        self._coflow = value
        self._coflow_id = int(value.coflow_id)

    @property
    def coflow_id(self) -> int:
        return self._coflow_id

    def __repr__(self):
        return (
            f"CoflowState(coflow_id={self.coflow_id}, "
            f"n_flows={len(self.flow_idx) if self.flow_idx is not None else 0})"
        )


class SchedulerView:
    """Read-only view of the simulation at a decision point.

    All per-flow arrays are aligned: index ``i`` describes the same active
    flow everywhere.  ``volume = raw + comp`` is the paper's ``V``; ``xi`` is
    each flow's *effective* compression ratio (its ``ratio_override`` if
    set, otherwise the codec's size-dependent model).

    ``unit_perm``/``unit_starts`` are an optional precomputed coflow
    segmentation: ``unit_perm`` lists every active-flow position grouped
    by coflow (in ``coflows`` order) and ``unit_starts`` the segment
    offsets (``len(coflows) + 1`` entries), so segment ops like
    ``np.maximum.reduceat`` replace per-coflow Python loops; derived
    lazily from ``coflows`` when not supplied.  ``coflow_table`` is an
    optional engine-side coflow table ``(slots, ids, arrival, width)``:
    ``coflows[j]`` is row ``slots[j]`` of the three columns, and width
    counts every member flow, finished ones too.

    ``priority_table`` is ``(slots, priority, served)``: FVDF's priority
    class ``P`` and "served in the last window" flag as writable
    per-coflow columns, where ``slots[j]`` is the row of the ``j``-th
    coflow of the grouping.  The engine passes its own slot columns, so
    what a policy writes there persists to the next decision; a view
    built without one starts every coflow at ``P = 1``, served
    (:meth:`priority_columns`).

    The engine hands out a subclass that gathers the columns a policy
    does not read on every decision, and the coflow grouping, on first
    read (:class:`repro.core.simulator.SliceSimulator`); it builds
    ``coflows`` only for a policy that reads it.  Such a view
    is valid only during its own decision: it reads the engine's current
    store, so a first read of a lazy attribute after the decision raises
    :class:`~repro.errors.SimulationError`.  A policy that needs a value
    later copies it while deciding.
    """

    def __init__(
        self,
        time: float,
        slice_len: float,
        trigger: ScheduleTrigger,
        fabric: BigSwitch,
        flow_ids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        raw: np.ndarray,
        comp: np.ndarray,
        xi: np.ndarray,
        size: np.ndarray,
        arrival: np.ndarray,
        coflow_ids: np.ndarray,
        compressible: np.ndarray,
        coflows: List[CoflowState],
        free_cores: np.ndarray,
        compression: Optional[CompressionEngine],
        unit_perm: Optional[np.ndarray] = None,
        unit_starts: Optional[np.ndarray] = None,
        coflow_table: Optional[Tuple[np.ndarray, ...]] = None,
        priority_table: Optional[Tuple[np.ndarray, ...]] = None,
    ):
        self.time = time
        self.slice_len = slice_len
        self.trigger = trigger
        self.fabric = fabric
        self.flow_ids = flow_ids
        self.src = src
        self.dst = dst
        self.raw = raw
        self.comp = comp
        self.xi = xi
        self.size = size
        self.arrival = arrival
        self.coflow_ids = coflow_ids
        self.compressible = compressible
        self.coflows = coflows
        self.free_cores = free_cores
        self.compression = compression
        self.unit_perm = unit_perm
        self.unit_starts = unit_starts
        self.coflow_table = coflow_table
        self.priority_table = priority_table
        self._coflow_cols: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def num_flows(self) -> int:
        return len(self.src)

    @functools.cached_property
    def volume(self) -> np.ndarray:
        """Remaining volume ``V = d + D`` per flow (computed once per view)."""
        return self.raw + self.comp

    @functools.cached_property
    def link_cap(self) -> np.ndarray:
        """Per-flow capacity ``min(B_s, B_r)`` (computed once per view)."""
        return self.fabric.flow_link_cap(self.src, self.dst)

    def unit_offsets(self):
        """The ``(unit_perm, unit_starts)`` segmentation, computing and
        caching it from ``coflows`` when the engine did not supply one."""
        if self.unit_perm is None:
            if self.coflows:
                self.unit_perm = np.concatenate(
                    [cs.flow_idx for cs in self.coflows]
                ).astype(np.intp, copy=False)
                lengths = np.asarray([len(cs.flow_idx) for cs in self.coflows])
            else:
                self.unit_perm = np.empty(0, dtype=np.intp)
                lengths = np.empty(0, dtype=np.intp)
            self.unit_starts = np.concatenate(([0], np.cumsum(lengths))).astype(
                np.intp
            )
        return self.unit_perm, self.unit_starts

    def coflow_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-coflow ``(ids, arrival, width)`` columns aligned with
        ``coflows``, built on first call — gathered from ``coflow_table``
        when the engine supplied one, else read off the states — so
        policies that never rank coflows pay nothing."""
        if self._coflow_cols is None:
            if self.coflow_table is not None:
                slots, ids, arrival, width = self.coflow_table
                self._coflow_cols = (ids[slots], arrival[slots], width[slots])
            else:
                cfs = [cs.coflow for cs in self.coflows]
                self._coflow_cols = (
                    np.array([cs.coflow_id for cs in self.coflows],
                             dtype=np.int64),
                    np.array([cf.arrival for cf in cfs], dtype=np.float64),
                    np.array([cf.width for cf in cfs], dtype=np.int64),
                )
        return self._coflow_cols

    def priority_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """FVDF's per-coflow ``(slots, priority, served)`` columns.

        ``priority[slots]`` and ``served[slots]`` are the grouping's
        priority classes and served flags; a policy updates them by
        scattering back through ``slots``.  Without a ``priority_table``
        the view makes one on first call: every coflow at ``P = 1``,
        served."""
        if self.priority_table is None:
            n_cof = len(self.unit_offsets()[1]) - 1
            self.priority_table = (
                np.arange(n_cof, dtype=np.intp),
                np.ones(n_cof),
                np.ones(n_cof, dtype=bool),
            )
        return self.priority_table

    def fresh_capacity(self):
        """Writable copies of (ingress, egress) capacities for allocation."""
        return self.fabric.ingress.remaining(), self.fabric.egress.remaining()

    def fresh_extra(self):
        """Writable copies of the fabric's extra capacity dimensions.

        Empty for the big switch; rack uplink/downlink constraints for
        oversubscribed fabrics.  Pass as ``extra=`` to the allocation
        primitives so every policy honours them.
        """
        return self.fabric.fresh_extra(self.src, self.dst)


@dataclass
class Allocation:
    """A scheduler's answer: transmit rates and compression picks."""

    rates: np.ndarray
    compress: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=np.float64)
        if self.compress is None:
            self.compress = np.zeros(len(self.rates), dtype=bool)
        else:
            self.compress = np.asarray(self.compress, dtype=bool)

    @classmethod
    def idle(cls, n: int) -> "Allocation":
        return cls(rates=np.zeros(n), compress=np.zeros(n, dtype=bool))


class Scheduler(ABC):
    """Base class for all scheduling policies.

    Subclasses set :attr:`name` (used in reports) and
    :attr:`uses_compression` (whether the engine should offer CPU cores).
    """

    name: str = "scheduler"
    uses_compression: bool = False
    #: Observability bundle, bound by the engine; disabled by default so
    #: policies can emit records unconditionally guarded on ``enabled``.
    obs: Observability = NULL_OBS

    @abstractmethod
    def schedule(self, view: SchedulerView) -> Allocation:
        """Compute the allocation to hold until the next decision point."""

    def bind_observability(self, obs: Observability) -> None:
        """Attach the engine's observability bundle (called by the engine)."""
        self.obs = obs

    def __getstate__(self) -> dict:
        # The bound bundle (registry, recorder) belongs to the
        # engine, not the policy: an unpickled scheduler falls back to
        # the class default NULL_OBS until an engine binds it again.
        state = self.__dict__.copy()
        state.pop("obs", None)
        return state

    def reset(self) -> None:
        """Clear any cross-run state (default: stateless).

        Stateful policies (FVDF's last decision, EDF's admission sets,
        …) must override this to drop everything that could leak
        from one run into the next.
        """

    def fresh(self) -> "Scheduler":
        """This scheduler, guaranteed ready for a new run.

        The harness contract: every simulation run starts from a clean
        scheduler.  ``run_policy``/``run_many`` call ``fresh()`` on any
        live instance they are handed, so back-to-back runs of the same
        object are identical to runs of newly constructed ones (see
        ``tests/test_scheduler_fresh.py``).  The default resets in place
        and returns ``self``; subclasses whose state cannot be reset in
        place may return a new instance instead.
        """
        self.reset()
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
