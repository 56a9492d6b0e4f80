"""Block-columnar coflow ingest.

A :class:`CoflowBlock` is a batch of coflows flattened into parallel
ndarray columns — one row per coflow for arrival/width/id/label/deadline,
one row per flow for src/dst/size/compressible/override/flow id.  It is
the unit of the columnar source→engine handoff: arrival sources
(:mod:`repro.service.arrivals`) emit blocks, the streaming driver restamps
and admits them wholesale, and :meth:`SliceSimulator.submit_block` writes
them straight into the engine's flow/coflow columns without ever building
:class:`~repro.core.flow.Flow` or :class:`~repro.core.coflow.Coflow`
objects.

A block is valid by construction: its constructor runs the
:class:`Flow`/:class:`Coflow` invariants once, as masks over the
columns, and builds only a failing row as objects, so the error is the
constructors' own.  Blocks carry columns only; ``from_coflows`` flattens
objects (``submit_many``), and :func:`coflow_from_columns` builds a
coflow back from columns when a caller (tracer, ``state.coflow``) asks.

Flow/coflow ids for raw-column rows are drawn from the same global
counters as object construction.  A batch of coflows reserves all its
flow ids, then all its coflow ids; the counters are independent, so these
are the ids the coflows would have drawn one by one, and a run ingested
through blocks is bit-identical — ids included — to the same run
ingested through objects.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.coflow import Coflow, reserve_coflow_ids
from repro.core.flow import Flow, reserve_flow_ids
from repro.errors import ConfigurationError


def coflow_from_columns(
    src, dst, size, compressible, override, flow_id,
    *, arrival: float, label: str, deadline: Optional[float], coflow_id: int,
) -> Coflow:
    """Build one :class:`Coflow` from its flow columns (equal-length
    sequences; ``override`` is ``-1.0`` for none).  Every id is given, so
    building draws none from the global counters."""
    arrival = float(arrival)
    cols = (np.asarray(col).tolist()
            for col in (src, dst, size, compressible, override, flow_id))
    flows = [
        Flow(s, d, z, arrival, c, None if o == -1.0 else o, f)
        for s, d, z, c, o, f in zip(*cols)
    ]
    return Coflow(flows, arrival, label, deadline, int(coflow_id))


class BlockRowError(ConfigurationError):
    """A block row breaks a Flow/Coflow invariant: the message is the
    constructor's own, ``row`` the coflow's index in the block."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


class CoflowBlock:
    """A batch of coflows as flat per-coflow / per-flow columns.

    Per-coflow columns (length ``n_coflows``): ``arrival`` (float64),
    ``width`` (int64), ``coflow_id`` (int64), plus ``label`` /
    ``deadline`` lists.  Per-flow columns (length ``n_flows``, coflow
    blocks contiguous in coflow order): ``src``/``dst`` (intp), ``size``
    (float64), ``compressible`` (bool), ``override`` (float64, ``-1`` for
    "no per-flow ratio override"), ``flow_id`` (int64).

    The constructor runs :meth:`validate`.
    """

    __slots__ = (
        "arrival",
        "width",
        "coflow_id",
        "label",
        "deadline",
        "src",
        "dst",
        "size",
        "compressible",
        "override",
        "flow_id",
        "flow_arrival",
    )

    def __init__(
        self,
        *,
        arrival,
        width,
        coflow_id,
        label: Sequence[str],
        deadline: Sequence[Optional[float]],
        src,
        dst,
        size,
        compressible,
        override,
        flow_id,
        flow_arrival,
    ) -> None:
        self.arrival = np.asarray(arrival, dtype=np.float64)
        self.width = np.asarray(width, dtype=np.int64)
        self.coflow_id = np.asarray(coflow_id, dtype=np.int64)
        self.label = list(label)
        self.deadline = list(deadline)
        self.src = np.asarray(src, dtype=np.intp)
        self.dst = np.asarray(dst, dtype=np.intp)
        self.size = np.asarray(size, dtype=np.float64)
        self.compressible = np.asarray(compressible, dtype=bool)
        self.override = np.asarray(override, dtype=np.float64)
        self.flow_id = np.asarray(flow_id, dtype=np.int64)
        # Flow arrivals normally equal their coflow's, but the legacy
        # object API lets them diverge (a coflow's arrival mutated after
        # construction does not restamp members) — carry them explicitly
        # so block ingest reproduces the object path bit-for-bit.
        self.flow_arrival = np.asarray(flow_arrival, dtype=np.float64)
        self.validate()

    @property
    def n_coflows(self) -> int:
        return int(self.arrival.size)

    @property
    def n_flows(self) -> int:
        return int(self.src.size)

    def validate(self) -> None:
        """Apply the Flow/Coflow constructor invariants to the columns.

        Masks mirror the constructors' checks and find the first coflow
        row that breaks one; only that row is built as objects, so the
        :class:`BlockRowError` carries the constructors' own message.
        """
        m, n = self.n_coflows, self.n_flows
        if (
            self.width.size != m
            or self.coflow_id.size != m
            or len(self.label) != m
            or len(self.deadline) != m
        ):
            raise ConfigurationError("per-coflow columns disagree on length")
        if int(self.width.sum()) != n or any(
            col.size != n
            for col in (
                self.dst,
                self.size,
                self.compressible,
                self.override,
                self.flow_id,
                self.flow_arrival,
            )
        ):
            raise ConfigurationError("per-flow columns disagree on length")
        a = self.arrival
        ok = (self.width >= 1) & (a >= 0.0) & (a < math.inf)
        # a block without deadlines (the common case) skips the Python loop
        deadlines = self.deadline if self.deadline.count(None) < m else ()
        for k, d in enumerate(deadlines):
            try:
                if d is None or 0 < d < math.inf:
                    continue
            except TypeError:  # a non-number; Coflow raises the same
                pass
            ok[k] = False
        size, ov = self.size, self.override
        flow_ok = (
            (size > 0.0) & (size < math.inf) & (self.src >= 0) & (self.dst >= 0)
            & ((ov == -1.0) | ((ov > 0.0) & (ov < 1.0)))
        )
        if not flow_ok.all():
            j = int(flow_ok.argmin())
            ok[int(np.cumsum(self.width).searchsorted(j, side="right"))] = False
        if ok.all():
            return
        row = int(ok.argmin())
        first = int(self.width[:row].sum())
        last = first + int(self.width[row])
        try:
            coflow_from_columns(
                *(col[first:last] for col in (
                    self.src, self.dst, self.size, self.compressible,
                    self.override, self.flow_id,
                )),
                arrival=a[row], label=self.label[row],
                deadline=self.deadline[row], coflow_id=self.coflow_id[row],
            )
        except (ConfigurationError, TypeError) as exc:
            raise BlockRowError(str(exc), row) from exc
        raise AssertionError(f"block masks reject row {row}, its objects do not")

    @classmethod
    def from_coflows(cls, coflows: Sequence[Coflow]) -> "CoflowBlock":
        """Flatten existing coflow objects into a block."""
        coflows = list(coflows)
        flows = [f for c in coflows for f in c.flows]
        return cls(
            arrival=[c.arrival for c in coflows],
            width=[len(c.flows) for c in coflows],
            coflow_id=[c.coflow_id for c in coflows],
            label=[c.label for c in coflows],
            deadline=[c.deadline for c in coflows],
            src=[f.src for f in flows],
            dst=[f.dst for f in flows],
            size=[f.size for f in flows],
            compressible=[f.compressible for f in flows],
            override=[
                -1.0 if f.ratio_override is None else f.ratio_override
                for f in flows
            ],
            flow_id=[f.flow_id for f in flows],
            flow_arrival=[f.arrival for f in flows],
        )

    def restamp(self, mask: np.ndarray, now: float) -> None:
        """Restamp the arrival of the masked coflows (and their flows) to
        ``now`` — the streaming driver's late-coflow backpressure rule."""
        self.arrival[mask] = now
        self.flow_arrival[np.repeat(mask, self.width)] = now


class BlockBuilder:
    """Accumulates coflows — raw columns or objects — into one block.

    Sources use this to assemble an admission batch: parsers and
    generators append many coflows of raw columns in one call
    (:meth:`add_columns`), while buffered-lookahead or legacy paths append
    full objects (:meth:`add_coflow`).  ``build`` concatenates the chunks
    into a single :class:`CoflowBlock`, which checks every row once.
    """

    def __init__(self) -> None:
        # per call: an (arrival, width, coflow_id) and a (src, dst, size,
        # compressible, override, flow_id, flow_arrival) column tuple;
        # CoflowBlock casts the concatenated columns to their dtypes
        self._coflow_cols: List[tuple] = []
        self._flow_cols: List[tuple] = []
        self._label: List[str] = []
        self._deadline: List[Optional[float]] = []
        self.n_flows = 0

    @property
    def n_coflows(self) -> int:
        return len(self._label)

    def _append(self, coflow_cols, flow_cols, label, deadline) -> None:
        self._coflow_cols.append(coflow_cols)
        self._flow_cols.append(flow_cols)
        self._label.extend(label)
        self._deadline.extend(deadline)
        self.n_flows += len(flow_cols[0])

    def add_columns(
        self,
        arrival,
        src,
        dst,
        size,
        compressible,
        override=None,
        width=None,
        label="",
        deadline=None,
    ) -> None:
        """Append coflows from raw columns, reserving their ids in bulk.

        ``arrival``, ``width``, ``label`` and ``deadline`` are per coflow;
        the rest are per flow, each coflow's flows contiguous.  Without
        ``width`` the columns are one coflow and the per-coflow values are
        scalars.  ``override`` defaults to ``-1`` (no ratio override).

        All flow ids are reserved first, then all coflow ids.  The two
        counters are independent, so this draws the same ids as
        constructing the coflows one after another.
        """
        n = len(src)
        if width is None:
            arrival, width, label, deadline = [arrival], [n], [label], [deadline]
        m = len(arrival)
        flow_id0, coflow_id0 = reserve_flow_ids(n), reserve_coflow_ids(m)
        if override is None:
            override = np.full(n, -1.0)
        self._append(
            (arrival, width, np.arange(coflow_id0, coflow_id0 + m)),
            (src, dst, size, compressible, override,
             np.arange(flow_id0, flow_id0 + n), np.repeat(arrival, width)),
            label, deadline,
        )

    def add_coflow(self, coflow: Coflow) -> int:
        """Append one already-constructed coflow object; returns its id."""
        flows = coflow.flows
        rows = [
            (f.src, f.dst, f.size, f.compressible,
             -1.0 if f.ratio_override is None else f.ratio_override,
             f.flow_id, f.arrival)
            for f in flows
        ]
        self._append(
            ([coflow.arrival], [len(flows)], [coflow.coflow_id]),
            tuple(zip(*rows)),
            [coflow.label], [coflow.deadline],
        )
        return coflow.coflow_id

    def build(self) -> Optional[CoflowBlock]:
        """The accumulated block, or ``None`` when nothing was added."""
        if not self._label:
            return None
        arrival, width, coflow_id = (
            np.concatenate(col) for col in zip(*self._coflow_cols)
        )
        src, dst, size, comp, override, flow_id, flow_arrival = (
            np.concatenate(col) for col in zip(*self._flow_cols)
        )
        return CoflowBlock(
            arrival=arrival,
            width=width,
            coflow_id=coflow_id,
            label=self._label,
            deadline=self._deadline,
            src=src,
            dst=dst,
            size=size,
            compressible=comp,
            override=override,
            flow_id=flow_id,
            flow_arrival=flow_arrival,
        )
