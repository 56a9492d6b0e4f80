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

Objects remain first-class: ``from_coflows`` flattens an existing list of
coflows (this is what ``submit_many`` uses), and a block may carry the
backing objects alongside the columns (``coflows``) so legacy callers that
want them — tracers, custom schedulers reaching for ``state.coflow`` —
still get the *same* instances.  Blocks built from raw columns carry
``None`` placeholders instead, and the engine materializes a coflow from
its columns only if someone actually asks.

Flow/coflow ids for raw-column rows are drawn from the same global
counters as object construction.  A batch of coflows reserves all its
flow ids, then all its coflow ids; the counters are independent, so these
are the ids the coflows would have drawn one by one, and a run ingested
through blocks is bit-identical — ids included — to the same run
ingested through objects.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.coflow import Coflow, reserve_coflow_ids
from repro.core.flow import reserve_flow_ids
from repro.errors import ConfigurationError


class CoflowBlock:
    """A batch of coflows as flat per-coflow / per-flow columns.

    Per-coflow columns (length ``n_coflows``): ``arrival`` (float64),
    ``width`` (int64), ``coflow_id`` (int64), plus ``label`` /
    ``deadline`` lists.  Per-flow columns (length ``n_flows``, coflow
    blocks contiguous in coflow order): ``src``/``dst`` (intp), ``size``
    (float64), ``compressible`` (bool), ``override`` (float64, ``-1`` for
    "no per-flow ratio override"), ``flow_id`` (int64).

    ``coflows`` optionally carries the backing :class:`Coflow` objects
    (entries may be ``None`` for rows built from raw columns).
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
        "coflows",
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
        coflows: Optional[List[Optional[Coflow]]] = None,
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
        self.coflows = coflows

    @property
    def n_coflows(self) -> int:
        return int(self.arrival.size)

    @property
    def n_flows(self) -> int:
        return int(self.src.size)

    def validate(self) -> None:
        """Apply the Flow/Coflow constructor invariants to the columns.

        Rows built from objects already passed ``__post_init__``; raw
        column rows (block-parsed JSONL, synthetic generators) get the
        same checks here, vectorized, with the same error type.
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
        if m and np.any(self.width < 1):
            raise ConfigurationError("a coflow must contain at least one flow")
        if m and float(self.arrival.min()) < 0:
            raise ConfigurationError("arrival must be >= 0")
        for d in self.deadline:
            if d is not None and d <= 0:
                raise ConfigurationError(f"deadline must be positive, got {d}")
        if n:
            if float(self.size.min()) <= 0:
                bad = float(self.size.min())
                raise ConfigurationError(f"flow size must be positive, got {bad}")
            if int(self.src.min()) < 0 or int(self.dst.min()) < 0:
                raise ConfigurationError("ports must be non-negative")
            ov = self.override
            has = ov != -1.0
            if np.any(has & ~((ov > 0.0) & (ov < 1.0))):
                bad = float(ov[has & ~((ov > 0.0) & (ov < 1.0))][0])
                raise ConfigurationError(
                    f"ratio_override must lie in (0, 1), got {bad}"
                )

    @classmethod
    def from_coflows(
        cls, coflows: Sequence[Coflow], keep_objects: bool = True
    ) -> "CoflowBlock":
        """Flatten existing coflow objects into a block.

        With ``keep_objects`` the block carries the original instances so
        downstream legacy paths see the very same objects.
        """
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
            coflows=coflows if keep_objects else None,
        )

    def restamp(self, mask: np.ndarray, now: float) -> None:
        """Restamp the arrival of the masked coflows (and their flows) to
        ``now`` — the streaming driver's late-coflow backpressure rule."""
        self.arrival[mask] = now
        self.flow_arrival[np.repeat(mask, self.width)] = now
        if self.coflows is not None:
            for i in np.flatnonzero(mask).tolist():
                cf = self.coflows[i]
                if cf is not None:
                    cf.arrival = now
                    for f in cf.flows:
                        f.arrival = now


class BlockBuilder:
    """Accumulates coflows — raw columns or objects — into one block.

    Sources use this to assemble an admission batch: parsers and
    generators append many coflows of raw columns in one call
    (:meth:`add_columns`), while buffered-lookahead or legacy paths append
    full objects (:meth:`add_coflow`).  ``build`` concatenates the chunks
    into a single :class:`CoflowBlock`; the ``coflows`` list is carried
    only when at least one object was added.
    """

    def __init__(self) -> None:
        # per call: an (arrival, width, coflow_id) and a (src, dst, size,
        # compressible, override, flow_id, flow_arrival) column tuple;
        # CoflowBlock casts the concatenated columns to their dtypes
        self._coflow_cols: List[tuple] = []
        self._flow_cols: List[tuple] = []
        self._label: List[str] = []
        self._deadline: List[Optional[float]] = []
        self._objs: List[Optional[Coflow]] = []
        self.n_flows = 0

    @property
    def n_coflows(self) -> int:
        return len(self._label)

    def _append(self, coflow_cols, flow_cols, label, deadline, objs) -> None:
        self._coflow_cols.append(coflow_cols)
        self._flow_cols.append(flow_cols)
        self._label.extend(label)
        self._deadline.extend(deadline)
        self._objs.extend(objs)
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
            label, deadline, [None] * m,
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
            [coflow.label], [coflow.deadline], [coflow],
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
            coflows=self._objs if any(o is not None for o in self._objs) else None,
        )
