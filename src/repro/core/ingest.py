"""Block-columnar coflow ingest.

A :class:`CoflowBlock` is a batch of coflows flattened into parallel
ndarray columns — one row per coflow for arrival/width/id/label/deadline,
one row per flow for src/dst/size/compressible/override/flow id.  It is
the unit of the columnar source→engine handoff: arrival sources
(:mod:`repro.service.arrivals`) emit blocks, the streaming driver restamps
and admits them wholesale, and :meth:`SliceSimulator.submit_block` writes
them straight into the engine's flow/coflow columns without ever building
:class:`~repro.core.flow.Flow` or :class:`~repro.core.coflow.Coflow`
objects.  A flow arrives with its coflow: the block has no per-flow
arrival, and the engine repeats each coflow's arrival over its flows.

A block is valid by construction: its constructor runs the
:class:`Flow`/:class:`Coflow` invariants once, as masks over the
columns, and builds only a failing row as objects, so the error is the
constructors' own.  :meth:`CoflowBlock.from_columns` makes a block of
new coflows from raw columns, ``from_coflows`` flattens objects
(``submit_many``), and :func:`coflow_from_columns` builds a coflow back
from columns when a caller (``ArrivalSource.pop``, tracer,
``state.coflow``) asks.

``from_columns`` draws ids from the same global counters as object
construction: it reserves all the block's flow ids, then all its coflow
ids.  The counters are independent, so these are the ids the coflows
would have drawn one by one, and a run ingested through blocks is
bit-identical — ids included — to the same run ingested through objects.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

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


def row_of_flow(width: Sequence[int], flow: int) -> int:
    """The coflow row holding flow row ``flow`` of coflows ``width[i]``
    flows wide, each coflow's flows contiguous."""
    return int(np.cumsum(width).searchsorted(flow, side="right"))


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

    ``line`` optionally holds, per coflow, where its source read it (a
    JSONL line number), so an error found at admission can name it.

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
        "line",
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
        line: Optional[Sequence[int]] = None,
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
        self.line = line
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
            or (self.line is not None and len(self.line) != m)
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
            ok[row_of_flow(self.width, int(flow_ok.argmin()))] = False
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
        """Flatten existing coflow objects into a block.  Each flow
        arrives with its coflow, at the coflow's current ``arrival``."""
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
        )

    @classmethod
    def from_columns(
        cls, *, arrival, width, label: Sequence[str],
        deadline: Sequence[Optional[float]], src, dst, size, compressible,
        override=None, line: Optional[Sequence[int]] = None,
    ) -> "CoflowBlock":
        """A block of new coflows from raw columns, drawing their ids.

        ``arrival``, ``width``, ``label`` and ``deadline`` hold one value
        per coflow, the rest one per flow, each coflow's flows
        contiguous; ``override`` defaults to ``-1`` (no ratio override),
        ``line`` to none.
        All flow ids are reserved first, then all coflow ids: the ids
        constructing the coflows one after another draws.
        """
        n, m = len(src), len(arrival)
        flow_id0 = reserve_flow_ids(n)
        coflow_id0 = reserve_coflow_ids(m)
        return cls(
            arrival=arrival,
            width=width,
            coflow_id=np.arange(coflow_id0, coflow_id0 + m),
            label=label,
            deadline=deadline,
            src=src,
            dst=dst,
            size=size,
            compressible=compressible,
            override=np.full(n, -1.0) if override is None else override,
            flow_id=np.arange(flow_id0, flow_id0 + n),
            line=line,
        )

    def restamp(self, mask: np.ndarray, now: float) -> None:
        """Restamp the arrival of the masked coflows to ``now`` — the
        streaming driver's late-coflow backpressure rule."""
        self.arrival[mask] = now
