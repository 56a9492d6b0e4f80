"""Columnar result storage and lazy dataclass materialization.

The engine retires flows in bulk (``SliceSimulator._retire_finished``
stamps whole columns at once); materializing a ``FlowResult`` dataclass
per flow inside that loop is what used to dominate trace-scale runs.
Instead, the engine snapshots its columns into a :class:`ResultStore`
and ``SimulationResult`` exposes the familiar ``flow_results`` /
``coflow_results`` lists as *lazy* sequences over the store: metrics
that only need arrays (``avg_fct``, ``ResultSummary``, the plot
helpers) never build a single dataclass, while any consumer that
indexes or iterates the lists gets bit-identical ``FlowResult`` /
``CoflowResult`` objects, built on demand and cached.

Layout contract (established by the engine at snapshot time):

* flow columns are ordered by **retirement order** (the order the eager
  per-flow loop used to append results);
* coflow columns are ordered by **close order** (the order coflows hit
  ``remaining == 0``);
* ``cf_member_perm`` / ``cf_member_starts`` segment the flow positions
  by owning coflow, members in retirement order — so a lazily built
  ``CoflowResult.flow_results`` holds the *same* element objects as the
  flat flow list (identity is shared through the parent sequence).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import List, Optional

import numpy as np

from repro.core.coflow import CoflowResult
from repro.core.flow import FlowResult

__all__ = [
    "ResultStore", "LazyFlowResults", "LazyCoflowResults", "concat_stores",
]

#: Per-flow array columns, in flow (retirement) order.
_FLOW_FIELDS = (
    "flow_id", "coflow_id", "src", "dst", "size", "arrival", "start",
    "finish", "finish_phys", "bytes_sent", "comp_in", "comp_out",
)

#: Per-coflow array columns, in close order.
_CF_FIELDS = (
    "cf_id", "cf_arrival", "cf_finish", "cf_finish_phys", "cf_size",
    "cf_width", "cf_bytes_sent",
)


class ResultStore:
    """Immutable columnar snapshot of every retired flow / closed coflow.

    All arrays are copies taken at snapshot time, so a store stays valid
    (and frozen) while the engine keeps running toward a later horizon.
    """

    __slots__ = (
        "flow_id", "coflow_id", "src", "dst", "size", "arrival", "start",
        "finish", "finish_phys", "bytes_sent", "comp_in", "comp_out",
        "decompress_speed",
        "cf_id", "cf_label", "cf_arrival", "cf_finish", "cf_finish_phys",
        "cf_size", "cf_width", "cf_bytes_sent", "cf_deadline",
        "cf_member_perm", "cf_member_starts",
    )

    def __init__(
        self,
        *,
        flow_id: np.ndarray,
        coflow_id: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        size: np.ndarray,
        arrival: np.ndarray,
        start: np.ndarray,
        finish: np.ndarray,
        finish_phys: np.ndarray,
        bytes_sent: np.ndarray,
        comp_in: np.ndarray,
        comp_out: np.ndarray,
        decompress_speed: Optional[float],
        cf_id: np.ndarray,
        cf_label: List[str],
        cf_arrival: np.ndarray,
        cf_finish: np.ndarray,
        cf_finish_phys: np.ndarray,
        cf_size: np.ndarray,
        cf_width: np.ndarray,
        cf_bytes_sent: np.ndarray,
        cf_deadline: List[Optional[float]],
        cf_member_perm: np.ndarray,
        cf_member_starts: np.ndarray,
    ):
        self.flow_id = flow_id
        self.coflow_id = coflow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.arrival = arrival
        self.start = start
        self.finish = finish
        self.finish_phys = finish_phys
        self.bytes_sent = bytes_sent
        self.comp_in = comp_in
        self.comp_out = comp_out
        self.decompress_speed = decompress_speed
        self.cf_id = cf_id
        self.cf_label = cf_label
        self.cf_arrival = cf_arrival
        self.cf_finish = cf_finish
        self.cf_finish_phys = cf_finish_phys
        self.cf_size = cf_size
        self.cf_width = cf_width
        self.cf_bytes_sent = cf_bytes_sent
        self.cf_deadline = cf_deadline
        self.cf_member_perm = cf_member_perm
        self.cf_member_starts = cf_member_starts

    @property
    def n_flows(self) -> int:
        return int(self.flow_id.shape[0])

    @property
    def n_coflows(self) -> int:
        return int(self.cf_id.shape[0])

    # ------------------------------------------------------- materialization
    def make_flow_result(self, i: int) -> FlowResult:
        """Build the ``FlowResult`` for flat position ``i``.

        Field-for-field identical to the pre-columnar oracle's eager
        ``_make_flow_result`` (same ``float()`` casts on the same column
        values), so the two engines' results are bit-identical.
        """
        comp_out = float(self.comp_out[i])
        decompress = 0.0
        if self.decompress_speed is not None and comp_out > 0:
            decompress = comp_out / self.decompress_speed
        return FlowResult(
            flow_id=int(self.flow_id[i]),
            coflow_id=int(self.coflow_id[i]),
            src=int(self.src[i]),
            dst=int(self.dst[i]),
            size=float(self.size[i]),
            arrival=float(self.arrival[i]),
            start=float(self.start[i]),
            finish=float(self.finish[i]),
            finish_physical=float(self.finish_phys[i]),
            bytes_sent=float(self.bytes_sent[i]),
            bytes_compressed_in=float(self.comp_in[i]),
            bytes_compressed_out=comp_out,
            decompress_time=decompress,
        )

    def make_coflow_result(self, k: int, flows: Sequence) -> CoflowResult:
        """Build the ``CoflowResult`` for close-order position ``k``.

        ``flows`` is the (lazy) flat flow sequence; member results are
        pulled through it so object identity is shared with
        ``SimulationResult.flow_results``.
        """
        lo = int(self.cf_member_starts[k])
        hi = int(self.cf_member_starts[k + 1])
        members = [flows[int(p)] for p in self.cf_member_perm[lo:hi]]
        return CoflowResult(
            coflow_id=int(self.cf_id[k]),
            label=self.cf_label[k],
            arrival=float(self.cf_arrival[k]),
            finish=float(self.cf_finish[k]),
            finish_physical=float(self.cf_finish_phys[k]),
            size=float(self.cf_size[k]),
            width=int(self.cf_width[k]),
            bytes_sent=float(self.cf_bytes_sent[k]),
            flow_results=members,
            deadline=self.cf_deadline[k],
        )

    # ------------------------------------------------------------ NPZ spill
    def save_npz(self, path) -> None:
        """Write the store to ``path`` as a compressed ``.npz`` shard.

        Everything is encoded as plain arrays (labels as a unicode array,
        deadlines as NaN-for-None floats), so the file round-trips with
        ``allow_pickle=False``.  Used by the streaming service to spill
        drained result shards to disk.
        """
        payload = {name: getattr(self, name) for name in _FLOW_FIELDS}
        payload.update({name: getattr(self, name) for name in _CF_FIELDS})
        payload["cf_member_perm"] = self.cf_member_perm
        payload["cf_member_starts"] = self.cf_member_starts
        labels = np.asarray(self.cf_label, dtype=np.str_)
        if labels.dtype.itemsize == 0:  # all labels empty: '<U0' won't save
            labels = labels.astype("<U1")
        payload["cf_label"] = labels
        payload["cf_deadline"] = np.asarray(
            [np.nan if d is None else float(d) for d in self.cf_deadline],
            dtype=np.float64,
        )
        payload["decompress_speed"] = np.asarray(
            [0.0, 0.0]
            if self.decompress_speed is None
            else [1.0, float(self.decompress_speed)],
            dtype=np.float64,
        )
        np.savez_compressed(path, **payload)

    @classmethod
    def load_npz(cls, path) -> "ResultStore":
        """Load a :meth:`save_npz` shard back into a store."""
        with np.load(path, allow_pickle=False) as data:
            kw = {name: data[name] for name in _FLOW_FIELDS}
            kw.update({name: data[name] for name in _CF_FIELDS})
            kw["cf_member_perm"] = data["cf_member_perm"].astype(
                np.intp, copy=False
            )
            kw["cf_member_starts"] = data["cf_member_starts"].astype(
                np.intp, copy=False
            )
            kw["cf_label"] = [str(x) for x in data["cf_label"]]
            kw["cf_deadline"] = [
                None if np.isnan(d) else float(d) for d in data["cf_deadline"]
            ]
            has_speed, speed = data["decompress_speed"]
            kw["decompress_speed"] = float(speed) if has_speed else None
        return cls(**kw)


def concat_stores(stores: Sequence[ResultStore]) -> ResultStore:
    """Concatenate result shards into one store.

    Flow columns append in shard order (shards hold disjoint flows in
    retirement order, so the result is a valid retirement-ordered store);
    coflow columns likewise.  Member permutations are offset by the
    preceding shards' flow counts, member starts by their member counts.
    An empty input yields an empty store.
    """
    stores = [s for s in stores if s is not None]
    if not stores:
        raise ValueError("concat_stores needs at least one store")
    if len(stores) == 1:
        return stores[0]
    kw = {
        name: np.concatenate([getattr(s, name) for s in stores])
        for name in _FLOW_FIELDS + _CF_FIELDS
    }
    perms = []
    starts = [np.zeros(1, dtype=np.intp)]
    flow_off = 0
    member_off = 0
    for s in stores:
        perms.append(s.cf_member_perm + flow_off)
        starts.append(s.cf_member_starts[1:] + member_off)
        flow_off += s.n_flows
        member_off += int(s.cf_member_starts[-1])
    kw["cf_member_perm"] = np.concatenate(perms).astype(np.intp, copy=False)
    kw["cf_member_starts"] = np.concatenate(starts).astype(
        np.intp, copy=False
    )
    kw["cf_label"] = [x for s in stores for x in s.cf_label]
    kw["cf_deadline"] = [x for s in stores for x in s.cf_deadline]
    speeds = {
        s.decompress_speed for s in stores if s.decompress_speed is not None
    }
    if len(speeds) > 1:
        raise ValueError(
            f"shards disagree on decompress_speed: {sorted(speeds)}"
        )
    kw["decompress_speed"] = speeds.pop() if speeds else None
    return ResultStore(**kw)


class _LazySeq(Sequence):
    """Sequence base: per-item cache, slice support, list equality."""

    __slots__ = ("_cache",)

    def __init__(self, n: int):
        self._cache: List = [None] * n

    def _make(self, i: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._cache)))]
        n = len(self._cache)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        item = self._cache[i]
        if item is None:
            item = self._cache[i] = self._make(i)
        return item

    def __iter__(self):
        for i in range(len(self._cache)):
            yield self[i]

    def __eq__(self, other):
        if isinstance(other, (list, tuple, _LazySeq)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None  # mutable cache, list-like semantics

    def __repr__(self):
        return f"<{type(self).__name__} n={len(self._cache)}>"


class LazyFlowResults(_LazySeq):
    """``SimulationResult.flow_results`` backed by a :class:`ResultStore`."""

    __slots__ = ("store",)

    def __init__(self, store: ResultStore):
        super().__init__(store.n_flows)
        self.store = store

    def _make(self, i: int) -> FlowResult:
        return self.store.make_flow_result(i)


class LazyCoflowResults(_LazySeq):
    """``SimulationResult.coflow_results`` backed by a :class:`ResultStore`."""

    __slots__ = ("store", "_flows")

    def __init__(self, store: ResultStore, flows: LazyFlowResults):
        super().__init__(store.n_coflows)
        self.store = store
        self._flows = flows

    def _make(self, k: int) -> CoflowResult:
        return self.store.make_coflow_result(k, self._flows)
