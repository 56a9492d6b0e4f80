"""The engine's pre-columnar event paths, pinned as a test oracle.

:class:`PreColumnarSliceSimulator` keeps the scalar per-flow ingest,
cancellation, retirement and full-regroup code that the columnar engine
replaced.  It is a correctness oracle, not a production path:

* ``tests/test_columnar_results.py`` replays workloads through it and
  through :class:`~repro.core.simulator.SliceSimulator` and requires
  bit-identical per-flow and per-coflow results;
* ``tests/test_recorder.py`` holds the columnar engine's decoded trace
  stream equal to this engine's, whose arrival, cancel and completion
  events go record by record through ``obs.recorder.emit``;
* ``benchmarks/bench_engine_microbench.py::
  test_columnar_ingest_cuts_submit_share`` uses it as the baseline the
  columnar ingest must beat.

Nothing in the library imports this module.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.coflow import Coflow, CoflowResult
from repro.core.events import HeapCalendar
from repro.core.flow import FlowResult
from repro.core.scheduler import CoflowState, SchedulerView
from repro.core.simulator import (
    _ACTIVE,
    _CANCELLED,
    _DONE,
    _PENDING,
    SimulationResult,
    SliceSimulator,
    _tolerance,
)
from repro.errors import ConfigurationError


class _CoflowRecord:
    """Live state of one submitted coflow, kept per record.

    ``slot`` is the coflow's row in the engine's per-coflow columns; this
    engine fills only the priority class and served flag there, which
    FVDF reads through the view as it does on the columnar engine.
    """

    __slots__ = (
        "coflow", "global_idx", "slot", "remaining", "state", "finish_phys",
        "flow_results",
    )

    def __init__(self, coflow: Coflow, global_idx: np.ndarray, slot: int):
        self.coflow = coflow
        self.global_idx = global_idx
        self.slot = slot
        self.remaining = len(global_idx)
        self.state = CoflowState(coflow=coflow, flow_idx=np.empty(0, dtype=np.intp))
        self.finish_phys = 0.0
        self.flow_results: List[FlowResult] = []


class PreColumnarSliceSimulator(SliceSimulator):
    """The engine's scalar per-event path, pinned pre-columnar.

    The columnar engine replaced the per-flow Python in the engine's
    *event* paths — scalar ``submit`` column fills, the per-flow
    ``FlowResult`` materialization loop inside ``_retire_finished``, the
    dict-chasing full ``_regroup`` rebuild at every structural change,
    per-decision ``raw``/``comp`` copies — with batched column ops and a
    lazy ``ResultStore``.  This subclass keeps the replaced
    implementations verbatim (same semantics, same results), so the tests
    named in the module docstring can hold the columnar engine to them.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cached_perm = np.empty(0, dtype=np.intp)
        self._cached_starts = np.zeros(1, dtype=np.intp)
        # The pre-columnar calendar held (arrival, counter, Coflow) heap
        # entries, and per-coflow state lived in _CoflowRecord objects
        # keyed by id (the columnar engine keys dense slots instead).
        self._calendar = HeapCalendar()
        self._coflows = {}  # coflow_id -> _CoflowRecord
        self._coflow_arrival = {}  # coflow_id -> arrival time
        # results were materialized eagerly, one object per flow/coflow
        self._flow_results = []
        self._coflow_results = []

    def _next_arrival(self):
        """Earliest pending non-cancelled arrival (lazy lambda prune)."""
        self._calendar.prune_head(lambda c: c.coflow_id in self._cancelled)
        return self._calendar.peek_time()

    # ------------------------------------------------------------- ingest
    def submit(self, coflow) -> None:
        """Scalar per-flow ingest (the pre-columnar ``submit``)."""
        if coflow.arrival < self.now - 1e-12:
            raise ConfigurationError(
                f"coflow {coflow.coflow_id} arrives at {coflow.arrival} "
                f"but the simulation is already at {self.now}"
            )
        if coflow.coflow_id in self._coflows:
            raise ConfigurationError(f"coflow {coflow.coflow_id} submitted twice")
        n_new = len(coflow.flows)
        self._grow(n_new)
        g0 = self._n
        for j, f in enumerate(coflow.flows):
            g = g0 + j
            self._src[g] = f.src
            self._dst[g] = f.dst
            self._size[g] = f.size
            self._arrival[g] = coflow.arrival
            self._compressible[g] = f.compressible
            self._coflow_of[g] = coflow.coflow_id
            self._flow_id[g] = f.flow_id
            self._raw[g] = f.size
            self._comp[g] = 0.0
            self._tol[g] = _tolerance(self._size[g])
            if f.ratio_override is not None:
                self._xi[g] = f.ratio_override
            elif self.compression is not None:
                self._xi[g] = self.compression.ratio(f.size)
            else:
                self._xi[g] = 1.0
            self._state[g] = _PENDING
        self._n += n_new
        self.fabric.validate_endpoints(
            self._src[g0 : self._n], self._dst[g0 : self._n]
        )
        idx = np.arange(g0, self._n, dtype=np.intp)
        slot = self._n_cf
        self._cf_grow(1)
        self._cf_prio[slot] = 1.0
        self._cf_served[slot] = True
        self._n_cf += 1
        self._coflows[coflow.coflow_id] = _CoflowRecord(coflow, idx, slot)
        self._coflow_arrival[coflow.coflow_id] = coflow.arrival
        self._calendar.push(coflow)

    def submit_many(self, coflows) -> None:
        for c in coflows:
            self.submit(c)

    # -------------------------------------------------------- cancellation
    def cancel_coflow(self, coflow_id: int) -> int:
        """Scalar per-flow cancellation (the pre-columnar loop)."""
        rec = self._coflows.get(coflow_id)
        if rec is None:
            raise ConfigurationError(f"unknown coflow {coflow_id}")
        if rec.remaining == 0:
            raise ConfigurationError(
                f"coflow {coflow_id} already completed; nothing to cancel"
            )
        now = self.now
        cancelled = 0
        for g in rec.global_idx:
            if self._state[g] in (_PENDING, _ACTIVE):
                if self._state[g] == _PENDING:
                    self._start[g] = now
                self._state[g] = _CANCELLED
                self._finish[g] = now
                if self._finish_phys[g] == 0.0:
                    self._finish_phys[g] = now
                cancelled += 1
        self._active = self._active[self._coflow_of[self._active] != coflow_id]
        self._groups_dirty = True
        rec.remaining = 0
        self._cancelled.add(int(coflow_id))
        flt = self.obs.recorder
        if flt.enabled:
            flt.emit(now, "cancel", coflow_id=int(coflow_id), n_flows=cancelled)
        self.obs.metrics.counter("engine.cancellations").inc(cancelled)
        return cancelled

    # ---------------------------------------------------------- activation
    def _activate_due(self):
        due = [
            c
            for c in self._calendar.pop_due(self.now + 1e-12)
            if c.coflow_id not in self._cancelled
        ]
        flt = self.obs.recorder
        for coflow in due:
            rec = self._coflows[coflow.coflow_id]
            self._state[rec.global_idx] = _ACTIVE
            self._start[rec.global_idx] = self.now
            self._active = np.concatenate((self._active, rec.global_idx))
            self._groups_dirty = True
            if flt.enabled:
                flt.emit(
                    self.now,
                    "arrival",
                    coflow_id=int(coflow.coflow_id),
                    n_flows=len(rec.global_idx),
                )
        if due:
            self.obs.metrics.counter("engine.arrivals").inc(len(due))
        return due

    # ------------------------------------------------------- view building
    def _regroup(self) -> None:
        """Full rebuild with the per-coflow dict/attribute chase."""
        idx = self._active
        coflow_ids = self._coflow_of[idx]
        uids, inv = np.unique(coflow_ids, return_inverse=True)
        arr_of = self._coflow_arrival
        arrivals = np.asarray([arr_of[c] for c in uids.tolist()])
        by_arrival = np.lexsort((uids, arrivals))
        rank = np.empty(len(uids), dtype=np.intp)
        rank[by_arrival] = np.arange(len(uids), dtype=np.intp)
        unit_of_pos = rank[inv]
        perm = np.argsort(unit_of_pos, kind="stable").astype(np.intp, copy=False)
        counts = np.bincount(unit_of_pos, minlength=len(uids))
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        states = []
        slots = []
        for k, u in enumerate(by_arrival):
            rec = self._coflows[int(uids[u])]
            rec.state.flow_idx = perm[starts[k] : starts[k + 1]]
            states.append(rec.state)
            slots.append(rec.slot)
        self._cached_states = states
        self._cached_group_slots = np.asarray(slots, dtype=np.intp)
        self._cached_coflow_ids = coflow_ids
        self._cached_perm = perm
        self._cached_starts = starts
        self._cached_static = {
            "flow_ids": self._flow_id[idx],
            "src": self._src[idx],
            "dst": self._dst[idx],
            "xi": self._xi[idx],
            "size": self._size[idx],
            "arrival": self._arrival[idx],
            "compressible": self._compressible[idx],
        }
        self._groups_dirty = False

    def _build_view(self, trigger) -> SchedulerView:
        if self._groups_dirty or self.force_regroup:
            self._regroup()
        # The view carries the grouping up front.
        self._grouping_read = True
        idx = self._active
        static = self._cached_static
        free = self.cpu.free_cores()
        return SchedulerView(
            time=self.now,
            slice_len=self.slice_len,
            trigger=trigger,
            fabric=self.fabric,
            flow_ids=static["flow_ids"],
            src=static["src"],
            dst=static["dst"],
            raw=self._raw[idx].copy(),
            comp=self._comp[idx].copy(),
            xi=static["xi"],
            size=static["size"],
            arrival=static["arrival"],
            coflow_ids=self._cached_coflow_ids,
            compressible=static["compressible"],
            coflows=self._cached_states,
            free_cores=free,
            compression=self.compression,
            unit_perm=self._cached_perm,
            unit_starts=self._cached_starts,
            priority_table=(
                self._cached_group_slots, self._cf_prio, self._cf_served
            ),
        )

    # ---------------------------------------------------------- retirement
    def _make_flow_result(self, g: int) -> FlowResult:
        decompress = 0.0
        if self.compression is not None and self._comp_out[g] > 0:
            decompress = float(
                self._comp_out[g] / self.compression.codec.decompression_speed
            )
        return FlowResult(
            flow_id=int(self._flow_id[g]),
            coflow_id=int(self._coflow_of[g]),
            src=int(self._src[g]),
            dst=int(self._dst[g]),
            size=float(self._size[g]),
            arrival=float(self._arrival[g]),
            start=float(self._start[g]),
            finish=float(self._finish[g]),
            finish_physical=float(self._finish_phys[g]),
            bytes_sent=float(self._bytes_sent[g]),
            bytes_compressed_in=float(self._comp_in[g]),
            bytes_compressed_out=float(self._comp_out[g]),
            decompress_time=decompress,
        )

    def _retire_finished(self, boundary: float):
        """Per-flow dataclass materialization loop (pre-columnar)."""
        finished_coflows = []
        idx = self._active
        if len(idx) == 0:
            return finished_coflows
        vol = self._raw[idx] + self._comp[idx]
        done_mask = vol <= self._tol[idx]
        done_idx = idx[done_mask]
        if len(done_idx) == 0:
            return finished_coflows
        self._active = idx[~done_mask]
        self._groups_dirty = True
        self._state[done_idx] = _DONE
        self._finish[done_idx] = boundary
        unset = self._finish_phys[done_idx] == 0.0
        self._finish_phys[done_idx[unset]] = boundary
        flt = self.obs.recorder
        mx = self.obs.metrics
        mx.counter("engine.flow_completions").inc(len(done_idx))
        for g in done_idx:
            fr = self._make_flow_result(int(g))
            if flt.enabled:
                flt.emit(
                    boundary,
                    "completion",
                    flow_id=fr.flow_id,
                    coflow_id=fr.coflow_id,
                )
            self._flow_results.append(fr)
            rec = self._coflows[self._coflow_of[g]]
            rec.flow_results.append(fr)
            rec.remaining -= 1
            rec.finish_phys = max(rec.finish_phys, self._finish_phys[g])
            if rec.remaining == 0:
                finished_coflows.append(int(self._coflow_of[g]))
        for cid in finished_coflows:
            rec = self._coflows[cid]
            gi = rec.global_idx
            cr = CoflowResult(
                coflow_id=cid,
                label=rec.coflow.label,
                arrival=rec.coflow.arrival,
                finish=boundary,
                finish_physical=rec.finish_phys,
                size=float(self._size[gi].sum()),
                width=len(gi),
                bytes_sent=float(self._bytes_sent[gi].sum()),
                flow_results=list(rec.flow_results),
                deadline=rec.coflow.deadline,
            )
            if flt.enabled:
                flt.emit(boundary, "completion", coflow_id=cid)
            mx.counter("engine.completions").inc()
            self._coflow_results.append(cr)
            for fn in self._on_coflow_complete:
                fn(cr)
        return finished_coflows

    # -------------------------------------------------------------- results
    def result(self) -> SimulationResult:
        """Eager dataclass lists — no columnar store."""
        return SimulationResult(
            flow_results=list(self._flow_results),
            coflow_results=list(self._coflow_results),
            makespan=self.now,
            decision_points=self._decision_points,
            cpu_recorder=self._recorder,
            ingress_bytes=self._ingress_bytes.copy(),
            egress_bytes=self._egress_bytes.copy(),
        )
