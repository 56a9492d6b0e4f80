"""Slice-based discrete-event simulation engine.

The engine implements the paper's execution model (Section IV): time is
divided into slices of length ``δ``; the master observes arrivals and
completions, and re-runs the scheduler, only at slice boundaries.  Between
two decision points the allocation is constant, so instead of stepping
slice-by-slice the engine computes the next *interesting* instant (arrival,
physical flow completion, raw-data exhaustion of a compressing flow, or the
run horizon) in closed form and jumps to the first slice boundary at or
after it.  The observable behaviour is identical to literal slice stepping —
including the "time-slice waste" on sub-slice flows that the paper discusses
— at a cost of O(decision points × active flows) instead of O(slices).

Volume semantics (Section IV-A1):

* a *transmitting* flow drains ``V = raw + comp`` at its allocated rate,
  compressed bytes first (they were produced first);
* a *compressing* flow consumes ``raw`` at the codec speed ``R`` and emits
  ``R·ξ`` into ``comp`` — net drain ``R(1-ξ)`` (Eq. 1);
* per slice a flow does one or the other, never both (the paper's β).

Bookkeeping invariant, checked in tests: for every finished flow,
``bytes_sent + (size - bytes_compressed_in·(1-ξ_eff)) == size`` — i.e.
volume is conserved up to compression shrinkage.
"""

from __future__ import annotations

import heapq
import math
import time
import weakref
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow, CoflowResult
from repro.core.events import (
    KIND_BIT,
    ArrivalCalendar,
    EventKind,
    ScheduleTrigger,
    kinds_of,
    mask_of,
)
from repro.core.flow import FlowResult
from repro.core.ingest import CoflowBlock, coflow_from_columns
from repro.core.results import LazyCoflowResults, LazyFlowResults, ResultStore
from repro.core.scheduler import (
    Allocation,
    CoflowState,
    Scheduler,
    SchedulerView,
    segment_sums,
)
from repro.cpu.cores import CpuModel
from repro.cpu.monitor import UtilizationRecorder
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.fabric.bigswitch import BigSwitch
from repro.obs import NULL_OBS, Observability

#: Default slice length (paper Section VI-B3: 0.01 s).
DEFAULT_SLICE = 0.01

_PENDING, _ACTIVE, _DONE, _CANCELLED = 0, 1, 2, 3

#: Growable SoA flow columns (order mirrors the ``__init__`` assignments).
#: ``_override`` carries ``ratio_override`` (-1 = none) so a coflow can be
#: reconstructed faithfully from columns alone (lazy materialization,
#: checkpoints) — the effective ``_xi`` already folds it in for the
#: physics.
_FLOW_COLS = (
    "_src", "_dst", "_size", "_arrival", "_compressible", "_coflow_of",
    "_flow_id", "_raw", "_comp", "_xi", "_override", "_bytes_sent",
    "_comp_in", "_comp_out", "_start", "_finish", "_finish_phys", "_state",
    "_slot_of", "_done_seq",
)

#: Every growable flow column: the checkpointed ones plus ``_tol``, the
#: finish tolerance, which a restore derives from ``_size`` again.
_STORE_COLS = _FLOW_COLS + ("_tol",)

#: Dense per-coflow slot columns.  ``_cf_prio`` and ``_cf_served`` are
#: FVDF's priority class ``P`` and "served in the last window" flag
#: (1.0 and True at submit), read and written through
#: :meth:`SchedulerView.priority_columns`.
_CF_COLS = (
    "_cf_id", "_cf_arrival", "_cf_remaining", "_cf_finish",
    "_cf_finish_phys", "_cf_first", "_cf_count", "_cf_size", "_cf_bytes",
    "_cf_prio", "_cf_served",
)


#: Trigger-kind bits the engine ORs into a step's mask.
_START = KIND_BIT[EventKind.START]
_ARRIVAL = KIND_BIT[EventKind.ARRIVAL]
_COMPLETION = KIND_BIT[EventKind.COMPLETION]
_RAW_EXHAUSTED = KIND_BIT[EventKind.RAW_EXHAUSTED]
_CAPACITY = KIND_BIT[EventKind.CAPACITY]
#: The window kinds of a run(until=...) horizon that no event shares.
_HORIZON = KIND_BIT[EventKind.HORIZON]


def _tolerance(size):
    """Volume a flow may keep and still count as finished: ``1e-9·size +
    1e-9``.  Ingest stores it as a column, so the step never recomputes
    it."""
    return 1e-9 * size + 1e-9


class _Window:
    """One step's window: the allocation in force and its transmitting
    rows, taken once from the view for validation, the horizon and
    integration.

    ``tx`` masks the transmitting active positions and ``n_tx`` counts
    them; ``gi`` are their global rows and ``rates``, ``raw``, ``comp``
    and ``vol`` their rates and volumes.  Those volumes are the view's,
    which integration may use as is: its compress branch only writes β
    rows, and a β row never transmits.
    """

    __slots__ = (
        "alloc", "tx", "n_tx", "compressing", "gi", "rates", "raw", "comp",
        "vol",
    )


def _time_eps(t: float) -> float:
    """Comparison tolerance for simulated-time instants near ``t``.

    An absolute ``1e-12`` underflows double precision once ``t`` grows
    past a few thousand seconds (one ulp of 1e9 is already ~1.2e-7), so
    horizon/resume comparisons at large simulated times would silently
    become exact equality and a resume tick could double-fire a boundary
    slice.  A few ulps of ``t`` track float resolution at any magnitude
    while staying far below any slice length; the 1e-12 floor preserves
    the historical behaviour at small times.
    """
    return max(1e-12, 8.0 * math.ulp(abs(t)))


class SimulationResult:
    """Everything a run produced.

    Two interchangeable backings:

    * **columnar** (the engine's default): a :class:`ResultStore`
      snapshot; ``flow_results`` / ``coflow_results`` are lazy sequences
      that materialize dataclasses on demand, and the array accessors
      (``fct_array`` et al.) read columns directly with zero per-flow
      Python;
    * **eager** (legacy engines, hand-built results): plain lists, with
      the array accessors falling back to one comprehension, computed
      once and cached.

    Both paths produce bit-identical metrics; the lazy sequences compare
    equal to plain lists element-wise.
    """

    def __init__(
        self,
        flow_results: Optional[Sequence[FlowResult]] = None,
        coflow_results: Optional[Sequence[CoflowResult]] = None,
        makespan: float = 0.0,
        decision_points: int = 0,
        cpu_recorder: Optional[UtilizationRecorder] = None,
        ingress_bytes: Optional[np.ndarray] = None,
        egress_bytes: Optional[np.ndarray] = None,
        store: Optional[ResultStore] = None,
    ):
        if store is None and (flow_results is None or coflow_results is None):
            raise ValueError(
                "SimulationResult needs either a ResultStore or eager "
                "flow_results + coflow_results lists"
            )
        self._eager_flows = flow_results
        self._eager_coflows = coflow_results
        self.store = store
        self.makespan = makespan
        self.decision_points = decision_points
        self.cpu_recorder = cpu_recorder
        self.ingress_bytes = ingress_bytes
        self.egress_bytes = egress_bytes
        self._lazy_flows: Optional[LazyFlowResults] = None
        self._lazy_coflows: Optional[LazyCoflowResults] = None
        self._fct_array: Optional[np.ndarray] = None
        self._cct_array: Optional[np.ndarray] = None
        self._size_array: Optional[np.ndarray] = None
        self._finish_array: Optional[np.ndarray] = None

    # -------------------------------------------------------- result lists
    @property
    def flow_results(self) -> Sequence[FlowResult]:
        if self._eager_flows is not None:
            return self._eager_flows
        if self._lazy_flows is None:
            self._lazy_flows = LazyFlowResults(self.store)
        return self._lazy_flows

    @property
    def coflow_results(self) -> Sequence[CoflowResult]:
        if self._eager_coflows is not None:
            return self._eager_coflows
        if self._lazy_coflows is None:
            self._lazy_coflows = LazyCoflowResults(
                self.store, self.flow_results
            )
        return self._lazy_coflows

    # ------------------------------------------------------ columnar views
    @property
    def fct_array(self) -> np.ndarray:
        """Per-flow completion times (``finish - arrival``), flow order."""
        if self._fct_array is None:
            if self.store is not None and self._eager_flows is None:
                self._fct_array = self.store.finish - self.store.arrival
            else:
                self._fct_array = np.asarray(
                    [f.fct for f in self.flow_results], dtype=np.float64
                )
        return self._fct_array

    @property
    def size_array(self) -> np.ndarray:
        """Per-flow original sizes, aligned with :attr:`fct_array`."""
        if self._size_array is None:
            if self.store is not None and self._eager_flows is None:
                self._size_array = self.store.size
            else:
                self._size_array = np.asarray(
                    [f.size for f in self.flow_results], dtype=np.float64
                )
        return self._size_array

    @property
    def cct_array(self) -> np.ndarray:
        """Per-coflow completion times, coflow close order."""
        if self._cct_array is None:
            if self.store is not None and self._eager_coflows is None:
                self._cct_array = self.store.cf_finish - self.store.cf_arrival
            else:
                self._cct_array = np.asarray(
                    [c.cct for c in self.coflow_results], dtype=np.float64
                )
        return self._cct_array

    @property
    def finish_array(self) -> np.ndarray:
        """Per-coflow finish instants, aligned with :attr:`cct_array`."""
        if self._finish_array is None:
            if self.store is not None and self._eager_coflows is None:
                self._finish_array = self.store.cf_finish
            else:
                self._finish_array = np.asarray(
                    [c.finish for c in self.coflow_results], dtype=np.float64
                )
        return self._finish_array

    def _flow_column(self, name: str) -> np.ndarray:
        """A per-flow column (store-backed or via one comprehension)."""
        if self.store is not None and self._eager_flows is None:
            return getattr(self.store, name)
        attr = {"finish_phys": "finish_physical"}.get(name, name)
        return np.asarray(
            [getattr(f, attr) for f in self.flow_results], dtype=np.float64
        )

    def port_utilization(self, capacity_in, capacity_out):
        """Mean per-port utilization over the makespan (0..1 arrays).

        ``bytes_sent / (capacity * makespan)`` per side — how evenly the
        schedule spread load across the fabric.
        """
        if self.ingress_bytes is None or self.makespan <= 0:
            return None, None
        u_in = self.ingress_bytes / (np.asarray(capacity_in) * self.makespan)
        u_out = self.egress_bytes / (np.asarray(capacity_out) * self.makespan)
        return u_in, u_out

    @property
    def avg_fct(self) -> float:
        arr = self.fct_array
        if arr.size == 0:
            return 0.0
        return float(np.mean(arr))

    @property
    def avg_cct(self) -> float:
        arr = self.cct_array
        if arr.size == 0:
            return 0.0
        return float(np.mean(arr))

    @property
    def max_cct(self) -> float:
        """Tail CCT: the slowest coflow's completion time."""
        arr = self.cct_array
        if arr.size == 0:
            return 0.0
        return float(arr.max())

    @property
    def total_bytes_sent(self) -> float:
        return float(np.sum(self._flow_column("bytes_sent")))

    @property
    def total_bytes_original(self) -> float:
        return float(np.sum(self.size_array))

    @property
    def traffic_reduction(self) -> float:
        """Fraction of bytes kept off the wire by compression (Table VII)."""
        orig = self.total_bytes_original
        if orig <= 0:
            return 0.0
        return 1.0 - self.total_bytes_sent / orig

    def __repr__(self):
        return (
            f"SimulationResult(flows={len(self.flow_results)}, "
            f"coflows={len(self.coflow_results)}, "
            f"makespan={self.makespan!r}, "
            f"decision_points={self.decision_points})"
        )


class _CoflowFactory:
    """Coflow object by id: the one factory every lazy
    :class:`CoflowState` of an engine shares.

    Resolves the *current* slot through the engine's id map, so it stays
    valid across drain compactions.  Holds the engine's weak proxy: a
    strong reference would close the cycle engine -> state -> factory ->
    engine, and a dropped engine would then wait for the cyclic GC.  Once
    the engine is gone a call raises ``ReferenceError``.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "SliceSimulator"):
        self._sim = sim

    def __call__(self, coflow_id: int) -> Coflow:
        sim = self._sim
        return sim._coflow_for_slot(sim._coflows[coflow_id])


#: View columns gathered from the store on first read: name -> column.
_LAZY_COLUMNS = {
    "flow_ids": "_flow_id",
    "xi": "_xi",
    "size": "_size",
    "arrival": "_arrival",
    "coflow_ids": "_coflow_of",
    "compressible": "_compressible",
}
#: View attributes that the engine's coflow grouping binds.
_GROUPING = frozenset(
    {"unit_perm", "unit_starts", "coflow_table", "priority_table"}
)


class _EngineView(SchedulerView):
    """The engine's :class:`SchedulerView` of its active set.

    ``src``, ``dst``, ``raw`` and ``comp`` are gathered up front; every
    policy reads them.  The other columns, the free cores and the coflow
    grouping are bound on first read, so a policy pays only for what it
    reads: the flow-level baselines never group coflows, only FVDF reads
    the free cores, and only a policy that walks coflows one by one
    (``dclas``, ``sincronia``, the deadline policies,
    ``FixedOrderScheduler``) reads ``coflows``, the one attribute built
    as Python objects.  Read a view during its own decision: the
    engine's store moves on afterwards, so a first read of a lazy
    attribute after the decision raises :class:`SimulationError`
    instead of returning a later state.
    """

    def __init__(self, sim: "SliceSimulator", trigger: ScheduleTrigger):
        idx = sim._active
        self.time = sim._k * sim.slice_len
        self.slice_len = sim.slice_len
        self.trigger = trigger
        self.fabric = sim.fabric
        self.compression = sim.compression
        self.src = sim._src[idx]
        self.dst = sim._dst[idx]
        self.raw = sim._raw[idx]
        self.comp = sim._comp[idx]
        self._coflow_cols = None
        self._sim = sim._proxy
        self._idx = idx
        self._decision = sim._decision_points

    def __getattr__(self, name):
        # Only reached for attributes not bound yet.
        sim = self.__dict__.get("_sim")
        if sim is None:
            raise AttributeError(name)
        column = _LAZY_COLUMNS.get(name)
        if (
            column is None and name not in _GROUPING
            and name not in ("free_cores", "coflows")
        ):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        if sim._decision_points != self._decision:
            raise SimulationError(
                f"view.{name} first read after its decision (decision "
                f"{self._decision}, engine at {sim._decision_points}): an "
                "engine view is read only during its own decision"
            )
        if column is not None:
            value = getattr(sim, column)[self._idx]
        elif name == "free_cores":
            value = sim.cpu.free_cores(self.time)
        elif name == "coflows":
            value = sim._coflow_states(self)
        else:
            sim._bind_grouping(self)
            return self.__dict__[name]
        self.__dict__[name] = value
        return value


class SliceSimulator:
    """The slice-granular coflow simulator.

    Parameters
    ----------
    fabric:
        The big-switch network.
    scheduler:
        The scheduling policy under test.
    slice_len:
        Slice length ``δ`` in seconds (default 10 ms, the paper's setting).
    cpu:
        CPU model; defaults to one idle ``cores_per_node=4`` node per
        ingress port.  Required shape: one node per ingress port.
    compression:
        Compression engine offered to compression-aware schedulers.  A
        default LZ4 engine is created when the scheduler declares
        ``uses_compression`` and none is given.
    sample_cpu:
        Record per-node busy fractions at every decision point (Fig. 2).
    obs:
        Observability bundle (:class:`repro.obs.Observability`).  Defaults
        to the disabled :data:`repro.obs.NULL_OBS`; every hook site guards
        on the component's ``enabled`` flag so the default costs only a
        predicate check per decision point.  The bundle is also bound onto
        the scheduler (``scheduler.bind_observability``) so policies can
        emit their own records (e.g. FVDF's Γ_C/P ordering).
    """

    def __init__(
        self,
        fabric: BigSwitch,
        scheduler: Scheduler,
        slice_len: float = DEFAULT_SLICE,
        cpu: Optional[CpuModel] = None,
        compression: Optional[CompressionEngine] = None,
        sample_cpu: bool = False,
        obs: Optional[Observability] = None,
    ):
        if slice_len <= 0:
            raise ConfigurationError(f"slice_len must be positive, got {slice_len}")
        self.fabric = fabric
        self.scheduler = scheduler
        self.obs = obs if obs is not None else NULL_OBS
        scheduler.bind_observability(self.obs)
        self.slice_len = float(slice_len)
        self.cpu = cpu if cpu is not None else CpuModel(fabric.num_ingress)
        if self.cpu.num_nodes != fabric.num_ingress:
            raise ConfigurationError(
                f"cpu has {self.cpu.num_nodes} nodes but fabric has "
                f"{fabric.num_ingress} ingress ports"
            )
        if compression is None and scheduler.uses_compression:
            compression = CompressionEngine()
        self.compression = compression

        # --- growable SoA flow store -----------------------------------------
        self._cap = 0
        self._n = 0
        self._src = np.empty(0, dtype=np.intp)
        self._dst = np.empty(0, dtype=np.intp)
        self._size = np.empty(0, dtype=np.float64)
        self._arrival = np.empty(0, dtype=np.float64)
        self._compressible = np.empty(0, dtype=bool)
        self._coflow_of = np.empty(0, dtype=np.int64)
        self._flow_id = np.empty(0, dtype=np.int64)
        self._raw = np.empty(0, dtype=np.float64)
        self._comp = np.empty(0, dtype=np.float64)
        self._xi = np.empty(0, dtype=np.float64)  # effective ratio per flow
        self._override = np.empty(0, dtype=np.float64)  # ratio_override, -1=None
        self._bytes_sent = np.empty(0, dtype=np.float64)
        self._comp_in = np.empty(0, dtype=np.float64)
        self._comp_out = np.empty(0, dtype=np.float64)
        self._start = np.empty(0, dtype=np.float64)
        self._finish = np.empty(0, dtype=np.float64)
        self._finish_phys = np.empty(0, dtype=np.float64)
        self._state = np.empty(0, dtype=np.int8)
        #: Owning coflow *slot* (dense per-coflow array index) per flow.
        self._slot_of = np.empty(0, dtype=np.intp)
        #: Retirement sequence number per flow (order within the run).
        self._done_seq = np.empty(0, dtype=np.int64)
        #: Finish tolerance per flow (:func:`_tolerance` of its size).
        self._tol = np.empty(0, dtype=np.float64)

        # --- dense per-coflow slot arrays ------------------------------------
        # One slot per submitted coflow, in submission order.  Retirement
        # closes coflows with bincount/scatter ops over these instead of
        # chasing record attributes per flow.
        self._cf_cap = 0
        self._n_cf = 0
        self._cf_id = np.empty(0, dtype=np.int64)
        self._cf_arrival = np.empty(0, dtype=np.float64)
        self._cf_remaining = np.empty(0, dtype=np.int64)
        self._cf_finish = np.empty(0, dtype=np.float64)
        self._cf_finish_phys = np.empty(0, dtype=np.float64)
        self._cf_first = np.empty(0, dtype=np.intp)
        self._cf_count = np.empty(0, dtype=np.int64)
        self._cf_size = np.empty(0, dtype=np.float64)
        self._cf_bytes = np.empty(0, dtype=np.float64)
        self._cf_prio = np.empty(0, dtype=np.float64)
        self._cf_served = np.empty(0, dtype=bool)
        self._cf_labels: List[str] = []
        self._cf_deadlines: List[Optional[float]] = []
        # Per-slot lazy object cache: the backing Coflow (None for rows
        # ingested from raw columns until someone asks for the object).
        self._cf_coflows: List[Optional[Coflow]] = []
        #: The engine through a weak proxy, for the objects it hands out
        #: (coflow factory, views): a dropped engine is freed by refcount.
        self._proxy = weakref.proxy(self)
        self._coflow_factory = _CoflowFactory(self._proxy)

        # --- retirement log (feeds the ResultStore snapshot) ----------------
        self._done_chunks: List[np.ndarray] = []   # global flow idx, per retire
        self._closed_chunks: List[np.ndarray] = []  # coflow slots, per retire
        self._done_total = 0

        #: Active-flow global indices, maintained as an ndarray so view
        #: building and volume integration never round-trip through lists.
        self._active = np.empty(0, dtype=np.intp)
        self._cancelled: set = set()
        # --- incremental view cache ------------------------------------------
        # Coflow grouping only changes when the active set changes.
        # While decisions read it, arrivals and retirements patch the
        # cached segmentation *incrementally* (append / shrink deltas);
        # ``_groups_dirty`` — a full rebuild on the next read — is set by
        # cancellation, the rare delta-ineligible arrival and a decision
        # that did not read the grouping (flow-level policies never do).
        self._groups_dirty = True
        #: Whether the current decision read the grouping (see _decide).
        self._grouping_read = False
        #: Debug/benchmark knob: force a full regroup at every decision
        #: point, restoring the pre-incremental view-building cost (used
        #: by the perf harness to measure the cache's win and by the
        #: microbench overhead guard).
        self.force_regroup = False
        # The grouping: unit permutation and offsets, the unit of every
        # active position, and the coflow slot of every unit.
        self._cached_perm = np.empty(0, dtype=np.intp)
        self._cached_starts = np.zeros(1, dtype=np.intp)
        self._cached_unit_of_pos = np.empty(0, dtype=np.intp)
        self._cached_group_slots = np.empty(0, dtype=np.intp)
        #: Pending capacity changes, a heap of (time, side, port, seq, cap).
        self._cap_events: List = []
        self._cap_seq = 0
        #: coflow id -> dense slot index (remapped on drain compaction).
        self._coflows: Dict[int, int] = {}
        self._calendar = ArrivalCalendar()
        self._claim_nodes: List[int] = []  # nodes with a core claimed last window

        self._k = 0  # current slice index; now == _k * slice_len
        # Memoized _time_eps(now): `now` only changes with _k, and the
        # hot paths (submit/activate/horizon) all want the same epsilon.
        self._eps_k = -1
        self._eps_val = 0.0
        self._started = False
        self._decision_points = 0
        # State a ``run(until=...)`` horizon must not lose, so a chunked
        # run equals an uninterrupted one: the trigger kinds observed at
        # the last boundary, and the allocation still in force when the
        # horizon (not an event) ended the window.  Cancellation drops
        # the held allocation; arrivals and capacity changes re-decide.
        self._resume_mask = 0
        self._held: Optional[Allocation] = None
        self._ingress_bytes = np.zeros(fabric.num_ingress)
        self._egress_bytes = np.zeros(fabric.num_egress)
        self._flow_results: List[FlowResult] = []
        self._coflow_results: List[CoflowResult] = []
        self._on_coflow_complete: List[Callable[[CoflowResult], None]] = []
        self._on_flow_complete: List[Callable[[FlowResult], None]] = []
        self._on_decision: List[Callable[[float], None]] = []
        self._recorder = UtilizationRecorder(self.cpu.num_nodes) if sample_cpu else None

    # ------------------------------------------------------------------ store
    def _grow(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._cap:
            return
        new_cap = max(64, self._cap * 2, need)
        for name in _STORE_COLS:
            old = getattr(self, name)
            arr = np.zeros(new_cap, dtype=old.dtype)
            arr[: self._n] = old[: self._n]
            setattr(self, name, arr)
        self._cap = new_cap

    def _cf_grow(self, extra: int) -> None:
        need = self._n_cf + extra
        if need <= self._cf_cap:
            return
        new_cap = max(16, self._cf_cap * 2, need)
        for name in _CF_COLS:
            old = getattr(self, name)
            arr = np.zeros(new_cap, dtype=old.dtype)
            arr[: self._n_cf] = old[: self._n_cf]
            setattr(self, name, arr)
        self._cf_cap = new_cap

    # ------------------------------------------------------------------- API
    @property
    def now(self) -> float:
        """Current simulated time (always on the slice grid)."""
        return self._k * self.slice_len

    @property
    def pending(self) -> bool:
        """Whether any submitted work is still unfinished."""
        return self._active.size > 0 or len(self._calendar) > 0

    @property
    def active_flows(self) -> int:
        """Number of currently active flows (the hot-path working-set size)."""
        return int(self._active.size)

    @property
    def retired_flows(self) -> int:
        """Cumulative count of flows that have finished, across the whole
        run — including rows already evicted by :meth:`drain_retired`.
        ``submitted - retired_flows`` is the in-flight backlog a streaming
        driver throttles on."""
        return int(self._done_total)

    @property
    def live_rows(self) -> int:
        """Rows currently held in the columnar store (the engine's memory
        footprint); shrinks when :meth:`drain_retired` compacts."""
        return int(self._n)

    def on_coflow_complete(self, fn: Callable[[CoflowResult], None]) -> None:
        """Register a completion callback (used by the cluster simulator)."""
        self._on_coflow_complete.append(fn)

    def on_flow_complete(self, fn: Callable[[FlowResult], None]) -> None:
        self._on_flow_complete.append(fn)

    def on_decision(self, fn: Callable[[float], None]) -> None:
        """Register a hook fired at every decision point (before the
        scheduler runs) — e.g. the Swallow daemons' measurement beat."""
        self._on_decision.append(fn)

    def submit(self, coflow: Coflow) -> None:
        """Add a coflow to the workload; allowed any time before its arrival."""
        self.submit_many([coflow])

    def submit_many(self, coflows: Sequence[Coflow]) -> None:
        """Batched ingest of coflow objects.

        Flattens the dataclasses into a :class:`CoflowBlock` (the only
        per-flow Python left on this path) and hands it to
        :meth:`submit_block`.
        """
        coflows = list(coflows)
        if not coflows:
            return
        self.submit_block(CoflowBlock.from_coflows(coflows))

    def submit_block(self, block: CoflowBlock) -> None:
        """Block-columnar ingest: write every flow/coflow column in bulk.

        One ``_grow``, one vectorized ``xi`` evaluation, one
        ``validate_endpoints`` call and one staged calendar append for the
        whole block; per-coflow Python is limited to the id→slot dict
        fill.  The block was checked when it was built, and no
        :class:`Flow`/:class:`Coflow` object is constructed here.
        """
        m = block.n_coflows
        if m == 0:
            return
        now = self.now
        eps = self._eps_now()
        if float(block.arrival.min()) < now - eps:
            i = int(block.arrival.argmin())
            raise ConfigurationError(
                f"coflow {int(block.coflow_id[i])} arrives at "
                f"{float(block.arrival[i])} "
                f"but the simulation is already at {now}"
            )
        ids = block.coflow_id
        n_new = block.n_flows
        self.fabric.validate_endpoints(block.src, block.dst)
        size = block.size
        if self.compression is not None:
            xi = np.asarray(self.compression.ratio(size), dtype=np.float64)
        else:
            xi = np.ones_like(size)
        override = block.override
        has_override = override >= 0.0
        if has_override.any():
            xi = np.where(has_override, override, xi)

        self._grow(n_new)
        g0, g1 = self._n, self._n + n_new
        widths = block.width
        slot0 = self._n_cf
        self._cf_grow(m)
        slots = np.arange(slot0, slot0 + m, dtype=np.intp)

        self._src[g0:g1] = block.src
        self._dst[g0:g1] = block.dst
        self._size[g0:g1] = size
        # Per-flow arrivals normally equal the coflow's but the legacy
        # object API lets them diverge, so the block carries them.
        self._arrival[g0:g1] = block.flow_arrival
        self._compressible[g0:g1] = block.compressible
        self._coflow_of[g0:g1] = np.repeat(ids, widths)
        self._flow_id[g0:g1] = block.flow_id
        self._raw[g0:g1] = size
        self._comp[g0:g1] = 0.0
        self._tol[g0:g1] = _tolerance(self._size[g0:g1])
        self._xi[g0:g1] = xi
        self._override[g0:g1] = override
        self._state[g0:g1] = _PENDING
        self._slot_of[g0:g1] = np.repeat(slots, widths)
        self._n = g1

        firsts = g0 + np.concatenate(([0], np.cumsum(widths[:-1])))
        self._cf_id[slots] = ids
        self._cf_arrival[slots] = block.arrival
        self._cf_remaining[slots] = widths
        self._cf_first[slots] = firsts
        self._cf_count[slots] = widths
        self._cf_prio[slot0 : slot0 + m] = 1.0
        self._cf_served[slot0 : slot0 + m] = True
        self._n_cf += m
        self._cf_labels.extend(block.label)
        self._cf_deadlines.extend(block.deadline)
        self._cf_coflows.extend([None] * m)
        cmap = self._coflows
        slot = slot0
        for cid in ids.tolist():
            if cid in cmap:
                # roll the block back before raising: nothing submitted
                self._n = g0
                self._n_cf = slot0
                del self._cf_labels[slot0:]
                del self._cf_deadlines[slot0:]
                del self._cf_coflows[slot0:]
                for done in ids.tolist():
                    if cmap.get(done, -1) >= slot0:
                        del cmap[done]
                raise ConfigurationError(f"coflow {cid} submitted twice")
            cmap[cid] = slot
            slot += 1
        self._calendar.push_batch(block.arrival, slots)

    # ------------------------------------------------ lazy per-slot objects
    def _coflow_for_slot(self, slot: int) -> Coflow:
        """The backing :class:`Coflow` of a slot, materialized on demand.

        Rows have no object until a legacy caller (tracer callback,
        ``state.coflow``, ``export_state``) asks; reconstruction carries
        the stored ids, so the object is indistinguishable from one built
        at ingest time.
        """
        cf = self._cf_coflows[slot]
        if cf is None:
            a = int(self._cf_first[slot])
            b = a + int(self._cf_count[slot])
            cols = (self._src, self._dst, self._size, self._compressible,
                    self._override, self._flow_id)
            cf = self._cf_coflows[slot] = coflow_from_columns(
                *(col[a:b] for col in cols),
                arrival=self._cf_arrival[slot], label=self._cf_labels[slot],
                deadline=self._cf_deadlines[slot], coflow_id=self._cf_id[slot],
            )
        return cf

    def _eps_now(self) -> float:
        """Memoized ``_time_eps(self.now)`` — ``now`` only moves with ``_k``."""
        if self._eps_k != self._k:
            self._eps_val = _time_eps(self._k * self.slice_len)
            self._eps_k = self._k
        return self._eps_val

    def cancel_coflow(self, coflow_id: int) -> int:
        """Abort a coflow: its unfinished flows leave the fabric now.

        Models job kills and framework-level aborts (e.g. a Spark stage
        failing mid-shuffle).  Flows that already completed keep their
        results; the coflow itself never produces a
        :class:`~repro.core.coflow.CoflowResult`.

        Returns the number of flows cancelled.  Callable between
        :meth:`run` calls or from completion callbacks.

        Cancelled flows are stamped with the cancellation instant in
        ``_finish``/``_finish_phys`` (never-started flows also get
        ``_start`` stamped), so store-level analysis can tell an aborted
        flow's lifetime apart from "finished at t=0".
        """
        slot = self._coflows.get(coflow_id)
        if slot is None:
            raise ConfigurationError(f"unknown coflow {coflow_id}")
        if self._cf_remaining[slot] == 0:
            raise ConfigurationError(
                f"coflow {coflow_id} already completed; nothing to cancel"
            )
        now = self.now
        first = int(self._cf_first[slot])
        gi = np.arange(first, first + int(self._cf_count[slot]), dtype=np.intp)
        st = self._state[gi]
        live = (st == _PENDING) | (st == _ACTIVE)
        self._start[gi[live & (st == _PENDING)]] = now
        live_idx = gi[live]
        self._state[live_idx] = _CANCELLED
        self._finish[live_idx] = now
        unset = live & (self._finish_phys[gi] == 0.0)
        self._finish_phys[gi[unset]] = now
        cancelled = int(np.count_nonzero(live))
        # Activation flips a whole coflow at once, so flows are all
        # _PENDING exactly when the coflow is still in the calendar.
        if st[0] == _PENDING:
            self._calendar.discard(slot)
        self._active = self._active[self._coflow_of[self._active] != coflow_id]
        self._groups_dirty = True
        self._held = None
        self._cf_remaining[slot] = 0
        self._cancelled.add(int(coflow_id))
        flt = self.obs.recorder
        if flt.enabled:
            flt.add_cancel(now, int(coflow_id), cancelled)
        self.obs.metrics.counter("engine.cancellations").inc(cancelled)
        return cancelled

    @property
    def cancelled_coflows(self) -> frozenset:
        """Ids of coflows aborted via :meth:`cancel_coflow`."""
        return frozenset(self._cancelled)

    def schedule_capacity_change(
        self, time: float, side: str, port: int, capacity: float
    ) -> None:
        """Change a port's capacity at a future instant (dynamic bandwidth).

        Models background traffic coming and going — the condition the
        Swallow daemons measure and the master adapts to.  The change is
        applied at the first slice boundary at/after ``time`` and triggers
        a rescheduling (``EventKind.CAPACITY``).

        Parameters
        ----------
        side:
            ``"ingress"`` or ``"egress"``.
        """
        if side not in ("ingress", "egress"):
            raise ConfigurationError(f"side must be ingress/egress, got {side!r}")
        if time < self.now - _time_eps(self.now):
            raise ConfigurationError(
                f"capacity change at {time} is in the past (now={self.now})"
            )
        if capacity <= 0:
            raise ConfigurationError("capacity must stay positive")
        # The sequence number orders changes to one port at one instant:
        # the one scheduled last is applied last, so it wins.
        heapq.heappush(
            self._cap_events,
            (float(time), side, int(port), self._cap_seq, float(capacity)),
        )
        self._cap_seq += 1

    def _apply_due_capacity_changes(self) -> bool:
        applied = False
        flt = self.obs.recorder
        while self._cap_events and (
            self._cap_events[0][0] <= self.now + self._eps_now()
        ):
            _, side, port, _, cap = heapq.heappop(self._cap_events)
            getattr(self.fabric, side).set_capacity(port, cap)
            if flt.enabled:
                flt.add_capacity(self.now, side, port, cap)
            applied = True
        return applied

    # ------------------------------------------------------------ main loop
    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run until all submitted coflows finish (or ``until`` is reached).

        Incremental use is supported: call :meth:`run` with a horizon,
        :meth:`submit` more work, and call :meth:`run` again.  A horizon
        is not a decision point: the next call resumes with the pending
        trigger kinds and, if no event ended the window, the allocation
        still in force, so a chunked run equals an uninterrupted one.
        """
        mask = self._resume_mask if self._started else _START
        held, self._held = self._held, None
        self._started = True
        while True:
            # Jump over empty time if nothing is active.
            if self._active.size == 0:
                nxt = self._next_arrival()
                if nxt is None:
                    # Nothing to do, but ``run(until=t)`` still means "the
                    # clock reaches t": an idle engine must advance so an
                    # incremental caller's horizon keeps moving (a streaming
                    # driver waiting out an arrival gap would otherwise spin
                    # on a frozen ``now`` forever).
                    if until is not None:
                        self._jump_to(until)
                    break
                if until is not None and nxt > until:
                    self._jump_to(until)
                    break
                self._jump_to(nxt)
            if until is not None and self.now >= until - _time_eps(until):
                break

            if self._activate_due():
                mask |= _ARRIVAL
            if self._cap_events and self._apply_due_capacity_changes():
                mask |= _CAPACITY
            if self._active.size == 0:
                continue  # activation may still be empty (arrival just past `until`)

            obs = self.obs
            flt = obs.recorder
            trigger = ScheduleTrigger(mask=mask)
            if held is not None and not mask:
                # A ``run(until=...)`` horizon, not an event, ended the
                # last window: its allocation stays in force (cores
                # included), exactly as in an uninterrupted run.
                view = self._build_view(trigger)
                win = self._window(view, held)
                self._claim_cores(view, held, win.compressing)
            else:
                view, win = self._decide(trigger)
            held = None

            n_slices, dt_mask = self._horizon_slices(view, win, until)
            if flt.enabled:
                flt.add_jump(self.now, n_slices, dt_mask)
            if obs.metrics.enabled:
                obs.metrics.histogram("engine.slices_jumped").observe(n_slices)
            boundary = (self._k + n_slices) * self.slice_len
            dt = n_slices * self.slice_len
            if obs.profiler.enabled:
                with obs.profiler.section("integrate"):
                    self._integrate(win, dt)
            else:
                self._integrate(win, dt)
            self._k += n_slices

            active = self._active
            mask = dt_mask & _RAW_EXHAUSTED
            if self._retire_finished(boundary):
                mask |= _COMPLETION
            if dt_mask == _HORIZON and self._active is active:
                held = win.alloc
        self._resume_mask = mask
        self._held = held
        self._release_claims()
        return self.result()

    def _decide(self, trigger: ScheduleTrigger):
        """One decision point: ask the scheduler, validate, claim cores.

        Returns ``(view, window)``.  The coflow grouping stays maintained
        for the next decision only if this one read it.
        """
        # The previous window is over: its compression cores are free
        # for reassignment before the scheduler looks at the node state.
        if self._claim_nodes:
            self._release_claims()
        for fn in self._on_decision:
            fn(self.now)
        self._grouping_read = False
        view = self._build_view(trigger)
        obs = self.obs
        flt = obs.recorder
        if flt.enabled:
            flt.add_decision(
                self.now, trigger.mask, view.num_flows, self._n_active_coflows()
            )
        timed = obs.metrics.enabled or obs.profiler.enabled
        if timed:
            t0 = time.perf_counter()
        alloc = self.scheduler.schedule(view)
        if timed:
            elapsed = time.perf_counter() - t0
            obs.metrics.histogram("engine.decision_latency").observe(elapsed)
            if obs.profiler.enabled:
                obs.profiler.add("schedule", elapsed)
        if not self._grouping_read:
            # Nothing reads the grouping: stop patching it per step; the
            # next read rebuilds it.
            self._groups_dirty = True
        win = self._window(view, alloc)
        self._validate(view, win)
        if win.compressing:
            self._apply_claims(view, alloc)
        if flt.enabled:
            total = float(alloc.rates.sum())
            max_rate = float(alloc.rates.max()) if len(alloc.rates) else 0.0
            flt.add_rates(self.now, win.n_tx, total, max_rate)
            if win.compressing:
                flt.add_beta(self.now, view.flow_ids[alloc.compress])
        if self._recorder is not None:
            self._recorder.sample_model(self.now, self.cpu)
        self._decision_points += 1
        if obs.metrics.enabled:
            obs.metrics.counter("engine.decisions").inc()
        return view, win

    def _n_active_coflows(self) -> int:
        """How many coflows have an active flow (the grouping's length)."""
        if not self._groups_dirty:
            return len(self._cached_group_slots)
        return len(np.unique(self._slot_of[self._active]))

    def result(self) -> SimulationResult:
        return SimulationResult(
            makespan=self.now,
            decision_points=self._decision_points,
            cpu_recorder=self._recorder,
            ingress_bytes=self._ingress_bytes.copy(),
            egress_bytes=self._egress_bytes.copy(),
            store=self._snapshot_store(),
        )

    def _snapshot_store(self) -> ResultStore:
        """Columnar snapshot of every retired flow / closed coflow so far.

        All gathers copy, so the snapshot stays frozen if the simulation
        resumes toward a later horizon (``run(until=...)`` incremental
        use) and retires more flows afterwards.
        """
        return self._build_store(self._done_concat(), self._closed_concat())

    def _done_concat(self) -> np.ndarray:
        if self._done_chunks:
            return np.concatenate(self._done_chunks)
        return np.empty(0, dtype=np.intp)

    def _closed_concat(self) -> np.ndarray:
        if self._closed_chunks:
            return np.concatenate(self._closed_chunks)
        return np.empty(0, dtype=np.intp)

    def _build_store(self, flows: np.ndarray, closed: np.ndarray) -> ResultStore:
        """Freeze the given retired flows / closed coflow slots.

        ``flows`` are global flow indices in retirement order; ``closed``
        are coflow slots in close order.  Every gather copies.
        """
        # Member segmentation: for each closed coflow (close order), the
        # flat flow positions of its members in retirement order — what
        # the eager per-coflow accumulation lists used to hold.
        closed_ord = np.full(self._n_cf, -1, dtype=np.int64)
        closed_ord[closed] = np.arange(closed.size, dtype=np.int64)
        ord_of_flow = closed_ord[self._slot_of[flows]] if flows.size else (
            np.empty(0, dtype=np.int64)
        )
        is_member = ord_of_flow >= 0
        member_pos = np.nonzero(is_member)[0]
        member_ord = ord_of_flow[is_member]
        order = np.argsort(member_ord, kind="stable")
        member_perm = member_pos[order].astype(np.intp, copy=False)
        member_counts = np.bincount(member_ord, minlength=closed.size)
        member_starts = np.concatenate(
            ([0], np.cumsum(member_counts))
        ).astype(np.intp)
        decompress_speed = (
            self.compression.codec.decompression_speed
            if self.compression is not None
            else None
        )
        closed_list = closed.tolist()
        return ResultStore(
            flow_id=self._flow_id[flows],
            coflow_id=self._coflow_of[flows],
            src=self._src[flows],
            dst=self._dst[flows],
            size=self._size[flows],
            arrival=self._arrival[flows],
            start=self._start[flows],
            finish=self._finish[flows],
            finish_phys=self._finish_phys[flows],
            bytes_sent=self._bytes_sent[flows],
            comp_in=self._comp_in[flows],
            comp_out=self._comp_out[flows],
            decompress_speed=decompress_speed,
            cf_id=self._cf_id[closed],
            cf_label=[self._cf_labels[s] for s in closed_list],
            cf_arrival=self._cf_arrival[closed],
            cf_finish=self._cf_finish[closed],
            cf_finish_phys=self._cf_finish_phys[closed],
            cf_size=self._cf_size[closed],
            cf_width=self._cf_count[closed],
            cf_bytes_sent=self._cf_bytes[closed],
            cf_deadline=[self._cf_deadlines[s] for s in closed_list],
            cf_member_perm=member_perm,
            cf_member_starts=member_starts,
        )

    # ----------------------------------------------------- streaming service
    def drain_retired(self) -> ResultStore:
        """Snapshot-and-evict the results of every *terminal* coflow.

        Terminal means closed (all member flows finished) or cancelled.
        The returned store holds those coflows' results (plus the retired
        flows of cancelled coflows, exactly as a batch snapshot would);
        their rows are then evicted from the live columns, so repeated
        draining keeps the engine's working set proportional to the *live*
        flow count instead of the total ingested — the contract the
        streaming service (``repro serve``) relies on over an unbounded
        arrival stream.

        Retired flows of still-open coflows are withheld until their
        coflow closes, so consecutive drains partition the results:
        concatenating every drained shard plus a final ``result().store``
        yields exactly one record per flow and per coflow.

        Call between :meth:`run` calls.  Batch users never need this.
        """
        n, n_cf = self._n, self._n_cf
        closed = self._closed_concat()
        evict_slot = np.zeros(n_cf, dtype=bool)
        evict_slot[closed] = True
        for cid in self._cancelled:
            slot = self._coflows.get(cid)
            if slot is not None:
                evict_slot[slot] = True
        done = self._done_concat()
        if done.size:
            drain_mask = evict_slot[self._slot_of[done]]
        else:
            drain_mask = np.empty(0, dtype=bool)
        store = self._build_store(done[drain_mask], closed)
        if not evict_slot.any():
            self._done_chunks = [done] if done.size else []
            self._closed_chunks = []
            return store
        held = done[~drain_mask]

        keep_slot = ~evict_slot
        keep_flow = keep_slot[self._slot_of[:n]]
        new_of_flow = (np.cumsum(keep_flow) - 1).astype(np.intp, copy=False)
        new_of_slot = (np.cumsum(keep_slot) - 1).astype(np.intp, copy=False)
        evicted_ids = self._cf_id[:n_cf][evict_slot].tolist()

        # Whole-slot eviction keeps each surviving coflow's flow block
        # contiguous, so the _cf_first/_cf_count invariant survives the
        # old->new index remap.
        for name in _STORE_COLS:
            setattr(self, name, getattr(self, name)[:n][keep_flow])
        self._n = self._cap = int(keep_flow.sum())
        self._slot_of = new_of_slot[self._slot_of]
        for name in _CF_COLS:
            setattr(self, name, getattr(self, name)[:n_cf][keep_slot])
        self._n_cf = self._cf_cap = int(keep_slot.sum())
        self._cf_first = new_of_flow[self._cf_first]

        keep_list = keep_slot.tolist()
        self._cf_labels = [
            x for x, k in zip(self._cf_labels, keep_list) if k
        ]
        self._cf_deadlines = [
            x for x, k in zip(self._cf_deadlines, keep_list) if k
        ]
        self._cf_coflows = [
            x for x, k in zip(self._cf_coflows, keep_list) if k
        ]
        for cid in evicted_ids:
            self._coflows.pop(cid, None)
        # Survivors' slots shifted down: rebuild the id map from the
        # compacted id column, and renumber the calendar's pending
        # entries (entries of evicted slots — cancelled-before-arrival
        # coflows — drop out).
        for slot, cid in enumerate(self._cf_id[: self._n_cf].tolist()):
            self._coflows[cid] = slot
        slot_map = np.where(keep_slot, new_of_slot, np.intp(-1))
        self._calendar.remap(slot_map)

        # Eviction keeps every active row (no evicted coflow has one) and
        # their order, so a current grouping over active positions stays
        # valid; only its slot column needs the renumbering.
        self._active = new_of_flow[self._active]
        if not self._groups_dirty:
            self._cached_group_slots = new_of_slot[self._cached_group_slots]
        self._done_chunks = [new_of_flow[held]] if held.size else []
        self._closed_chunks = []
        return store

    def export_state(self) -> dict:
        """Everything needed to rebuild this simulator elsewhere.

        Array entries come out as copies; Python-object state (the
        scheduler, labels, deadlines) is included by reference —
        callers serialize it (see
        :mod:`repro.service.checkpoint`).  Call between :meth:`run`
        calls only: in-flight core claims are not part of the state
        (``run`` releases them before returning).
        """
        if self._claim_nodes:
            raise SimulationError(
                "export_state called inside a decision window "
                "(core claims outstanding)"
            )
        n, n_cf = self._n, self._n_cf
        cal_time, cal_seq, cal_slot = self._calendar.export_entries()
        return {
            "slice_len": self.slice_len,
            "k": self._k,
            "started": self._started,
            "decision_points": self._decision_points,
            "resume_kinds": sorted(k.name for k in kinds_of(self._resume_mask)),
            "held": (
                None
                if self._held is None
                else (self._held.rates.copy(), self._held.compress.copy())
            ),
            "done_total": self._done_total,
            "n": n,
            "n_cf": n_cf,
            "flow_cols": {
                c: getattr(self, c)[:n].copy() for c in _FLOW_COLS
            },
            "cf_cols": {
                c: getattr(self, c)[:n_cf].copy() for c in _CF_COLS
            },
            "active": self._active.copy(),
            "done_flows": self._done_concat(),
            "closed_slots": self._closed_concat(),
            "ingress_bytes": self._ingress_bytes.copy(),
            "egress_bytes": self._egress_bytes.copy(),
            "ingress_capacity": self.fabric.ingress.capacity.copy(),
            "egress_capacity": self.fabric.egress.capacity.copy(),
            "cancelled": sorted(self._cancelled),
            "cap_events": sorted(self._cap_events),
            "cal_time": cal_time,
            "cal_seq": cal_seq,
            "cal_slot": cal_slot,
            "cf_labels": list(self._cf_labels),
            "cf_deadlines": list(self._cf_deadlines),
            "scheduler": self.scheduler,
        }

    def import_state(self, state: dict) -> None:
        """Restore an :meth:`export_state` payload into this simulator.

        The simulator must be freshly constructed, with the same fabric
        shape, slice length and scheduler policy as the exporter.  Global
        flow/coflow id counters are the caller's concern (see
        :func:`repro.core.flow.ensure_flow_ids_above`).
        """
        if self._started or self._n:
            raise SimulationError("import_state needs a fresh simulator")
        if abs(state["slice_len"] - self.slice_len) > 1e-15:
            raise ConfigurationError(
                f"checkpoint slice_len {state['slice_len']} != "
                f"simulator slice_len {self.slice_len}"
            )
        for table, names in (("flow_cols", _FLOW_COLS), ("cf_cols", _CF_COLS)):
            missing = [c for c in names if c not in state[table]]
            if missing:
                raise CheckpointError(
                    f"checkpoint state has no {', '.join(missing)} column "
                    f"in {table}: it was written by an engine without it"
                )
        n, n_cf = int(state["n"]), int(state["n_cf"])
        self._grow(n)
        self._cf_grow(n_cf)
        for c in _FLOW_COLS:
            getattr(self, c)[:n] = state["flow_cols"][c]
        self._tol[:n] = _tolerance(self._size[:n])
        self._n = n
        for c in _CF_COLS:
            getattr(self, c)[:n_cf] = state["cf_cols"][c]
        self._n_cf = n_cf
        self._active = np.asarray(state["active"], dtype=np.intp)
        done = np.asarray(state["done_flows"], dtype=np.intp)
        self._done_chunks = [done] if done.size else []
        closed = np.asarray(state["closed_slots"], dtype=np.intp)
        self._closed_chunks = [closed] if closed.size else []
        self._done_total = int(state["done_total"])
        self._k = int(state["k"])
        self._started = bool(state["started"])
        self._decision_points = int(state["decision_points"])
        self._resume_mask = mask_of(EventKind[name] for name in state["resume_kinds"])
        held = state["held"]
        self._held = (
            None if held is None else Allocation(rates=held[0], compress=held[1])
        )
        self._ingress_bytes = np.asarray(
            state["ingress_bytes"], dtype=np.float64
        ).copy()
        self._egress_bytes = np.asarray(
            state["egress_bytes"], dtype=np.float64
        ).copy()
        for side, caps in (
            ("ingress", state["ingress_capacity"]),
            ("egress", state["egress_capacity"]),
        ):
            ports = getattr(self.fabric, side)
            if len(caps) != len(ports.capacity):
                raise ConfigurationError(
                    f"checkpoint has {len(caps)} {side} ports, "
                    f"fabric has {len(ports.capacity)}"
                )
            for port, cap in enumerate(caps):
                if cap != ports.capacity[port]:
                    ports.set_capacity(port, float(cap))
        self._cancelled = {int(c) for c in state["cancelled"]}
        self._cap_events = [tuple(e) for e in state["cap_events"]]
        heapq.heapify(self._cap_events)
        self._cap_seq = 1 + max((e[3] for e in self._cap_events), default=-1)
        self._cf_labels = list(state["cf_labels"])
        self._cf_deadlines = list(state["cf_deadlines"])
        # Coflow objects are rebuilt lazily from the columns.
        self._cf_coflows = [None] * n_cf
        self._coflows = {
            cid: slot for slot, cid in enumerate(self._cf_id[:n_cf].tolist())
        }
        self._calendar.import_entries(
            state["cal_time"], state["cal_seq"], state["cal_slot"]
        )
        self._groups_dirty = True

    # ------------------------------------------------------------- internals
    def _jump_to(self, t: float) -> None:
        """Advance the slice counter to the first boundary >= t.

        The snap tolerance must scale with the quotient: at t=1e9 with
        δ=0.05 the division already carries ~4e-6 slices of rounding, so
        an absolute 1e-9 would bump an exactly-on-grid jump one slice
        past its boundary.
        """
        q = t / self.slice_len
        k = int(math.ceil(q - max(1e-9, 8.0 * math.ulp(abs(q)))))
        self._k = max(self._k, k)

    def _next_arrival(self) -> Optional[float]:
        """Earliest pending arrival (cancellations are lazily discarded
        inside the calendar, so no predicate scan happens here)."""
        return self._calendar.peek_time()

    def _activate_due(self) -> int:
        """Activate every coflow whose arrival is due; returns the count.

        The calendar hands back a span of *slots* in pop order.  Because
        submission appends each coflow's flow rows as one contiguous
        block in slot order and drain evicts whole slots, consecutive
        due slots activate as a single ``arange`` slice — no per-coflow
        ``global_idx`` gather at all on the common streaming path.
        """
        slots = self._calendar.pop_due(self.now + self._eps_now())
        n_due = slots.size
        if not n_due:
            return 0
        counts = self._cf_count[slots]
        first = int(self._cf_first[slots[0]])
        if n_due == 1:
            total = int(counts[0])
            contiguous = True
        else:
            total = int(counts.sum())
            contiguous = int(slots[-1]) - int(slots[0]) == n_due - 1 and bool(
                (slots[1:] - slots[:-1] == 1).all()
            )
        if contiguous:
            # Contiguous ascending slots → one flow-row slice.
            rows = slice(first, first + total)
            new_idx = np.arange(first, first + total, dtype=np.intp)
        else:
            # Gather without a Python loop: repeat each block's base
            # offset and add a running ramp.
            rows = new_idx = (
                self._cf_first[slots] - (counts.cumsum() - counts)
            ).repeat(counts) + np.arange(total, dtype=np.intp)
        self._state[rows] = _ACTIVE
        self._start[rows] = self.now
        old_n = self._active.size
        self._active = np.concatenate((self._active, new_idx))
        if self._groups_dirty or self.force_regroup:
            self._groups_dirty = True
        else:
            self._regroup_extend(slots, counts, rows, old_n)
        obs = self.obs
        if obs.recorder.enabled:
            obs.recorder.add_arrivals(
                self.now, self._cf_id[slots].tolist(), counts.tolist()
            )
        if obs.metrics.enabled:
            obs.metrics.counter("engine.arrivals").inc(n_due)
        return n_due

    def _regroup(self) -> None:
        """Recompute the coflow segmentation of the active set from scratch.

        Invariant: the grouping (unit permutation/offsets, the unit of
        every active position, the coflow slot of every unit) depends
        only on ``_active``.  Arrivals and retirements keep the cache
        current with the incremental deltas below while decisions read
        it, and a drain only renumbers the cached slots; this full
        rebuild runs on
        the first read, the first read after a decision that did not
        read it, after cancellations and restores, when
        ``force_regroup`` is set, and for the rare arrival batch the
        append delta cannot handle (a mid-run submission arriving no
        later than an already active coflow).
        """
        slots_of_pos = self._slot_of[self._active]
        # Rank distinct coflows by (arrival, coflow_id) — the order the
        # old per-decision dict grouping produced after its sort.
        uslots, inv = np.unique(slots_of_pos, return_inverse=True)
        arrivals = self._cf_arrival[uslots]
        ids = self._cf_id[uslots]
        by_arrival = np.lexsort((ids, arrivals))
        rank = np.empty(len(uslots), dtype=np.intp)
        rank[by_arrival] = np.arange(len(uslots), dtype=np.intp)
        unit_of_pos = rank[inv].astype(np.intp, copy=False)
        # Stable sort keeps positions ascending within each coflow,
        # matching the old scan order.
        perm = np.argsort(unit_of_pos, kind="stable").astype(np.intp, copy=False)
        counts = np.bincount(unit_of_pos, minlength=len(uslots))
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        self._cached_perm = perm
        self._cached_starts = starts
        self._cached_unit_of_pos = unit_of_pos
        self._cached_group_slots = uslots[by_arrival].astype(np.intp, copy=False)
        self._groups_dirty = False

    def _regroup_extend(
        self, slots: np.ndarray, widths: np.ndarray, rows, old_n: int
    ) -> None:
        """Append delta: newly arrived coflows join the cached grouping.

        Groups are ordered by (arrival, coflow_id); arrivals pop from the
        calendar in nondecreasing time, so a due batch normally sorts
        strictly after every active group and can be appended without
        touching the existing segmentation.  The one exception — a
        coflow submitted mid-run whose arrival does not exceed the last
        active group's — falls back to a full rebuild.

        ``slots`` are the batch's coflow slots in activation order and
        ``widths`` their flow counts; ``rows`` their flow rows
        (block-contiguous, slot order: a slice or an index array) and
        ``old_n`` the pre-batch active count.
        """
        arrivals = self._cf_arrival[slots]
        gslots = self._cached_group_slots
        # The calendar pops in (time, seq) order, so arrivals[0] is the
        # batch's earliest arrival.
        if gslots.size and arrivals[0] <= self._cf_arrival[gslots[-1]]:
            self._groups_dirty = True
            return
        g0 = gslots.size
        if len(slots) == 1:
            # A lone coflow is its own group: its rows in row order.
            width = int(widths[0])
            perm_chunk = np.arange(old_n, old_n + width, dtype=np.intp)
            ends = widths
            new_slots = slots
            unit_chunk = np.full(width, g0, dtype=np.intp)
        else:
            order = np.lexsort((self._cf_id[slots], arrivals))
            # Batch positions: slot i occupies [base[i], base[i]+width[i]);
            # in group order they land back to back from old_n on.
            base = old_n + (widths.cumsum() - widths)
            w = widths[order]
            ends = w.cumsum()
            perm_chunk = (base[order] - (ends - w)).repeat(w) + np.arange(
                ends[-1], dtype=np.intp
            )
            new_slots = slots[order]
            # order is a permutation, so its argsort is each slot's rank.
            unit_chunk = (g0 + order.argsort()).repeat(widths)
        starts = self._cached_starts
        self._cached_perm = np.concatenate((self._cached_perm, perm_chunk))
        self._cached_starts = np.concatenate((starts, starts[-1] + ends))
        self._cached_group_slots = np.concatenate((gslots, new_slots))
        self._cached_unit_of_pos = np.concatenate(
            (self._cached_unit_of_pos, unit_chunk)
        )

    def _regroup_shrink(self, keep: np.ndarray) -> None:
        """Shrink delta: drop retired positions from the cached grouping.

        ``keep`` masks the *old* active positions.  Emptied groups drop
        out; surviving groups keep their relative order, so only their
        ordinals shift.  The permutation is always the stable argsort of
        the group ordinal per position (what :meth:`_regroup` builds and
        the append delta extends), so it is re-sorted from the kept
        ordinals: one call, and linear on their long ascending runs.
        """
        kept_units = self._cached_unit_of_pos[keep]
        n_groups = self._cached_group_slots.size
        counts = np.bincount(kept_units, minlength=n_groups)
        if np.count_nonzero(counts) < n_groups:
            alive = counts > 0
            kept_units = (alive.cumsum() - 1)[kept_units]
            counts = counts[alive]
            self._cached_group_slots = self._cached_group_slots[alive]
        # The permutation is the stable sort of the positions by group.
        self._cached_perm = kept_units.argsort(kind="stable")
        starts = np.zeros(counts.size + 1, dtype=np.intp)
        counts.cumsum(out=starts[1:])
        self._cached_starts = starts
        self._cached_unit_of_pos = kept_units

    def _build_view(self, trigger: ScheduleTrigger) -> SchedulerView:
        return _EngineView(self, trigger)

    def _bind_grouping(self, view: SchedulerView) -> None:
        """Bind the active set's coflow grouping onto ``view`` (its first
        read of ``unit_offsets()``, ``coflow_columns()`` or
        ``priority_columns()``), rebuilding the grouping if no delta kept
        it current."""
        if self._groups_dirty or self.force_regroup:
            self._regroup()
        self._grouping_read = True
        slots = self._cached_group_slots
        d = view.__dict__
        d["unit_perm"] = self._cached_perm
        d["unit_starts"] = self._cached_starts
        d["coflow_table"] = (slots, self._cf_id, self._cf_arrival, self._cf_count)
        d["priority_table"] = (slots, self._cf_prio, self._cf_served)

    def _coflow_states(self, view: SchedulerView) -> List[CoflowState]:
        """``view.coflows``: one :class:`CoflowState` per coflow of the
        grouping, built when a policy first reads it."""
        perm, starts = view.unit_offsets()
        bounds = starts.tolist()
        factory = self._coflow_factory
        return [
            CoflowState(
                coflow_id=cid, flow_idx=perm[a:b], coflow_factory=factory
            )
            for cid, a, b in zip(
                self._cf_id[view.coflow_table[0]].tolist(), bounds, bounds[1:]
            )
        ]

    def _window(self, view: SchedulerView, alloc: Allocation) -> _Window:
        """The window of ``alloc`` over ``view``'s active set."""
        n = view.num_flows
        rates = alloc.rates
        if len(rates) != n or len(alloc.compress) != n:
            raise SchedulingError(
                f"{self.scheduler.name}: allocation length {len(rates)} "
                f"!= {n} active flows"
            )
        win = _Window()
        win.alloc = alloc
        win.tx = tx = rates > 0
        pos = tx.nonzero()[0]
        win.n_tx = n_tx = len(pos)
        win.compressing = bool(np.count_nonzero(alloc.compress))
        if n_tx:
            win.gi = self._active[pos]
            win.rates = rates[pos]
            win.raw = raw = view.raw[pos]
            win.comp = comp = view.comp[pos]
            win.vol = raw + comp
        return win

    def _validate(self, view: SchedulerView, win: _Window) -> None:
        alloc = win.alloc
        if np.count_nonzero(np.isfinite(alloc.rates)) < len(alloc.rates):
            raise SchedulingError(f"{self.scheduler.name}: non-finite rate")
        self.fabric.check_feasible(view.src, view.dst, alloc.rates)
        if not win.compressing:
            return
        cz = alloc.compress
        if np.count_nonzero(cz & win.tx):
            raise SchedulingError(
                f"{self.scheduler.name}: a flow may not compress and transmit "
                "in the same slice (exclusive β)"
            )
        if self.compression is None:
            raise SchedulingError(
                f"{self.scheduler.name} requested compression but the "
                "simulator has no compression engine"
            )
        bad = cz & (~view.compressible | (view.raw <= 0))
        if bad.any():
            raise SchedulingError(
                f"{self.scheduler.name}: compression requested for an "
                "incompressible or fully-compressed flow"
            )
        counts = np.bincount(view.src[cz], minlength=self.cpu.num_nodes)
        if (counts > view.free_cores).any():
            node = int(np.argmax(counts - view.free_cores))
            raise SchedulingError(
                f"{self.scheduler.name}: node {node} granted "
                f"{counts[node]} compressions with only "
                f"{view.free_cores[node]} free cores"
            )

    def _claim_cores(
        self, view: SchedulerView, alloc: Allocation, compressing: bool
    ) -> Dict[int, int]:
        """Claim one core per compressing flow; returns claims per node."""
        claims: Dict[int, int] = {}
        if not compressing:
            return claims
        for node in view.src[alloc.compress].tolist():
            self.cpu.claim(node)
            self._claim_nodes.append(node)
            claims[node] = claims.get(node, 0) + 1
        return claims

    def _apply_claims(self, view: SchedulerView, alloc: Allocation) -> None:
        claims = self._claim_cores(view, alloc, True)
        if claims:
            flt = self.obs.recorder
            if flt.enabled:
                items = sorted(claims.items())
                flt.add_core_claims(
                    self.now,
                    [node for node, _ in items],
                    [n for _, n in items],
                )
            self.obs.metrics.counter("engine.core_claims").inc(sum(claims.values()))

    def _release_claims(self) -> None:
        for node in self._claim_nodes:
            self.cpu.release(node)
        self._claim_nodes.clear()

    def _horizon_slices(self, view, win: _Window, until):
        """Slices to advance until the next interesting boundary.

        Returns ``(n, mask)``: the number of slices to fast-forward and
        the kinds mask (:data:`~repro.core.events.KIND_BIT`) of *every*
        event that lands within the advanced window ``(now, now + n·δ]``.
        All such events take effect at the boundary (arrivals activate,
        drained flows retire, capacity changes apply), so the trigger
        handed to the scheduler must carry all of their kinds — keeping
        only the earliest kind would drop coincident triggers at tied
        boundaries (e.g. an arrival and a completion at the same instant)
        and break the Upgrade step's fire-at-every-event contract
        (Pseudocode 3).
        """
        dts: List[float] = []
        bits: List[int] = []
        now = self._k * self.slice_len
        nxt = self._next_arrival()
        if nxt is not None:
            dts.append(max(nxt - now, 0.0))
            bits.append(_ARRIVAL)
        if win.n_tx:
            dts.append(float((win.vol / win.rates).min()))
            bits.append(_COMPLETION)
        R = self.compression.speed if self.compression is not None else 0.0
        if win.compressing and R > 0:
            dts.append(float((view.raw[win.alloc.compress] / R).min()))
            bits.append(_RAW_EXHAUSTED)
        if self._cap_events:
            dts.append(max(self._cap_events[0][0] - now, 0.0))
            bits.append(_CAPACITY)
        if until is not None:
            dts.append(max(until - now, 0.0))
            bits.append(_HORIZON)
        if not dts:
            raise SimulationError(
                f"{self.scheduler.name}: no flow transmits or compresses and "
                "no arrival is pending — simulated time cannot advance "
                f"(t={now:.6g}, {view.num_flows} active flows)"
            )
        dt_min = min(dts)
        # Slice-grid snap tolerance.  A fixed 1e-9 slices is too tight at
        # large simulated times: ``dt_min`` is a difference of two big
        # floats, so its error is ulp-of-now sized (~5e-7 slices at
        # t=1e9, δ=0.05) and a horizon exactly k slices away would ceil
        # to k+1, overshooting ``until`` by a whole slice on resume.
        eps_now = self._eps_now()
        tol = max(1e-9, eps_now / self.slice_len)
        n = max(1, int(math.ceil(dt_min / self.slice_len - tol)))
        # Events within the same tolerance of the boundary are ties.
        window = n * self.slice_len + max(n * self.slice_len * 1e-9, eps_now)
        mask = 0
        for dt, bit in zip(dts, bits):
            if dt <= window:
                mask |= bit
        return n, mask

    def _integrate(self, win: _Window, dt: float) -> None:
        # --- compression: raw -> comp, shrunk by xi --------------------------
        if win.compressing:
            R = self.compression.speed
            gi = self._active[win.alloc.compress]
            raw = self._raw[gi]
            consumed = np.minimum(raw, R * dt)
            # A residual the engine counts as empty is roundoff (a window
            # split by a ``run(until=...)`` horizon sums its steps in a
            # different order): compress it now, or the next decision
            # spends a whole slice compressing nothing.
            tail = raw - consumed <= self._tol[gi]
            consumed[tail] = raw[tail]
            self._raw[gi] = raw - consumed
            self._comp[gi] += consumed * self._xi[gi]
            self._comp_in[gi] += consumed
        # --- transmission: drain comp first, then raw -------------------------
        if win.n_tx:
            gi = win.gi
            vol_before = win.vol
            r_tx = win.rates
            sent = np.minimum(vol_before, r_tx * dt)
            done = sent >= vol_before - self._tol[gi]
            if np.count_nonzero(done):
                # physical finish of completed flows
                finish = vol_before / r_tx
                finish += self._k * self.slice_len
                self._finish_phys[gi[done]] = finish[done]
            comp = win.comp
            if self.compression is None or not np.count_nonzero(comp):
                # No sending flow holds compressed bytes: comp stays 0.0
                # and the whole send drains raw.
                self._raw[gi] = np.maximum(win.raw - sent, 0.0)
            else:
                from_comp = np.minimum(comp, sent)
                self._raw[gi] = np.maximum(win.raw - (sent - from_comp), 0.0)
                self._comp[gi] = np.maximum(comp - from_comp, 0.0)
                self._comp_out[gi] += from_comp
            self._bytes_sent[gi] += sent
            metrics = self.obs.metrics
            if metrics.enabled:
                metrics.counter("engine.bytes_sent").inc(float(sent.sum()))
            self._ingress_bytes += np.bincount(
                self._src[gi], weights=sent, minlength=len(self._ingress_bytes)
            )
            self._egress_bytes += np.bincount(
                self._dst[gi], weights=sent, minlength=len(self._egress_bytes)
            )

    def _retire_finished(self, boundary: float) -> List[int]:
        """Mark flows with zero volume done; close coflows — all columnar.

        Finish columns are stamped in bulk, per-coflow remaining counts
        drop via one ``bincount`` scatter, and closed coflows surface via
        a segment max over the retirement batch — zero per-flow Python.
        Result dataclasses are *not* built here; the retirement log
        (``_done_chunks`` / ``_closed_chunks``) feeds the lazy
        :class:`ResultStore` snapshot in :meth:`result`.  The eager
        per-flow path below runs only when flow/coflow completion
        callbacks need the dataclasses now.
        """
        idx = self._active
        if len(idx) == 0:
            return []
        if self.compression is None:
            # No compressed bytes anywhere: raw is the whole volume.
            done_mask = self._raw[idx] <= self._tol[idx]
        else:
            done_mask = self._raw[idx] + self._comp[idx] <= self._tol[idx]
        n_done = np.count_nonzero(done_mask)
        if not n_done:
            return []
        done_idx = idx[done_mask]
        keep = ~done_mask
        self._active = idx[keep]
        if self._groups_dirty or self.force_regroup:
            self._groups_dirty = True
        else:
            self._regroup_shrink(keep)
        self._state[done_idx] = _DONE
        self._finish[done_idx] = boundary
        finish_phys = self._finish_phys[done_idx]
        finish_phys[finish_phys == 0.0] = boundary
        self._finish_phys[done_idx] = finish_phys
        done0 = self._done_total
        self._done_seq[done_idx] = np.arange(
            done0, done0 + n_done, dtype=np.int64
        )
        self._done_total = done0 + int(n_done)
        self._done_chunks.append(done_idx)

        # --- close coflows via segment ops over the batch -------------------
        n_cf = self._n_cf
        slots = self._slot_of[done_idx]
        batch_counts = np.bincount(slots, minlength=n_cf)
        remaining = self._cf_remaining[:n_cf]
        remaining -= batch_counts
        np.maximum.at(self._cf_finish_phys, slots, finish_phys)
        # Only the batch's coflows can close: usually none, or one with
        # some of its flows in the batch.  Several closing coflows come
        # from a scan of every slot, in ascending slot order.
        hit = remaining[slots] == 0
        closed = slots[hit]
        if closed.size > 1:
            if np.count_nonzero(closed != closed[0]):
                closed = ((remaining == 0) & (batch_counts > 0)).nonzero()[0]
            else:
                closed = closed[:1]
        if closed.size > 1:
            # Close order = order each coflow's *last* flow retires in the
            # batch (what the per-flow loop produced).
            last = np.zeros(n_cf, dtype=np.int64)
            np.maximum.at(last, slots, np.arange(n_done, dtype=np.int64))
            closed = closed[last[closed].argsort(kind="stable")]
        if closed.size:
            self._cf_finish[closed] = boundary
            # Per-coflow totals over each closed coflow's rows, summed as
            # each slice's own ``.sum()`` would (what the eager
            # ``CoflowResult`` used), so lazy results match bitwise.
            (self._cf_size[closed], self._cf_bytes[closed]) = segment_sums(
                (self._size, self._bytes_sent),
                self._cf_count[closed], self._cf_first[closed],
            )
        self._closed_chunks.append(closed)

        obs = self.obs
        if obs.metrics.enabled:
            obs.metrics.counter("engine.flow_completions").inc(int(n_done))
            obs.metrics.counter("engine.completions").inc(int(closed.size))
        flt = obs.recorder
        if flt.enabled:
            # The whole retirement batch in two columnar appends.
            flt.add_flow_completions(
                boundary, self._flow_id[done_idx], self._coflow_of[done_idx]
            )
            flt.add_coflow_completions(boundary, self._cf_id[closed])
        if self._on_flow_complete or self._on_coflow_complete:
            self._emit_eager(boundary, done_idx, closed)
        return self._cf_id[closed].tolist() if closed.size else []

    def _emit_eager(self, boundary, done_idx, closed) -> None:
        """Materialize result dataclasses now, for completion callbacks.

        Field values are identical to the lazy store-backed path; only
        object identity differs (callback consumers get their own
        instances).  Ordering matches the pre-columnar per-flow loop:
        flow completions in retirement order, then closed coflows.
        """
        if self._on_flow_complete:
            for g in done_idx:
                fr = self._make_flow_result(int(g))
                for fn in self._on_flow_complete:
                    fn(fr)
        if not self._on_coflow_complete:
            return
        for s in closed.tolist():
            a = int(self._cf_first[s])
            gi = np.arange(a, a + int(self._cf_count[s]), dtype=np.intp)
            members = gi[np.argsort(self._done_seq[gi], kind="stable")]
            cr = CoflowResult(
                coflow_id=int(self._cf_id[s]),
                label=self._cf_labels[s],
                arrival=float(self._cf_arrival[s]),
                finish=boundary,
                finish_physical=float(self._cf_finish_phys[s]),
                size=float(self._cf_size[s]),
                width=len(gi),
                bytes_sent=float(self._cf_bytes[s]),
                flow_results=[self._make_flow_result(int(g)) for g in members],
                deadline=self._cf_deadlines[s],
            )
            for fn in self._on_coflow_complete:
                fn(cr)

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
