"""StreamDriver: the long-lived scheduler service loop.

The driver owns one :class:`~repro.core.simulator.SliceSimulator` and one
:class:`~repro.service.arrivals.ArrivalSource` and advances them together
in fixed wall-of-simulated-time *ticks*:

1. **Admit** — pop one :class:`~repro.core.ingest.CoflowBlock` of every
   coflow arriving inside the next tick horizon and ``submit_block`` it,
   subject to a bounded in-flight backlog (``max_in_flight`` flows).
   When the backlog is full, admission stops; coflows whose arrival time
   has passed by the time they are finally admitted are *restamped* to
   the current simulated time (a queueing delay at the master — the
   paper's online model never schedules work into the past).  The whole
   handoff is columnar: the source fills block columns, restamping is a
   vectorized mask, and the engine bulk-writes the block into its
   flow/coflow columns.
2. **Tick** — ``run(until=now + tick)``: the engine advances, firing
   decision points at slice boundaries, and parks at the horizon.
3. **Drain** — every ``drain_every`` ticks, :meth:`SliceSimulator.
   drain_retired` evicts the rows of finished coflows into a
   :class:`~repro.core.results.ResultStore` shard.  Shards are spilled to
   ``.npz`` files, kept in memory, or reduced to streaming aggregates and
   discarded — either way the engine's columnar store stays bounded by
   the in-flight backlog, not by the length of the stream.
4. **Checkpoint** — optionally, every ``checkpoint_every_ticks`` ticks,
   the full live state (engine columns + scheduler + arrival cursor) goes
   to a single ``.npz`` via :mod:`repro.service.checkpoint`.

Because ticks insert extra decision points at horizon boundaries, a
streamed run is *not* bit-identical to a batch ``run()`` of the same
workload — but it is deterministic, and a checkpoint/restore round trip
reproduces the uninterrupted streamed run exactly (tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.ingest import BlockRowError
from repro.core.results import ResultStore, concat_stores
from repro.core.simulator import SliceSimulator, _time_eps
from repro.errors import ConfigurationError
from repro.service.arrivals import ArrivalSource, SourceSpec

__all__ = ["StreamStats", "StreamDriver"]


@dataclass
class StreamStats:
    """Streaming aggregates, updated as shards drain (O(1) memory)."""

    ticks: int = 0
    coflows_submitted: int = 0
    flows_submitted: int = 0
    coflows_done: int = 0
    flows_done: int = 0
    restamped: int = 0  # coflows admitted late under backpressure
    fct_sum: float = 0.0
    cct_sum: float = 0.0
    bytes_sent: float = 0.0
    bytes_original: float = 0.0
    peak_in_flight: int = 0  # flows submitted-but-not-retired, max over ticks
    peak_live_rows: int = 0  # engine columnar rows, max over ticks
    drains: int = 0
    spills: int = 0
    checkpoints: int = 0
    wall_s: float = 0.0

    @property
    def avg_fct(self) -> float:
        return self.fct_sum / self.flows_done if self.flows_done else 0.0

    @property
    def avg_cct(self) -> float:
        return self.cct_sum / self.coflows_done if self.coflows_done else 0.0

    @property
    def traffic_reduction(self) -> float:
        if self.bytes_original <= 0:
            return 0.0
        return 1.0 - self.bytes_sent / self.bytes_original

    def as_dict(self) -> Dict[str, Any]:
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d["avg_fct"] = self.avg_fct
        d["avg_cct"] = self.avg_cct
        d["traffic_reduction"] = self.traffic_reduction
        return d

    def absorb_shard(self, store: ResultStore) -> None:
        """Fold one drained shard into the running aggregates."""
        self.flows_done += int(store.flow_id.size)
        self.coflows_done += int(store.cf_id.size)
        self.fct_sum += float(np.sum(store.finish - store.arrival))
        self.cct_sum += float(np.sum(store.cf_finish - store.cf_arrival))
        self.bytes_sent += float(np.sum(store.bytes_sent))
        self.bytes_original += float(np.sum(store.size))


class StreamDriver:
    """Drive a simulator from an unbounded arrival source in ticks.

    Parameters
    ----------
    sim, source:
        The engine and the stream feeding it.
    tick:
        Service-tick length in simulated seconds.  Each tick admits one
        horizon's worth of arrivals and runs the engine to the horizon.
    max_in_flight:
        Backpressure bound: admission pauses while
        ``flows_submitted - sim.retired_flows`` would exceed this.
    drain_every:
        Drain/evict retired coflows every this-many ticks (0 = never;
        memory then grows with the stream).
    spill_dir:
        When set, each drained shard is written to
        ``<spill_dir>/shard-NNNNNN.npz`` and not kept in memory.
    keep_shards:
        Keep drained shards in :attr:`shards` (default).  Turn off for
        unbounded runs where only :attr:`stats` matter.
    checkpoint_path / checkpoint_every_ticks:
        Write a restorable checkpoint to ``checkpoint_path`` every
        this-many ticks (both must be set for periodic checkpoints;
        :meth:`checkpoint` can always be called manually).
    setup, source_spec, policy:
        Provenance recorded into checkpoints/reports: the
        :class:`~repro.analysis.harness.ExperimentSetup` and
        :class:`~repro.service.arrivals.SourceSpec` that built ``sim``
        and ``source``, and the policy name.
    """

    def __init__(
        self,
        sim: SliceSimulator,
        source: ArrivalSource,
        *,
        tick: float = 1.0,
        max_in_flight: int = 10_000,
        drain_every: int = 1,
        spill_dir: Optional[Path] = None,
        keep_shards: bool = True,
        checkpoint_path: Optional[Path] = None,
        checkpoint_every_ticks: Optional[int] = None,
        setup=None,
        source_spec: Optional[SourceSpec] = None,
        policy: str = "",
    ) -> None:
        if tick <= 0:
            raise ConfigurationError(f"tick must be positive, got {tick}")
        if max_in_flight <= 0:
            raise ConfigurationError(
                f"max_in_flight must be positive, got {max_in_flight}"
            )
        if drain_every < 0 or checkpoint_every_ticks is not None and checkpoint_every_ticks <= 0:
            raise ConfigurationError("bad drain_every / checkpoint_every_ticks")
        self.sim = sim
        self.source = source
        self.tick = float(tick)
        self.max_in_flight = int(max_in_flight)
        self.drain_every = int(drain_every)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.keep_shards = bool(keep_shards)
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every_ticks = checkpoint_every_ticks
        self.setup = setup
        self.source_spec = source_spec
        self.policy = policy or getattr(sim.scheduler, "name", "")
        self.stats = StreamStats()
        self.shards: List[ResultStore] = []
        self.shard_paths: List[Path] = []
        self._shard_seq = 0
        #: live telemetry plane, set by TelemetryPlane(driver) — when
        #: attached, every tick reports its wall time and counter deltas
        #: (one plane.on_tick call per tick, nothing per flow); when
        #: None, no stream.* instrument ever fires.
        self._plane = None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- queries
    @property
    def in_flight(self) -> int:
        """Flows submitted to the engine and not yet retired."""
        return self.stats.flows_submitted - self.sim.retired_flows

    def exhausted(self) -> bool:
        """True when the source has no more coflows to offer."""
        return self.source.peek() is None

    # ------------------------------------------------------------ the loop
    def _admit(self, horizon: float, max_flows: Optional[int]) -> int:
        sim = self.sim
        budget = self.max_in_flight - self.in_flight
        if max_flows is not None:
            budget = min(budget, max_flows - self.stats.flows_submitted)
        if budget <= 0:
            return 0
        block = self.source.pop_block(horizon, budget)
        if block is None:
            return 0
        # Backpressure (or a resumed checkpoint) delayed admission past
        # the nominal arrival: restamp to "now", the moment the master
        # actually learns about the coflow.
        late = block.arrival < sim.now - _time_eps(sim.now)
        n_late = int(np.count_nonzero(late))
        if n_late:
            block.restamp(late, sim.now)
            self.stats.restamped += n_late
        try:
            sim.submit_block(block)
        except BlockRowError as exc:
            error = self.source.row_error(block, exc)
            if error is exc:
                raise
            raise error from exc
        self.stats.coflows_submitted += block.n_coflows
        self.stats.flows_submitted += block.n_flows
        return block.n_coflows

    def _drain(self) -> None:
        store = self.sim.drain_retired()
        self.stats.drains += 1
        if store.flow_id.size == 0 and store.cf_id.size == 0:
            return
        self.stats.absorb_shard(store)
        if self.spill_dir is not None:
            path = self.spill_dir / f"shard-{self._shard_seq:06d}.npz"
            store.save_npz(path)
            self.shard_paths.append(path)
            self.stats.spills += 1
        elif self.keep_shards:
            self.shards.append(store)
        self._shard_seq += 1

    def tick_once(self, max_flows: Optional[int] = None) -> None:
        """One service tick: admit → run to horizon → maybe drain/checkpoint."""
        plane = self._plane
        t0 = time.perf_counter() if plane is not None else 0.0
        sim = self.sim
        horizon = sim.now + self.tick
        self._admit(horizon, max_flows)
        self.stats.peak_in_flight = max(self.stats.peak_in_flight, self.in_flight)
        self.stats.peak_live_rows = max(self.stats.peak_live_rows, sim.live_rows)
        sim.run(until=horizon)
        self.stats.ticks += 1
        self.stats.peak_live_rows = max(self.stats.peak_live_rows, sim.live_rows)
        if self.drain_every and self.stats.ticks % self.drain_every == 0:
            self._drain()
        if (
            self.checkpoint_path is not None
            and self.checkpoint_every_ticks
            and self.stats.ticks % self.checkpoint_every_ticks == 0
        ):
            self.checkpoint(self.checkpoint_path)
        if plane is not None:
            plane.on_tick(time.perf_counter() - t0)

    def run(
        self,
        max_ticks: Optional[int] = None,
        max_flows: Optional[int] = None,
    ) -> StreamStats:
        """Run the service loop until the source dries up (or a bound hits).

        With ``max_ticks`` the loop stops mid-stream after that many
        additional ticks (work may remain in flight — checkpoint it).
        With ``max_flows`` admission stops once that many flows have been
        submitted and the loop runs the backlog to completion.  Either
        way the final drain happens before returning, so
        ``shards``/``shard_paths`` + :attr:`stats` cover every retired
        coflow.
        """
        t0 = time.perf_counter()
        ticks_done = 0
        complete = False
        try:
            while True:
                if max_ticks is not None and ticks_done >= max_ticks:
                    break
                done_feeding = self.exhausted() or (
                    max_flows is not None
                    and self.stats.flows_submitted >= max_flows
                )
                if done_feeding:
                    if self.sim.pending:
                        # No more admissions ever: finish the backlog in
                        # whole ticks so the decision-point schedule (and
                        # thus the results) is independent of *when* the
                        # source dried up relative to max_ticks pauses.
                        self.tick_once(max_flows)
                        ticks_done += 1
                        continue
                    complete = True
                    break
                self.tick_once(max_flows)
                ticks_done += 1
        finally:
            if self.drain_every:
                self._drain()
            self.stats.wall_s += time.perf_counter() - t0
            if complete and self._plane is not None:
                # The stream is drained for good: keep /healthz green
                # even after the watchdog interval passes tick-free.
                self._plane.on_finish()
        return self.stats

    # -------------------------------------------------------- persistence
    def checkpoint(self, path) -> Path:
        """Write a restorable snapshot of the whole service to ``path``."""
        from repro.service.checkpoint import save_checkpoint

        if self.drain_every:
            self._drain()  # keep the checkpoint small: no retired rows
        path = Path(path)
        save_checkpoint(
            path,
            self.sim,
            setup=self.setup,
            source=self.source,
            source_spec=self.source_spec,
            driver_state={
                "stats": self.stats.as_dict(),
                "shard_seq": self._shard_seq,
                "tick": self.tick,
                "max_in_flight": self.max_in_flight,
                "drain_every": self.drain_every,
                "policy": self.policy,
            },
        )
        self.stats.checkpoints += 1
        return path

    def result_store(self) -> ResultStore:
        """Concatenation of every in-memory shard (keep_shards mode)."""
        if not self.keep_shards or self.spill_dir is not None:
            raise ConfigurationError(
                "result_store() needs keep_shards=True without a spill_dir"
            )
        if not self.shards:
            raise ConfigurationError("no shards drained yet")
        return concat_stores(self.shards)

    # --------------------------------------------------------- telemetry
    def telemetry_report(self, label: str = "serve") -> Dict[str, Any]:
        """A ``repro report``-schema payload for this service's lifetime.

        The single snapshot covers the whole stream so far; the ``grid``
        block records the serve configuration instead of a sweep grid.
        The ``window`` block holds the telemetry plane's rolling-window
        rates — an explicit ``null`` when no plane was
        attached, matching the report schema's n/a convention.
        """
        from repro.analysis.report import build_report
        from repro.runner.telemetry import RunTelemetry, TelemetrySnapshot

        snap = TelemetrySnapshot.capture(
            key="serve",
            policy=self.policy,
            obs=self.sim.obs,
            wall_s=self.stats.wall_s,
            cpu_s=time.process_time(),
        )
        tele = RunTelemetry(
            snapshots=[snap], workers=1, wall_s=self.stats.wall_s, cells=1
        )
        report = build_report(
            tele,
            grid={
                "mode": "serve",
                "policy": self.policy,
                "tick": self.tick,
                "max_in_flight": self.max_in_flight,
                "drain_every": self.drain_every,
            },
            label=label,
            window=(
                self._plane.window.snapshot()
                if self._plane is not None else None
            ),
        )
        report["stream"] = self.stats.as_dict()
        return report
