"""One ``repro serve`` run below its argument parsing: build or restore
a driver, run it, write its checkpoint and report."""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import render_table
from repro.obs import Observability
from repro.schedulers import make_scheduler
from repro.service.arrivals import SourceSpec
from repro.service.checkpoint import restore_driver
from repro.service.driver import StreamDriver
from repro.units import seconds_to_human


def serve(
    source: Optional[SourceSpec] = None,
    setup=None,
    *,
    policy: str = "fvdf",
    resume=None,
    tick: float = 1.0,
    max_in_flight: int = 10_000,
    drain_every: int = 1,
    spill_dir=None,
    checkpoint=None,
    checkpoint_every: Optional[int] = None,
    max_ticks: Optional[int] = None,
    max_flows: Optional[int] = None,
    metrics_port: Optional[int] = None,
    watchdog: float = 10.0,
    report=None,
    label: str = "",
) -> StreamDriver:
    """Serve ``source`` under ``policy`` on ``setup``'s fabric, or the
    service saved in the checkpoint ``resume``, for ``max_ticks`` ticks or
    until the source dries up (admitting ~``max_flows`` flows at most);
    returns the driver.  ``metrics_port`` starts the telemetry plane for
    the run.  At exit ``checkpoint`` is written when work remains, and the
    telemetry report goes to ``report``.  Prints what ``repro serve``
    prints."""
    obs = Observability(trace=False, metrics=True)
    outputs = dict(spill_dir=spill_dir, keep_shards=spill_dir is None,
                   checkpoint_path=checkpoint, checkpoint_every_ticks=checkpoint_every)
    if resume:
        driver = restore_driver(resume, obs=obs, **outputs)
        print(f"resumed from {resume} at t={driver.sim.now:.2f}s "
            f"({driver.stats.coflows_done} coflows already done)")
    else:
        driver = StreamDriver(
            setup.build_simulator(make_scheduler(policy), obs=obs), source.build(),
            tick=tick, max_in_flight=max_in_flight, drain_every=drain_every,
            setup=setup, source_spec=source, policy=policy, **outputs,
        )
    plane = None
    if metrics_port is not None:
        from repro.obs.exposition import TelemetryPlane

        plane = TelemetryPlane(driver, watchdog_s=watchdog)
        port = plane.start(metrics_port)
        print(f"telemetry plane -> http://127.0.0.1:{port} "
            f"(/metrics /snapshot /healthz /readyz; `repro top --port {port}`)")
    try:
        driver.run(max_ticks=max_ticks, max_flows=max_flows)
    finally:
        if plane is not None:
            plane.stop()
    print(_summary(driver))
    if driver.shard_paths:
        print(f"{len(driver.shard_paths)} result shards -> {driver.spill_dir}")
    if checkpoint and driver.sim.pending:
        driver.checkpoint(checkpoint)
        print(f"checkpoint (resumable) -> {checkpoint}")
    if report:
        from repro.analysis.report import write_report

        write_report(driver.telemetry_report(label=label or "serve"), report)
        print(f"report written -> {report}")
    return driver


def _summary(driver: StreamDriver) -> str:
    """The table ``repro serve`` prints when its driver stops."""
    stats = driver.stats
    rows = [
        ["coflows done", str(stats.coflows_done)],
        ["flows done", str(stats.flows_done)],
        ["avg FCT", seconds_to_human(stats.avg_fct)],
        ["avg CCT", seconds_to_human(stats.avg_cct)],
        ["traffic saved", f"{stats.traffic_reduction * 100:.1f}%"],
        ["restamped (backpressure)", str(stats.restamped)],
        ["peak in-flight flows", str(stats.peak_in_flight)],
        ["peak engine rows", str(stats.peak_live_rows)],
        ["ticks / drains", f"{stats.ticks} / {stats.drains}"],
        ["simulated time", seconds_to_human(driver.sim.now)],
        ["wall", f"{stats.wall_s:.2f}s"],
        ["throughput", f"{stats.flows_done / stats.wall_s:,.0f} flows/s"
         if stats.wall_s else "n/a"],
    ]
    return render_table(
        ["metric", "value"], rows,
        title=f"serve — {driver.policy} @ tick {driver.tick}s",
    )
