"""Command-line interface: run experiments without writing a script.

Subcommands
-----------
``schedulers``
    List every registered scheduling policy.
``compare``
    Run a synthetic coflow workload under several policies and print the
    comparison table (avg FCT/CCT, makespan, traffic saved).
``replay``
    Replay a Facebook coflow-benchmark trace file under one or more
    policies.
``fig4``
    Print the motivating-example table against the paper's numbers.
``cluster``
    Run a HiBench suite on the cluster simulator with and without Swallow.
``trace``
    Run a scenario with the observability layer enabled and write the
    structured event trace as JSONL (read back with
    :func:`repro.analysis.read_trace`).
``sweep``
    Run a (policy × bandwidth × seed) experiment grid through the
    parallel runner (:mod:`repro.runner`) with the content-addressed
    result cache; ``--smoke`` is the CI equivalence check.
``report``
    Run a pooled sweep with per-worker telemetry attached and render the
    merged run report (per-policy decision latency, bytes sent,
    compression core claims, worker skew, cache effectiveness), writing
    the machine-readable ``report.json`` alongside.
``serve``
    Run the long-lived streaming scheduler service (:mod:`repro.service`):
    coflows arrive from a synthetic generator or a JSONL trace/stdin,
    are admitted tick by tick under bounded in-flight backpressure, and
    retired results drain to ``.npz`` shards so memory stays bounded.
    ``--checkpoint``/``--resume`` snapshot and restore the live service;
    ``--metrics-port N`` starts the live telemetry plane (``/metrics``
    Prometheus exposition, ``/snapshot`` JSON, ``/healthz``/``/readyz``
    with a stall watchdog) on a daemon thread; ``--smoke`` is the CI
    checkpoint/restore identity check (with ``--metrics-port`` it also
    polls the plane mid-run).
``top``
    Live terminal dashboard for a running ``repro serve
    --metrics-port N`` (local or remote): polls ``/snapshot`` and
    renders refreshing rate / backlog / tick-latency panels
    (``--once`` prints a single frame and exits).

Examples::

    python -m repro schedulers
    python -m repro compare --policies fifo,sebf,fvdf --coflows 40 --bandwidth 1gbps
    python -m repro replay path/to/FB2010-1Hr-150-0.txt --policies sebf,fvdf
    python -m repro fig4
    python -m repro cluster --scale large
    python -m repro trace fig4 --policy fvdf --out fig4.jsonl
    python -m repro trace synthetic --coflows 50 --profile
    python -m repro sweep --workers 4
    python -m repro sweep --smoke
    python -m repro report --workers 4 --out report.json
    python -m repro report --smoke
    python -m repro serve --rate 200 --mode bursty --coflows 5000
    python -m repro serve --input trace.jsonl --spill-dir shards/
    python -m repro serve --ticks 50 --checkpoint svc.npz
    python -m repro serve --resume svc.npz
    python -m repro serve --metrics-port 9090
    python -m repro serve --smoke
    python -m repro serve --smoke --metrics-port 0
    python -m repro top --port 9090
    python -m repro top --url http://scheduler-host:9090 --once
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import (
    ExperimentSetup,
    render_table,
    run_many,
    run_policy,
    speedups_over,
)
from repro.errors import ReproError
from repro.schedulers import make_scheduler, scheduler_names
from repro.units import GBPS, MBPS, bytes_to_human, seconds_to_human


def parse_bandwidth(text: str) -> float:
    """Parse ``"100mbps"`` / ``"1gbps"`` / raw bytes-per-second."""
    t = text.strip().lower()
    try:
        if t.endswith("gbps"):
            return float(t[:-4]) * GBPS
        if t.endswith("mbps"):
            return float(t[:-4]) * MBPS
        return float(t)
    except ValueError:
        raise ReproError(f"cannot parse bandwidth {text!r}") from None


def _policies(arg: str) -> List[str]:
    names = [p.strip() for p in arg.split(",") if p.strip()]
    for n in names:
        try:
            make_scheduler(n)  # validate early, with a helpful error
        except ReproError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _summary_table(results) -> str:
    rows = [
        [
            name,
            seconds_to_human(res.avg_fct),
            seconds_to_human(res.avg_cct),
            seconds_to_human(res.makespan),
            f"{res.traffic_reduction * 100:.1f}%",
        ]
        for name, res in results.items()
    ]
    return render_table(
        ["policy", "avg FCT", "avg CCT", "makespan", "traffic saved"], rows
    )


def cmd_schedulers(args: argparse.Namespace) -> int:
    for name in scheduler_names():
        print(name)
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    rows = [
        [e.exp_id, e.title, e.bench] for e in EXPERIMENTS.values()
    ]
    print(render_table(["id", "title", "bench"], rows,
                       title="Registered experiments (paper tables/figures)"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.traces import WorkloadConfig, generate_workload, spark_flow_sizes

    rng = np.random.default_rng(args.seed)
    workload = generate_workload(
        WorkloadConfig(
            num_coflows=args.coflows,
            num_ports=args.ports,
            size_dist=spark_flow_sizes(),
            width=(1, args.max_width),
            arrival_rate=args.rate,
        ),
        rng,
    )
    setup = ExperimentSetup(
        num_ports=args.ports,
        bandwidth=parse_bandwidth(args.bandwidth),
        slice_len=args.slice,
    )
    results = run_many(args.policies, workload, setup)
    print(_summary_table(results))
    if len(results) > 1:
        ours = args.policies[-1]
        print(f"\nCCT speedup of {ours}:")
        for name, sp in sorted(speedups_over(results, ours=ours).items()):
            print(f"  over {name:12s} {sp:.2f}x")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.traces import read_csv_trace, read_facebook_trace

    if args.format == "csv" or (args.format == "auto" and args.trace.endswith(".csv")):
        coflows = read_csv_trace(args.trace)
        num_ports = 1 + max(
            max(f.src for c in coflows for f in c.flows),
            max(f.dst for c in coflows for f in c.flows),
        )
    else:
        trace = read_facebook_trace(args.trace)
        coflows, num_ports = trace.coflows, trace.num_ports
    total = sum(c.size for c in coflows)
    n_flows = sum(c.width for c in coflows)
    print(
        f"{len(coflows)} coflows, {n_flows} flows, "
        f"{bytes_to_human(total)} on {num_ports} ports"
    )
    setup = ExperimentSetup(
        num_ports=num_ports,
        bandwidth=parse_bandwidth(args.bandwidth),
        slice_len=args.slice,
    )
    results = run_many(args.policies, coflows, setup)
    print(_summary_table(results))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the benchmark suite that regenerates every table and figure."""
    import pytest as _pytest

    bench_dir = str(Path(__file__).resolve().parents[2] / "benchmarks")
    pytest_args = [bench_dir, "--benchmark-only", "-q"]
    if args.only:
        from repro.experiments import EXPERIMENTS

        try:
            exp = EXPERIMENTS[args.only]
        except KeyError:
            print(
                f"error: unknown experiment {args.only!r}; "
                f"see `python -m repro experiments`",
                file=sys.stderr,
            )
            return 2
        pytest_args[0] = str(Path(bench_dir) / exp.bench)
    if args.collect_only:
        pytest_args.append("--collect-only")
    rc = _pytest.main(pytest_args)
    if rc == 0 and not args.collect_only:
        from repro.analysis.collate import collate_reports

        reports = Path(bench_dir) / "reports"
        if reports.is_dir():
            out = reports / "REPORT.md"
            collate_reports(reports, out)
            print(f"\nreports written under {reports} (collated: {out})")
    return int(rc)


def cmd_fig4(args: argparse.Namespace) -> int:
    from repro.scenarios import FIG4_PAPER_NUMBERS, run_motivating_example

    rows = []
    for name in ["pff", "wss", "fifo", "pfp", "sebf", "fvdf"]:
        res = run_motivating_example(make_scheduler(name))
        p_fct, p_cct = FIG4_PAPER_NUMBERS[name]
        rows.append([name, f"{res.avg_fct:.2f}", f"{p_fct:.2f}",
                     f"{res.avg_cct:.2f}", f"{p_cct:.2f}"])
    print(render_table(
        ["policy", "FCT (ours)", "FCT (paper)", "CCT (ours)", "CCT (paper)"],
        rows, title="Fig. 4 — motivating example",
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one scenario with tracing on and export the JSONL trace."""
    from repro.obs import Observability

    obs = Observability(trace=True, metrics=True, profile=args.profile)
    policy = make_scheduler(args.policy)
    if args.scenario == "fig4":
        from repro.scenarios import run_motivating_example

        res = run_motivating_example(policy, slice_len=args.slice, obs=obs)
    else:  # synthetic
        from repro.traces import WorkloadConfig, generate_workload, spark_flow_sizes

        workload = generate_workload(
            WorkloadConfig(
                num_coflows=args.coflows,
                num_ports=args.ports,
                size_dist=spark_flow_sizes(),
                width=(1, args.max_width),
                arrival_rate=args.rate,
            ),
            np.random.default_rng(args.seed),
        )
        setup = ExperimentSetup(
            num_ports=args.ports,
            bandwidth=parse_bandwidth(args.bandwidth),
            slice_len=args.slice,
        )
        res = run_policy(policy, workload, setup, obs=obs)

    if args.out == "-":
        obs.recorder.dump_jsonl(sys.stdout)
    else:
        n = obs.recorder.dump_jsonl(args.out)
        print(f"{n} trace records -> {args.out}")
    counts = obs.recorder.counts()
    rows = [[kind, str(counts[kind])] for kind in sorted(counts)]
    print(render_table(["record kind", "count"], rows,
                       title=f"{policy.name} on {args.scenario}"))
    print(
        f"decisions={res.decision_points} makespan={seconds_to_human(res.makespan)} "
        f"avg CCT={seconds_to_human(res.avg_cct)}"
    )
    print("\nmetrics:")
    print(obs.metrics.render())
    if args.profile:
        print("\nhot sections:")
        print(obs.profiler.report())
    return 0


def _floats_csv(parse):
    def _parse(text: str):
        return [parse(t) for t in text.split(",") if t.strip()]
    return _parse


def _sweep_grid(args: argparse.Namespace):
    """The grid a ``sweep``/``report`` run asks for: the CI smoke grid
    under ``--smoke``, else the grid options (defaults from
    :data:`repro.runner.GRID`)."""
    from repro.runner import SMOKE_GRID, SweepGrid

    if args.smoke:
        return SMOKE_GRID
    return SweepGrid(
        policies=tuple(args.policies),
        bandwidths=tuple(args.bandwidths),
        seeds=tuple(args.seeds),
        num_coflows=args.coflows,
        num_ports=args.ports,
        max_width=args.max_width,
        arrival_rate=args.rate,
        slice_len=args.slice,
    )


def _sweep_workers(args: argparse.Namespace) -> int:
    """Pool size of a ``sweep``/``report`` run.

    An explicit ``--workers`` wins; ``--smoke`` defaults to 2; otherwise
    ``REPRO_PARALLEL``, otherwise these commands (unlike the library
    default) go wide — they exist to fan out.
    """
    from repro.runner import resolve_workers

    if args.workers is not None:
        return resolve_workers(args.workers)
    if args.smoke:
        return 2
    return resolve_workers(None) or resolve_workers("auto")


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (policy × bandwidth × seed) grid through the parallel runner."""
    from repro.runner import ResultCache, run_specs

    grid, workers = _sweep_grid(args), _sweep_workers(args)
    if args.smoke:
        return _sweep_smoke(grid.specs(), workers)

    cache = ResultCache(
        root=args.cache_dir, enabled=False if args.no_cache else None
    )
    specs = grid.specs()
    import time as _time

    t0 = _time.perf_counter()
    outs = run_specs(specs, workers=workers, cache=cache)
    wall = _time.perf_counter() - t0
    rows = [
        [
            out.key,
            seconds_to_human(out.summary.avg_cct),
            seconds_to_human(out.summary.makespan),
            f"{out.summary.traffic_reduction * 100:.1f}%",
            "hit" if out.cached else f"{out.wall_s:.2f}s",
        ]
        for out in outs
    ]
    print(render_table(
        ["cell", "avg CCT", "makespan", "traffic saved", "run"],
        rows,
        title=f"sweep grid — {grid.cells} cells, {workers} workers",
    ))
    stats = cache.stats()
    print(
        f"\nwall {wall:.2f}s | workers {workers} | cache "
        f"{'on' if stats['enabled'] else 'off'} "
        f"({stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['corrupt']} corrupt dropped, {stats['root']})"
    )
    return 0


def _sweep_smoke(specs, workers: int) -> int:
    """Tiny pool-vs-sequential equivalence run for CI (`sweep --smoke`)."""
    import tempfile

    from repro.runner import ResultCache, run_specs

    seq = run_specs(specs, workers=0, cache=False)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(root=tmp, enabled=True)
        par = run_specs(specs, workers=workers, cache=cache)
        warm = run_specs(specs, workers=workers, cache=cache)
    ok_par = all(
        a.key == b.key and a.summary == b.summary for a, b in zip(seq, par)
    )
    ok_warm = all(
        a.key == b.key and a.summary == b.summary for a, b in zip(seq, warm)
    ) and all(o.cached for o in warm)
    print(
        f"sweep smoke: {len(specs)} cells, {workers} workers | "
        f"pool identical: {ok_par} | cache identical+hit: {ok_warm}"
    )
    if not (ok_par and ok_warm):
        print("error: smoke equivalence failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a pooled sweep with telemetry and render the merged report."""
    import time as _time

    from repro.analysis import report as report_mod
    from repro.runner import ResultCache, RunTelemetry, run_specs

    grid, workers = _sweep_grid(args), _sweep_workers(args)
    cache = ResultCache(
        root=args.cache_dir, enabled=False if args.no_cache else None
    )
    specs = grid.specs(telemetry=True)
    t0 = _time.perf_counter()
    outs = run_specs(specs, workers=workers, cache=cache)
    wall = _time.perf_counter() - t0
    telemetry = RunTelemetry.collect(
        outs, workers=workers, wall_s=wall, cache=cache
    )
    report = report_mod.build_report(
        telemetry, grid.describe(), label=args.label
    )
    print(report_mod.render_report(report))
    out_path = report_mod.write_report(report, args.out)
    print(f"report written -> {out_path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming scheduler service against an arrival stream."""
    import json as _json

    from repro.obs import Observability
    from repro.service import SourceSpec, StreamDriver, restore_driver

    if args.smoke:
        return _serve_smoke(args)

    obs = Observability(trace=False, metrics=True)
    if args.resume:
        driver = restore_driver(
            args.resume,
            obs=obs,
            spill_dir=args.spill_dir,
            keep_shards=args.spill_dir is None,
            checkpoint_path=args.checkpoint,
            checkpoint_every_ticks=args.checkpoint_every,
        )
        print(f"resumed from {args.resume} at t={driver.sim.now:.2f}s "
              f"({driver.stats.coflows_done} coflows already done)")
    else:
        limit = args.coflows
        if args.input is None and limit is None and args.flows is None and args.ticks is None:
            limit = 1000  # an unbounded synthetic stream needs *some* bound
        if args.input is not None:
            spec = SourceSpec(kind="jsonl", path=args.input, limit=limit)
        else:
            spec = SourceSpec(
                rate=args.rate,
                num_ports=args.ports,
                width=(1, args.max_width),
                seed=args.seed,
                mode=args.mode,
                limit=limit,
            )
        setup = ExperimentSetup(
            num_ports=args.ports,
            bandwidth=parse_bandwidth(args.bandwidth),
            slice_len=args.slice,
        )
        sim = setup.build_simulator(make_scheduler(args.policy), obs=obs)
        driver = StreamDriver(
            sim,
            spec.build(),
            tick=args.tick,
            max_in_flight=args.max_in_flight,
            drain_every=args.drain_every,
            spill_dir=args.spill_dir,
            keep_shards=args.spill_dir is None,
            checkpoint_path=args.checkpoint,
            checkpoint_every_ticks=args.checkpoint_every,
            setup=setup,
            source_spec=spec,
            policy=args.policy,
        )
    plane = None
    if args.metrics_port is not None:
        from repro.obs.exposition import TelemetryPlane

        plane = TelemetryPlane(driver, watchdog_s=args.watchdog)
        port = plane.start(args.metrics_port)
        print(
            f"telemetry plane -> http://127.0.0.1:{port} "
            f"(/metrics /snapshot /healthz /readyz; `repro top --port {port}`)"
        )
    try:
        stats = driver.run(max_ticks=args.ticks, max_flows=args.flows)
    finally:
        if plane is not None:
            plane.stop()
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
    print(render_table(
        ["metric", "value"], rows,
        title=f"serve — {driver.policy} @ tick {driver.tick}s",
    ))
    if driver.shard_paths:
        print(f"{len(driver.shard_paths)} result shards -> {driver.spill_dir}")
    if args.checkpoint and driver.sim.pending:
        driver.checkpoint(args.checkpoint)
        print(f"checkpoint (resumable) -> {args.checkpoint}")
    if args.report:
        report = driver.telemetry_report(label=args.label or "serve")
        Path(args.report).write_text(_json.dumps(report, indent=2) + "\n")
        print(f"report written -> {args.report}")
    return 0


def _smoke_run_with_plane(driver, args: argparse.Namespace,
                          probe: Dict[str, Any]):
    """Run a smoke leg with the telemetry plane attached, polling
    ``/metrics``, ``/snapshot`` and ``/healthz`` from a second thread
    while admission runs at full rate — the endpoints must answer
    mid-run, not just after the stream drains."""
    import json as _json
    import threading
    import urllib.request

    from repro.obs.exposition import TelemetryPlane

    plane = TelemetryPlane(driver, watchdog_s=args.watchdog)
    port = plane.start(args.metrics_port)
    base = f"http://127.0.0.1:{port}"
    stop = threading.Event()

    def poll():
        while not stop.is_set():
            try:
                with urllib.request.urlopen(
                    base + "/metrics", timeout=2
                ) as r:
                    probe["metrics"] = r.read().decode()
                with urllib.request.urlopen(
                    base + "/snapshot", timeout=2
                ) as r:
                    probe["snapshot"] = _json.loads(r.read().decode())
                with urllib.request.urlopen(
                    base + "/healthz", timeout=2
                ) as r:
                    probe["healthz"] = r.status
                probe["polls"] = probe.get("polls", 0) + 1
            except (OSError, ValueError):
                pass  # plane still warming up; keep polling
            stop.wait(0.02)

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    try:
        stats = driver.run()
    finally:
        stop.set()
        poller.join(timeout=5)
        plane.stop()
    probe["serving_after_stop"] = plane.serving
    return stats


def _serve_smoke(args: argparse.Namespace) -> int:
    """`serve --smoke`: bounded 10k-flow stream + checkpoint/restore
    round trip + JSONL block-parser replay, asserting bit-identical
    downstream results on all three legs."""
    import json as _json
    import tempfile

    from repro.core.results import concat_stores
    from repro.service import (
        JsonlSource,
        SourceSpec,
        StreamDriver,
        coflow_to_json,
        restore_driver,
    )
    from repro.traces.distributions import LogNormalSizes
    from repro.units import KB

    total_flows = args.flows or 10_000
    spec = SourceSpec(
        rate=500.0,
        num_ports=8,
        width=2,
        size_dist=LogNormalSizes(median=50 * KB, sigma=1.0),
        seed=11,
        limit=total_flows // 2,
    )
    setup = ExperimentSetup(
        num_ports=8, bandwidth=parse_bandwidth("1gbps"), slice_len=0.05
    )

    def fresh() -> StreamDriver:
        sim = setup.build_simulator(make_scheduler(args.policy))
        return StreamDriver(
            sim, spec.build(), tick=0.5, max_in_flight=2_000,
            setup=setup, source_spec=spec, policy=args.policy,
        )

    a = fresh()
    probe: Dict[str, Any] = {}
    if args.metrics_port is not None:
        stats_a = _smoke_run_with_plane(a, args, probe)
    else:
        stats_a = a.run()
    store_a = a.result_store()

    b = fresh()
    b.run(max_ticks=max(1, stats_a.ticks // 2))
    with tempfile.TemporaryDirectory() as tmp:
        ck = str(Path(tmp) / "serve-smoke.npz")
        b.checkpoint(ck)
        pre_shards = list(b.shards)
        b2 = restore_driver(ck)
        stats_b = b2.run()
    store_b = concat_stores(pre_shards + b2.shards)

    # Third leg: dump the stream to JSONL and replay it through the
    # block-columnar parser (JsonlSource.pop_block -> submit_block); the
    # same arrivals must produce bit-identical downstream results.
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = Path(tmp) / "stream.jsonl"
        dump = spec.build()
        with jsonl.open("w") as fh:
            while dump.peek() is not None:
                fh.write(_json.dumps(coflow_to_json(dump.pop())) + "\n")
        sim_c = setup.build_simulator(make_scheduler(args.policy))
        c = StreamDriver(
            sim_c, JsonlSource(str(jsonl)), tick=0.5, max_in_flight=2_000,
            setup=setup, policy=args.policy,
        )
        stats_c = c.run()
    store_c = c.result_store()

    content_flow = ("src", "dst", "size", "arrival", "start", "finish",
                    "finish_phys", "bytes_sent", "comp_in", "comp_out")
    content_cf = ("cf_arrival", "cf_finish", "cf_finish_phys", "cf_size",
                  "cf_width", "cf_bytes_sent")

    def diff(other):
        bad = [
            name
            for name in content_flow + content_cf
            if not np.array_equal(getattr(store_a, name), getattr(other, name))
        ]
        if list(store_a.cf_label) != list(other.cf_label):
            bad.append("cf_label")
        return bad

    mismatch = diff(store_b)
    mismatch_jsonl = diff(store_c)
    bounded = stats_a.peak_live_rows <= 4 * 2_000  # backlog-sized, not stream-sized
    plane_ok = True
    plane_note = ""
    if args.metrics_port is not None:
        snap = probe.get("snapshot") or {}
        metrics_text = probe.get("metrics") or ""
        # Prometheus rejects a scrape wholesale on a duplicated sample
        # (same name + labelset), so uniqueness is part of well-formed.
        sample_keys = [
            line.rsplit(" ", 1)[0]
            for line in metrics_text.splitlines()
            if line and not line.startswith("#")
        ]
        plane_checks = {
            "polled mid-run": probe.get("polls", 0) >= 1,
            "exposition well-formed": (
                "# TYPE repro_stream_in_flight gauge" in metrics_text
                and "repro_stream_tick_wall_s_bucket{" in metrics_text
                and 'le="+Inf"' in metrics_text
            ),
            "samples unique": (
                len(sample_keys) > 0
                and len(sample_keys) == len(set(sample_keys))
            ),
            "snapshot schema": snap.get("schema") == "repro-live-v1",
            "healthz 200": probe.get("healthz") == 200,
            "clean shutdown": not probe.get("serving_after_stop", True),
        }
        plane_ok = all(plane_checks.values())
        plane_note = (
            f" | plane ok: {plane_ok} ({probe.get('polls', 0)} polls)"
        )
        if not plane_ok:
            failed = [k for k, v in plane_checks.items() if not v]
            print(f"error: telemetry plane checks failed: {failed}",
                  file=sys.stderr)
    print(
        f"serve smoke: {stats_a.flows_done} flows, {stats_a.coflows_done} "
        f"coflows | restamped {stats_a.restamped} | peak rows "
        f"{stats_a.peak_live_rows} (bounded: {bounded}) | resume at tick "
        f"{max(1, stats_a.ticks // 2)}/{stats_a.ticks} | identical: "
        f"{not mismatch} | jsonl replay identical: {not mismatch_jsonl}"
        f"{plane_note}"
    )
    if mismatch or mismatch_jsonl or stats_a.flows_done != total_flows \
            or not bounded or stats_b.flows_done != stats_a.flows_done \
            or stats_c.flows_done != stats_a.flows_done or not plane_ok:
        if mismatch:
            print(f"error: columns differ after restore: {mismatch}",
                  file=sys.stderr)
        if mismatch_jsonl:
            print(
                f"error: columns differ on JSONL block replay: "
                f"{mismatch_jsonl}", file=sys.stderr,
            )
        if not (mismatch or mismatch_jsonl or not plane_ok):
            print("error: smoke stream incomplete or unbounded", file=sys.stderr)
        return 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live ANSI dashboard over a running ``serve --metrics-port``."""
    import json as _json
    import time as _time
    import urllib.request

    from repro.obs.exposition import render_dashboard

    base = (args.url.rstrip("/") if args.url
            else f"http://{args.host}:{args.port}")
    color = not args.no_color

    def fetch():
        with urllib.request.urlopen(
            base + "/snapshot", timeout=args.timeout
        ) as r:
            return _json.loads(r.read().decode())

    if args.once:
        try:
            snap = fetch()
        except (OSError, ValueError) as exc:
            print(f"error: cannot reach {base}/snapshot: {exc}",
                  file=sys.stderr)
            return 1
        print(render_dashboard(snap, color=color))
        return 0

    try:
        while True:
            try:
                snap = fetch()
            except (OSError, ValueError) as exc:
                # Transient: the plane restarts with its driver on resume.
                print(f"waiting for {base}/snapshot ... ({exc})")
            else:
                if color:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(render_dashboard(snap, color=color))
                if snap.get("finished"):
                    print("stream finished; exiting")
                    return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, ClusterSimulator, hibench_suite

    def run_once(policy: str):
        cfg = ClusterConfig(
            num_nodes=args.nodes,
            bandwidth=parse_bandwidth(args.bandwidth),
            slice_len=args.slice,
        )
        sim = ClusterSimulator(cfg, make_scheduler(policy))
        sim.submit_jobs(
            hibench_suite(args.scale, np.random.default_rng(args.seed),
                          num_jobs=args.jobs)
        )
        return sim.run()

    base, swallow = run_once("sebf"), run_once("fvdf")
    rows = [
        ["avg JCT", seconds_to_human(base.avg_jct), seconds_to_human(swallow.avg_jct),
         f"{base.avg_jct / swallow.avg_jct:.2f}x"],
        ["shuffle traffic", bytes_to_human(base.shuffle_bytes_sent),
         bytes_to_human(swallow.shuffle_bytes_sent),
         f"{swallow.traffic_reduction * 100:.1f}% saved"],
    ]
    print(render_table(
        ["metric", "without Swallow", "with Swallow", "improvement"], rows,
        title=f"HiBench {args.scale} on {args.nodes} nodes",
    ))
    return 0


def _add_grid_args(p: argparse.ArgumentParser, smoke_help: str) -> None:
    """The grid, pool and cache options ``sweep`` and ``report`` share;
    the help renders the defaults of :data:`repro.runner.GRID`."""
    from repro.runner import GRID

    def bw(b: float) -> str:
        return f"{b / GBPS:g}gbps" if b >= GBPS else f"{b / MBPS:g}mbps"

    p.add_argument("--policies", type=_policies, default=list(GRID.policies))
    p.add_argument("--bandwidths", type=_floats_csv(parse_bandwidth),
                   default=list(GRID.bandwidths),
                   help="comma list of link bandwidths (default "
                        f"{','.join(bw(b) for b in GRID.bandwidths)})")
    p.add_argument("--seeds", type=_floats_csv(int), default=list(GRID.seeds),
                   help="comma list of workload seeds (default "
                        f"{','.join(str(s) for s in GRID.seeds)})")
    p.add_argument("--coflows", type=int, default=GRID.num_coflows)
    p.add_argument("--ports", type=int, default=GRID.num_ports)
    p.add_argument("--max-width", type=int, default=GRID.max_width)
    p.add_argument("--rate", type=float, default=GRID.arrival_rate)
    p.add_argument("--slice", type=float, default=GRID.slice_len)
    p.add_argument("--workers", default=None,
                   help="pool size (int or 'auto'; default: REPRO_PARALLEL "
                        "or 'auto'; --smoke defaults to 2)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the .repro-cache result cache entirely")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--smoke", action="store_true", help=smoke_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Swallow (IPDPS'18) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schedulers", help="list scheduling policies").set_defaults(
        fn=cmd_schedulers
    )
    sub.add_parser(
        "experiments", help="list the paper's tables/figures and their benches"
    ).set_defaults(fn=cmd_experiments)

    p = sub.add_parser("compare", help="compare policies on a synthetic workload")
    p.add_argument("--policies", type=_policies, default=["fifo", "sebf", "fvdf"])
    p.add_argument("--coflows", type=int, default=40)
    p.add_argument("--ports", type=int, default=16)
    p.add_argument("--max-width", type=int, default=8)
    p.add_argument("--rate", type=float, default=4.0)
    p.add_argument("--bandwidth", default="100mbps")
    p.add_argument("--slice", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "replay", help="replay a coflow trace (FB benchmark or CSV format)"
    )
    p.add_argument("trace")
    p.add_argument("--format", choices=["auto", "fb", "csv"], default="auto")
    p.add_argument("--policies", type=_policies, default=["sebf", "fvdf"])
    p.add_argument("--bandwidth", default="100mbps")
    p.add_argument("--slice", type=float, default=0.01)
    p.set_defaults(fn=cmd_replay)

    sub.add_parser("fig4", help="the paper's motivating example").set_defaults(
        fn=cmd_fig4
    )

    p = sub.add_parser(
        "reproduce", help="regenerate the paper's tables/figures (runs pytest)"
    )
    p.add_argument("--only", help="experiment id (see `experiments`)")
    p.add_argument("--collect-only", action="store_true",
                   help="list the bench tests without running them")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser(
        "trace", help="run a scenario with tracing enabled and export JSONL"
    )
    p.add_argument("scenario", choices=["fig4", "synthetic"])
    p.add_argument("--policy", default="fvdf",
                   help="scheduling policy (see `schedulers`)")
    p.add_argument("--out", default="trace.jsonl",
                   help="output JSONL path ('-' for stdout)")
    p.add_argument("--profile", action="store_true",
                   help="also profile the schedule/integrate hot paths")
    p.add_argument("--coflows", type=int, default=40)
    p.add_argument("--ports", type=int, default=16)
    p.add_argument("--max-width", type=int, default=8)
    p.add_argument("--rate", type=float, default=4.0)
    p.add_argument("--bandwidth", default="100mbps")
    p.add_argument("--slice", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "sweep",
        help="run a (policy x bandwidth x seed) grid through the parallel "
             "runner with the content-addressed result cache",
    )
    _add_grid_args(p, smoke_help="tiny pool-vs-sequential equivalence run (CI)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "report",
        help="run a pooled sweep with per-worker telemetry and render the "
             "merged run report (writes report.json)",
    )
    _add_grid_args(p, smoke_help="run the tiny CI grid instead of the full sweep")
    p.add_argument("--label", default="", help="label recorded in report.json")
    p.add_argument("--out", default="report.json",
                   help="report output path (default report.json)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "serve", help="long-lived streaming scheduler service"
    )
    p.add_argument("--policy", default="fvdf",
                   help="scheduling policy (see `schedulers`)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="mean coflow arrival rate (synthetic source)")
    p.add_argument("--mode", choices=["steady", "bursty", "diurnal"],
                   default="steady", help="synthetic arrival process")
    p.add_argument("--coflows", type=int, default=None,
                   help="stop the source after N coflows")
    p.add_argument("--flows", type=int, default=None,
                   help="stop admitting after ~N flows, then run the backlog")
    p.add_argument("--ticks", type=int, default=None,
                   help="stop after N service ticks (checkpoint to continue)")
    p.add_argument("--ports", type=int, default=16)
    p.add_argument("--max-width", type=int, default=8)
    p.add_argument("--bandwidth", default="1gbps")
    p.add_argument("--slice", type=float, default=0.01)
    p.add_argument("--tick", type=float, default=1.0,
                   help="service tick length in simulated seconds")
    p.add_argument("--max-in-flight", type=int, default=10_000,
                   help="backpressure bound on submitted-but-unfinished flows")
    p.add_argument("--drain-every", type=int, default=1,
                   help="drain retired coflows every N ticks (0 = never)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None, metavar="JSONL",
                   help="read coflows from a JSONL trace ('-' for stdin) "
                        "instead of the synthetic source")
    p.add_argument("--spill-dir", default=None,
                   help="write drained result shards as .npz files here")
    p.add_argument("--checkpoint", default=None, metavar="NPZ",
                   help="checkpoint path (written at exit when work remains, "
                        "and periodically with --checkpoint-every)")
    p.add_argument("--checkpoint-every", type=int, default=None, metavar="TICKS")
    p.add_argument("--resume", default=None, metavar="NPZ",
                   help="resume from a checkpoint written by --checkpoint")
    p.add_argument("--report", default=None, metavar="JSON",
                   help="write a repro-report-v1 telemetry report here")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics, /snapshot, /healthz and /readyz on "
                        "this port while running (0 = pick an ephemeral "
                        "port; default: telemetry plane off)")
    p.add_argument("--watchdog", type=float, default=10.0, metavar="SECONDS",
                   help="with --metrics-port: /healthz turns 503 when no "
                        "tick completed within this wall-clock window "
                        "(default 10s)")
    p.add_argument("--smoke", action="store_true",
                   help="CI check: 10k-flow stream with a mid-stream "
                        "checkpoint/restore round trip (bit-identical)")
    p.add_argument("--label", default="",
                   help="label recorded in the --report telemetry report")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "top", help="live dashboard for a running `serve --metrics-port`"
    )
    p.add_argument("--url", default=None,
                   help="base URL of the telemetry plane (overrides "
                        "--host/--port), e.g. http://host:9090")
    p.add_argument("--host", default="127.0.0.1",
                   help="telemetry plane host (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=9090,
                   help="telemetry plane port (default 9090)")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="refresh interval (default 1s)")
    p.add_argument("--timeout", type=float, default=2.0, metavar="SECONDS",
                   help="per-request timeout (default 2s)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no screen clear)")
    p.add_argument("--no-color", action="store_true",
                   help="plain-text rendering (no ANSI colors)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("cluster", help="HiBench cluster run with/without Swallow")
    p.add_argument("--scale", default="large", choices=["large", "huge", "gigantic"])
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--jobs", type=int, default=12)
    p.add_argument("--bandwidth", default="1gbps")
    p.add_argument("--slice", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_cluster)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
