"""Command-line interface: run experiments without writing a script.

Subcommands
-----------
``schedulers``
    List every registered scheduling policy.
``experiments``
    List the paper's tables and figures and the bench that regenerates
    each (:mod:`repro.experiments`).
``compare``
    Run a synthetic coflow workload under several policies and print the
    comparison table (avg FCT/CCT, makespan, traffic saved).
``replay``
    Replay a Facebook coflow-benchmark trace file under one or more
    policies.
``fig4``
    Print the motivating-example table against the paper's numbers.
``reproduce``
    Run the paper-claim benches with pytest (all, or ``--only`` one
    experiment) and collate their reports into ``REPORT.md``.
``cluster``
    Run a HiBench suite on the cluster simulator with and without Swallow.
``trace``
    Run a scenario with the observability layer enabled and write the
    structured event trace as JSONL (read back with
    :func:`repro.analysis.read_trace`).
``sweep``
    Run a (policy × bandwidth × seed) experiment grid through the
    parallel runner (:mod:`repro.runner`) with the content-addressed
    result cache.
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
    with a stall watchdog) on a daemon thread.
``top``
    Live terminal dashboard for a running ``repro serve
    --metrics-port N`` (local or remote): polls ``/snapshot`` and
    renders refreshing rate / backlog / tick-latency panels
    (``--once`` prints a single frame and exits).

Examples::

    python -m repro schedulers
    python -m repro experiments
    python -m repro compare --policies fifo,sebf,fvdf --coflows 40 --bandwidth 1gbps
    python -m repro replay path/to/FB2010-1Hr-150-0.txt --policies sebf,fvdf
    python -m repro fig4
    python -m repro reproduce --only fig6e
    python -m repro cluster --scale large
    python -m repro trace fig4 --policy fvdf --out fig4.jsonl
    python -m repro trace synthetic --coflows 50
    python -m repro sweep --workers 4
    python -m repro report --workers 4 --out report.json
    python -m repro serve --rate 200 --mode bursty --coflows 5000
    python -m repro serve --input trace.jsonl --spill-dir shards/
    python -m repro serve --ticks 50 --checkpoint svc.npz
    python -m repro serve --resume svc.npz
    python -m repro serve --metrics-port 9090
    python -m repro top --port 9090
    python -m repro top --url http://scheduler-host:9090 --once
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis import (
    ExperimentSetup,
    render_table,
    run_many,
    speedups_over,
    summary_table,
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


def _csv_list(parse, name: str):
    """An argparse ``type`` for a comma list of ``parse`` values.  A bad
    item makes argparse print ``invalid <name> value: '<the list>'``."""
    def parse_list(text: str):
        try:
            return [parse(t) for t in text.split(",") if t.strip()]
        except ReproError as exc:
            raise ValueError(str(exc)) from None
    parse_list.__name__ = name
    return parse_list


def _setup(args: argparse.Namespace, num_ports: int) -> ExperimentSetup:
    return ExperimentSetup(num_ports=num_ports, slice_len=args.slice,
                           bandwidth=parse_bandwidth(args.bandwidth))


def _synthetic(args: argparse.Namespace):
    """The trace the workload options describe (``compare``, ``trace``)."""
    from repro.scenarios import synthetic_workload

    return synthetic_workload(args.coflows, args.ports, args.max_width,
                              args.rate, args.seed)


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
    results = run_many(args.policies, _synthetic(args), _setup(args, args.ports))
    print(summary_table(results))
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
    print(summary_table(run_many(args.policies, coflows, _setup(args, num_ports))))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the benchmark suite that regenerates every table and figure."""
    from repro.experiments import reproduce

    rc, collated = reproduce(args.only, collect_only=args.collect_only)
    if collated is not None:
        print(f"\nreports written under {collated.parent} (collated: {collated})")
    return rc


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
    from repro.analysis.tracefile import record_run

    policy = make_scheduler(args.policy)
    workload = setup = None
    if args.scenario == "synthetic":
        workload, setup = _synthetic(args), _setup(args, args.ports)
    obs, res = record_run(policy, workload, setup, slice_len=args.slice)
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
    return 0


def _sweep(args: argparse.Namespace, telemetry: bool = False):
    """Run the grid a ``sweep``/``report`` command asks for (defaults from
    :data:`repro.runner.GRID`)."""
    from repro.runner import SweepGrid
    from repro.runner.sweep import run_sweep

    grid = SweepGrid(
        policies=tuple(args.policies),
        bandwidths=tuple(args.bandwidths),
        seeds=tuple(args.seeds),
        num_coflows=args.coflows,
        num_ports=args.ports,
        max_width=args.max_width,
        arrival_rate=args.rate,
        slice_len=args.slice,
    )
    return run_sweep(grid, workers=args.workers, cache=not args.no_cache,
                     cache_dir=args.cache_dir, telemetry=telemetry)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (policy × bandwidth × seed) grid through the parallel runner."""
    sweep = _sweep(args)
    rows = [
        [
            out.key,
            seconds_to_human(out.summary.avg_cct),
            seconds_to_human(out.summary.makespan),
            f"{out.summary.traffic_reduction * 100:.1f}%",
            "hit" if out.cached else f"{out.wall_s:.2f}s",
        ]
        for out in sweep.outcomes
    ]
    print(render_table(
        ["cell", "avg CCT", "makespan", "traffic saved", "run"],
        rows,
        title=f"sweep grid — {sweep.grid.cells} cells, {sweep.workers} workers",
    ))
    stats = sweep.cache.stats()
    print(
        f"\nwall {sweep.wall_s:.2f}s | workers {sweep.workers} | cache "
        f"{'on' if stats['enabled'] else 'off'} "
        f"({stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['corrupt']} corrupt dropped, {stats['root']})"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a pooled sweep with telemetry and render the merged report."""
    from repro.analysis.report import build_report, render_report, write_report

    sweep = _sweep(args, telemetry=True)
    report = build_report(sweep.telemetry, sweep.grid.describe(), label=args.label)
    print(render_report(report))
    out_path = write_report(report, args.out)
    print(f"report written -> {out_path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming scheduler service against an arrival stream."""
    from repro.service import SourceSpec, serve

    source = setup = None
    if not args.resume:
        limit = args.coflows
        if args.input is None and limit is None and args.flows is None and args.ticks is None:
            limit = 1000  # an unbounded synthetic stream needs *some* bound
        if args.input is not None:
            source = SourceSpec(kind="jsonl", path=args.input, limit=limit)
        else:
            source = SourceSpec(
                rate=args.rate,
                num_ports=args.ports,
                width=(1, args.max_width),
                seed=args.seed,
                mode=args.mode,
                limit=limit,
            )
        setup = _setup(args, args.ports)
    serve(
        source, setup, policy=args.policy, resume=args.resume, tick=args.tick,
        max_in_flight=args.max_in_flight, drain_every=args.drain_every,
        spill_dir=args.spill_dir, checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every, max_ticks=args.ticks,
        max_flows=args.flows, metrics_port=args.metrics_port,
        watchdog=args.watchdog, report=args.report, label=args.label,
    )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live ANSI dashboard over a running ``serve --metrics-port``."""
    from repro.obs.top import watch

    base = (args.url.rstrip("/") if args.url
            else f"http://{args.host}:{args.port}")
    return watch(base, interval=args.interval, timeout=args.timeout,
                 color=not args.no_color, once=args.once)


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import run_hibench

    base, swallow = (
        run_hibench(policy, args.scale, suite_seed=args.seed, num_jobs=args.jobs,
                    num_nodes=args.nodes, bandwidth=parse_bandwidth(args.bandwidth),
                    slice_len=args.slice)
        for policy in ("sebf", "fvdf")
    )
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


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """The synthetic workload and fabric options ``compare`` and ``trace``
    share."""
    p.add_argument("--coflows", type=int, default=40)
    p.add_argument("--ports", type=int, default=16)
    p.add_argument("--max-width", type=int, default=8)
    p.add_argument("--rate", type=float, default=4.0)
    p.add_argument("--bandwidth", default="100mbps")
    p.add_argument("--slice", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """The grid, pool and cache options ``sweep`` and ``report`` share;
    the help renders the defaults of :data:`repro.runner.GRID`."""
    from repro.runner import GRID

    def bw(b: float) -> str:
        return f"{b / GBPS:g}gbps" if b >= GBPS else f"{b / MBPS:g}mbps"

    p.add_argument("--policies", type=_policies, default=list(GRID.policies))
    p.add_argument("--bandwidths", type=_csv_list(parse_bandwidth, "bandwidth list"),
                   default=list(GRID.bandwidths),
                   help="comma list of link bandwidths (default "
                        f"{','.join(bw(b) for b in GRID.bandwidths)})")
    p.add_argument("--seeds", type=_csv_list(int, "int list"), default=list(GRID.seeds),
                   help="comma list of workload seeds (default "
                        f"{','.join(str(s) for s in GRID.seeds)})")
    p.add_argument("--coflows", type=int, default=GRID.num_coflows)
    p.add_argument("--ports", type=int, default=GRID.num_ports)
    p.add_argument("--max-width", type=int, default=GRID.max_width)
    p.add_argument("--rate", type=float, default=GRID.arrival_rate)
    p.add_argument("--slice", type=float, default=GRID.slice_len)
    p.add_argument("--workers", default=None,
                   help="pool size (int or 'auto'; default: REPRO_PARALLEL "
                        "or 'auto')")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the .repro-cache result cache entirely")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)")


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
    _add_workload_args(p)
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
    _add_workload_args(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "sweep",
        help="run a (policy x bandwidth x seed) grid through the parallel "
             "runner with the content-addressed result cache",
    )
    _add_grid_args(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "report",
        help="run a pooled sweep with per-worker telemetry and render the "
             "merged run report (writes report.json)",
    )
    _add_grid_args(p)
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
