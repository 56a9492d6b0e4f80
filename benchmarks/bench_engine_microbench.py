"""Micro-benchmarks — engine and allocation-primitive throughput.

True pytest-benchmark usage (multiple rounds): how fast the simulator
retires flows and how the water-filling/greedy primitives scale.  These
guard against performance regressions in the hot paths the HPC guides
call out (vectorised volume integration, progressive filling), and
against the observability hooks costing anything while disabled.
"""

import gc
import statistics
import time

import numpy as np
import pytest

from repro.analysis import ExperimentSetup, run_policy
from repro.core import rate_allocation as ra
from repro.obs import Observability
from repro.traces.distributions import LogNormalSizes
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import MB, mbps

N_FLOWS = 2000
N_PORTS = 64

#: Pairs of two guards whose arms run the same code or whose ratio
#: sits far from 1: enough that the median stays clear of the bound
#: unseeded and crosses it under a slowdown 2 % past it (counts in
#: docs/performance.md §13).
DISABLED_TRACING_PAIRS = 71
TRACE_EXPORT_PAIRS = 301

def timed(fn, clock=time.process_time):
    """An arm for :func:`paired_ratio`: runs ``fn`` and returns its cost
    on ``clock``.  Process CPU time by default: the guarded work is
    single-threaded, and CPU time leaves out the time the process waits
    while another one holds the core."""
    def arm():
        t0 = clock()
        fn()
        return clock() - t0
    return arm


def paired_ratio(arm_a, arm_b, pairs):
    """Median over ``pairs`` A/B pairs of ``arm_b() / arm_a()``.

    Every overhead guard measures with this helper.  Each arm runs its
    workload and returns its cost (see :func:`timed`).  The arms
    alternate within each pair, A first in even pairs and B first in
    odd ones, so drift and warm-up land on both sides alike, and the
    median of the per-pair ratios ignores the pairs a burst of outside
    load disturbs.  Garbage from the previous arm is collected before
    each arm starts.  ``pairs`` is odd, so the median is one pair's
    ratio; a guard whose runs are short and whose ratio sits near its
    bound takes more pairs.
    """
    ratios = []
    for i in range(pairs):
        costs = {}
        for side in ("ab" if i % 2 == 0 else "ba"):
            gc.collect()
            costs[side] = arm_a() if side == "a" else arm_b()
        ratios.append(costs["b"] / costs["a"])
    return statistics.median(ratios)


def lognormal_run(num_coflows=60, num_ports=16, max_width=4, seed=7):
    """The guards' common run: a seeded log-normal workload arriving at
    10 coflows/s, and its 200 Mbps fabric."""
    cfg = WorkloadConfig(
        num_coflows=num_coflows,
        num_ports=num_ports,
        size_dist=LogNormalSizes(median=4 * MB, sigma=1.0, lo=256 * 1024, hi=64 * MB),
        width=(1, max_width),
        arrival_rate=10.0,
    )
    setup = ExperimentSetup(num_ports=num_ports, bandwidth=mbps(200), slice_len=0.01)
    return generate_workload(cfg, np.random.default_rng(seed)), setup


@pytest.fixture(scope="module")
def flowset():
    rng = np.random.default_rng(0)
    src = rng.integers(0, N_PORTS, N_FLOWS)
    dst = rng.integers(0, N_PORTS, N_FLOWS)
    caps = np.full(N_PORTS, 100.0)
    return src, dst, caps


def test_maxmin_fair_speed(benchmark, flowset):
    src, dst, caps = flowset
    rates = benchmark(lambda: ra.maxmin_fair(src, dst, caps.copy(), caps.copy()))
    assert rates.sum() > 0


def test_greedy_priority_speed(benchmark, flowset):
    src, dst, caps = flowset
    order = np.arange(N_FLOWS)
    rates = benchmark(
        lambda: ra.greedy_priority(order, src, dst, caps.copy(), caps.copy())
    )
    assert rates.sum() > 0


def test_madd_speed(benchmark, flowset):
    src, dst, caps = flowset
    vol = np.linspace(1.0, 50.0, N_FLOWS)
    groups = [np.arange(i, N_FLOWS, 20) for i in range(20)]
    rates = benchmark(
        lambda: ra.madd(groups, src, dst, vol, caps.copy(), caps.copy())
    )
    assert rates.sum() > 0


def test_simulator_throughput(benchmark):
    """End-to-end: 200 coflows / ~600 flows through SEBF."""
    workload, setup = lognormal_run(num_coflows=200, num_ports=32, max_width=5, seed=3)
    res = benchmark.pedantic(
        lambda: run_policy("sebf", workload, setup), rounds=1, iterations=1
    )
    assert len(res.coflow_results) == 200


def test_disabled_tracing_overhead_under_5pct():
    """The NULL_OBS hook sites must stay within noise of the seed engine.

    The same FVDF workload with (a) the default NULL_OBS bundle and (b)
    an explicitly disabled bundle, measured with :func:`paired_ratio`:
    the disabled path must cost < 5 % extra.  The two arms run the same
    code, so the median needs many pairs to sit well inside the bound.
    """
    workload, setup = lognormal_run()

    # warm-up (JIT-free, but primes allocators and caches)
    run_policy("fvdf", workload, setup)
    ratio = paired_ratio(
        timed(lambda: run_policy("fvdf", workload, setup)),
        timed(lambda: run_policy(
            "fvdf", workload, setup,
            obs=Observability(trace=False, metrics=False),
        )),
        pairs=DISABLED_TRACING_PAIRS,
    )
    overhead = ratio - 1.0
    assert overhead < 0.05, (
        f"disabled-observability run is {overhead:.1%} slower than the "
        "default NULL_OBS path (median of paired runs)"
    )


def test_recorder_overhead_under_15pct():
    """Tracing must ride the batched path nearly for free.

    Measured with :func:`paired_ratio`: the FVDF workload with
    ``Observability(trace=True)`` — the one trace sink, a
    :class:`~repro.obs.recorder.FlightRecorder` — must stay within 15 %
    of the untraced columnar run, so full-fidelity capture does not
    reintroduce a per-record or per-flow Python path.
    """
    workload, setup = lognormal_run()

    run_policy("fvdf", workload, setup)  # warm-up
    ratio = paired_ratio(
        timed(lambda: run_policy("fvdf", workload, setup)),
        timed(lambda: run_policy(
            "fvdf", workload, setup,
            obs=Observability(trace=True, metrics=False),
        )),
        pairs=41,
    )
    overhead = ratio - 1.0
    assert overhead < 0.15, (
        f"recorder-attached run is {overhead:.1%} slower than the "
        "untraced columnar path (median of paired runs)"
    )


def test_columnar_ingest_cuts_submit_share():
    """Block-columnar ingest must hold its lead over the per-flow path.

    A bigtrace-style case — ~20k coflows / ~40k flows submitted in one
    batch, then a short bounded run — against the pinned pre-columnar
    engine (:class:`~repro.core.reference.PreColumnarSliceSimulator`,
    kept verbatim for exactly this purpose).  The run window schedules
    with D-CLAS, a policy of moderate and steady cost, so both shares
    weigh ingest against a like amount of scheduling work.  Two guards:

    * **time share** — ``submit_many``'s share of (submit + run window)
      must be at least halved versus the pre-columnar engine (the median
      of paired share ratios, so container jitter cannot flake it);
    * **tracemalloc** — the columnar submit's traced allocation peak must
      stay well below the object path's (no per-coflow record objects,
      heap entries or per-flow scalar conversions on the ingest path).
    """
    import tracemalloc

    from repro.core.reference import PreColumnarSliceSimulator
    from repro.fabric.bigswitch import BigSwitch
    from repro.schedulers import make_scheduler
    from repro.traces.distributions import ConstantSize
    from repro.units import KB

    cfg = WorkloadConfig(
        num_coflows=20_000,
        num_ports=16,
        size_dist=ConstantSize(200 * KB),
        width=(1, 4),
        arrival_rate=20_000.0,
    )
    workload = generate_workload(cfg, np.random.default_rng(3))

    def make(kind):
        from repro.analysis import ExperimentSetup

        setup = ExperimentSetup(
            num_ports=16, bandwidth=mbps(500), slice_len=0.01
        )
        if kind == "old":
            return PreColumnarSliceSimulator(
                BigSwitch(16, mbps(500)), make_scheduler("dclas"),
                slice_len=0.01,
            )
        return setup.build_simulator(make_scheduler("dclas"))

    old_shares = []

    def share(kind):
        """An arm: submit's share of (submit + run window) CPU time."""
        sim = make(kind)
        t0 = time.process_time()
        sim.submit_many(list(workload))
        t1 = time.process_time()
        sim.run(until=0.1)
        x = (t1 - t0) / (time.process_time() - t0)
        if kind == "old":
            old_shares.append(x)
        return x

    share("new")  # warm numpy / allocator caches
    share("old")
    old_shares.clear()
    ratio = paired_ratio(lambda: share("old"), lambda: share("new"), pairs=15)
    old_share = statistics.median(old_shares)
    # Floor: the case must actually be ingest-heavy on the old engine,
    # or the share comparison stops measuring the ingest path at all.
    assert old_share > 0.2, (
        f"pre-columnar submit share is only {old_share:.1%} — the "
        "bigtrace case no longer stresses ingest"
    )
    assert ratio <= 0.5, (
        f"columnar ingest submit share is {ratio:.2f}x the pre-columnar "
        "share (median of paired runs), not a 2x cut"
    )

    def traced_submit_peak(kind):
        sim = make(kind)
        tracemalloc.start()
        try:
            sim.submit_many(list(workload))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    old_peak = traced_submit_peak("old")
    new_peak = traced_submit_peak("new")
    assert new_peak < 0.85 * old_peak, (
        f"columnar submit peaked at {new_peak}B vs {old_peak}B on the "
        "object path — block ingest no longer cuts ingest allocations"
    )


def test_telemetry_plane_overhead_under_5pct():
    """The live telemetry plane must cost the streaming loop ~nothing.

    Measured with :func:`paired_ratio` over the streaming service
    (process CPU time counts the plane's serving thread too): an
    identical bounded stream driven with (a)
    no plane and (b) a :class:`~repro.obs.exposition.TelemetryPlane`
    attached *and serving HTTP* on an ephemeral port.  The plane's whole
    design is once-per-tick instrument updates plus snapshot-on-read —
    the admission loop itself takes no locks and does nothing per flow —
    so the enabled arm must stay within 5 % of the plane-off arm.  Also
    asserts the other half of the contract: a plane-off driver registers
    zero ``stream.*`` instruments at all.
    """
    from repro.obs.exposition import TelemetryPlane
    from repro.schedulers import make_scheduler
    from repro.service import SourceSpec, StreamDriver
    from repro.traces.distributions import ConstantSize
    from repro.units import KB

    spec = SourceSpec(
        rate=500.0, num_ports=8, width=(1, 3),
        size_dist=ConstantSize(200 * KB), seed=9, limit=5_000,
    )
    setup = ExperimentSetup(num_ports=8, bandwidth=mbps(500), slice_len=0.05)

    drivers = []

    def one(with_plane):
        """An arm: CPU time of one streaming loop."""
        sim = setup.build_simulator(make_scheduler("fvdf-flow"))
        driver = StreamDriver(
            sim, spec.build(), tick=0.5, max_in_flight=2_000,
            setup=setup, source_spec=spec,
        )
        plane = None
        if with_plane:
            plane = TelemetryPlane(driver)
            plane.start(0)
        try:
            # Time the streaming loop only: stop() deliberately sits
            # outside the window (it blocks on the server's poll loop,
            # which is shutdown latency, not per-tick overhead).
            t0 = time.process_time()
            driver.run()
            cost = time.process_time() - t0
        finally:
            if plane is not None:
                plane.stop()
        if not with_plane:
            drivers.append(driver)
        return cost

    one(False)  # warm-up
    ratio = paired_ratio(lambda: one(False), lambda: one(True), pairs=25)
    # Plane off: no stream.* instrument may ever have been created.
    assert not any(
        n.startswith("stream.")
        for d in drivers
        for n in d.sim.obs.metrics.names()
    ), "a plane-off driver registered stream.* instruments"
    overhead = ratio - 1.0
    assert overhead < 0.05, (
        f"telemetry-plane run is {overhead:.1%} slower than the plane-off "
        "stream (median of paired runs)"
    )


def test_incremental_view_overhead_under_5pct():
    """Incremental view maintenance must never cost more than regrouping.

    The simulator keeps the per-decision ``SchedulerView`` incrementally
    (dirty flags + in-place volume updates) instead of regrouping active
    flows from scratch at every decision point.  On a small workload —
    where a from-scratch regroup is cheapest and the incremental
    bookkeeping is pure overhead — the incremental path must stay within
    5 % of the ``force_regroup`` path.  (At scale it is strictly faster;
    the ``burst-decide`` workload of ``e2ebench/`` tracks that side.)
    """
    workload, setup = lognormal_run()
    obs = Observability(trace=False, metrics=False)

    def run(force_regroup):
        from repro.schedulers import make_scheduler

        sim = setup.build_simulator(make_scheduler("fvdf"), obs=obs)
        sim.force_regroup = force_regroup
        sim.submit_many(list(workload))
        return sim.run()

    run(False)  # warm-up
    ratio = paired_ratio(
        timed(lambda: run(True)), timed(lambda: run(False)), pairs=31
    )
    overhead = ratio - 1.0
    assert overhead < 0.05, (
        f"incremental view path is {overhead:.1%} slower than per-decision "
        "regroup (median of paired runs)"
    )


def test_jsonl_block_parse_near_json_floor(tmp_path):
    """The JSONL block parse must stay near the cost of ``json.loads``.

    ``JsonlSource.pop_block`` decodes each due line once with orjson,
    reads it into flat column lists and converts every column to an
    array once per block.  Over a few thousand stream-serve-shaped lines
    (4 flows each, popped in 0.4 s horizons), measured with
    :func:`paired_ratio`, the whole parse must stay within 3x of bare
    ``json.loads`` over the same lines — a ratio, so it holds on any
    host.  Measured at 1.00x on a 2-core host (1.52x when lines were
    decoded with the stdlib's ``raw_decode``); a per-coflow numpy path
    costs ~5x.
    """
    import json
    import math

    from repro.service import JsonlSource, SourceSpec, coflow_to_json
    from repro.traces.distributions import ConstantSize
    from repro.units import KB

    source = SourceSpec(
        rate=2000.0, num_ports=16, width=4,
        size_dist=ConstantSize(64 * KB), seed=1, limit=4_000,
    ).build()
    lines = []
    while source.peek() is not None:
        lines.append(json.dumps(coflow_to_json(source.pop())))
    path = tmp_path / "arrivals.jsonl"
    path.write_text("".join(line + "\n" for line in lines))

    def floor():
        for line in lines:
            json.loads(line)

    def parse():
        src = JsonlSource(str(path))
        horizon, n_flows = 0.0, 0
        while src.peek() is not None:
            horizon += 0.4
            block = src.pop_block(horizon, math.inf)
            n_flows += 0 if block is None else block.n_flows
        assert n_flows == 4 * len(lines)

    parse()  # warm-up
    ratio = paired_ratio(timed(floor), timed(parse), pairs=181)
    assert ratio <= 3.0, (
        f"JSONL block parse took {ratio:.2f}x bare json.loads "
        "(median of paired runs)"
    )


def test_trace_export_beats_per_record_decode():
    """The columnar JSONL export must beat the per-record encode by 3x.

    ``FlightRecorder.dump_jsonl`` formats each batch's lines straight
    from its columns; the oracle decodes every record and runs
    ``record_to_json`` on it.  On an fb-replay-shaped recording (an
    FB-like trace of ~1k coflows on 8 ports under ``fvdf-flow``),
    measured with :func:`paired_ratio`, the export must be at least 3x
    faster and write the same bytes — a ratio, so it holds on any host.
    Measured at 17-20x on a 2-core host (8.7x with the per-row f-string
    writer that preceded the per-chunk ``%``-format).
    """
    import io

    from repro.obs.trace import record_to_json
    from repro.schedulers import make_scheduler
    from repro.traces.facebook import synthesize
    from repro.units import gbps

    setup = ExperimentSetup(num_ports=8, bandwidth=gbps(4), slice_len=0.2)
    coflows = synthesize(
        np.random.default_rng(1), num_coflows=1_000, num_ports=8,
        arrival_rate=800.0, mean_reducer_mb=0.02,
    ).coflows
    obs = Observability(trace=True, metrics=False)
    sim = setup.build_simulator(make_scheduler("fvdf-flow"), obs=obs)
    sim.submit_many(coflows)
    sim.run()
    rec = obs.recorder

    def export():
        buf = io.StringIO()
        assert rec.dump_jsonl(buf) == len(rec)
        return buf.getvalue()

    def oracle():
        return "".join(record_to_json(r) + "\n" for r in rec)

    assert export() == oracle()
    ratio = paired_ratio(timed(oracle), timed(export), pairs=TRACE_EXPORT_PAIRS)
    assert 3.0 * ratio <= 1.0, (
        f"columnar export took {ratio:.3f}x the per-record encode, "
        "not at most 1/3 (median of paired runs)"
    )
