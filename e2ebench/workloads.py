"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload is a closed loop in one process; only ``sweep-grid`` adds
pool workers (two, the core count of the host the sizes were chosen
on).  Inputs come only from the ``--seed`` argument: ``generate`` writes
them once per seed into the work directory -- outside the timed region
and outside set-up -- and ``load`` reads them back, so a cached input
and a fresh one are the same bytes.

Every workload class has the same steps:

``ready()`` / ``generate()``
    whether the seed's inputs exist / write them (the runner generates
    in a child process, so generation never inflates peak RSS);
``load()``
    read the inputs and their precomputed bounds (untimed);
``build()`` / ``teardown(state)``
    construct the engine, driver or specs -- what ``setup_s`` times
    after the imports -- and release what it holds;
``run(state, inputs, tracer)``
    one timed pass, returning a :class:`Pass`; ``tracer`` is ``None``
    except in the traced run, where the pass opens its root span;
``check(out, inputs)``
    the output checks, outside the timed region;
``instrument(tracer, state)``
    rebind the layer entry points (traced run only).

The output checks of every pass: each submitted flow retires exactly
once, finishes no earlier than it arrives and sends no more bytes than
its size; no coflow is restamped; each coflow's CCT is at least its
``core.bounds.isolation_gamma`` and the makespan at least
``makespan_lower_bound``.  Both bounds are compression-adjusted,
precomputed per seed, and allowed one slice of slack for the
slice-granular engine, as the repository's own bound tests allow.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List

import numpy as np

from repro.analysis.harness import ExperimentSetup
from repro.core import rate_allocation
from repro.core.bounds import isolation_gamma, makespan_lower_bound
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.metrics import fct_by_size_bins
from repro.core.results import ResultStore, concat_stores
from repro.obs import Observability
from repro.obs.exposition import TelemetryPlane
from repro.runner import ResultCache, RunSpec, WorkloadSpec, run_specs, shm
from repro.schedulers import make_scheduler
from repro.service import (
    SourceSpec,
    StreamDriver,
    coflow_from_json,
    coflow_to_json,
)
from repro.traces.distributions import ConstantSize, LogNormalSizes
from repro.traces.facebook import synthesize
from repro.units import KB, MB, gbps, mbps

ROOT = Path(__file__).resolve().parents[1]
#: Inputs, bounds, fingerprints and scratch files (inside the checkout,
#: ignored by git).
WORK = ROOT / ".e2ebench-work"

#: Relative slack of the float comparisons in the output checks.
RTOL = 1e-9

#: Input files and fingerprint records are named after this file's
#: contents, so a change to how inputs are made never reuses old ones.
CODE = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]

#: CPU seconds :func:`reference_s` takes on the host the bounds were set
#: on (2-core x86-64 VM, Python 3.11, numpy 2.4, no other load).
REF_S = 0.011

#: CPU seconds between the reference rounds a pass takes.
REF_EVERY_S = 0.2


@dataclass
class Pass:
    """One pass: the timed numbers, then (after ``check``) its verdict."""

    wall_s: float
    #: CPU seconds of the pass, pool workers included, reference rounds not
    cpu_s: float
    #: per-step walls: decision intervals, service ticks or pool cells
    steps_s: np.ndarray
    #: flows retired per CPU second (stream: after the 25 % mark)
    flows_per_cpu_s: float
    avg_cct_s: float
    #: :func:`reference_s` rounds taken during the pass (see ``cpu_s``)
    ref_samples: List[float] = field(default_factory=list)
    #: median of those and of rounds just before and after the pass
    ref_s: float = REF_S
    #: layer counts a pass reports without tracing
    counters: Dict[str, float] = field(default_factory=dict)
    #: outputs kept for ``check``, dropped by it
    raw: Any = None
    fingerprint: str = ""
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


@contextmanager
def _span(tracer, name):
    """A span around a call the benchmark makes itself (traced run only)."""
    if tracer is None:
        yield
        return
    sid = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(sid)


def cpu_now() -> float:
    """CPU seconds of this process, its threads and its reaped children.

    Children count because the sweep's pool workers do its work; they are
    reaped when ``run_specs`` shuts its pool down, inside the pass.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


_REF_DATA = np.random.default_rng(12345).random(1 << 15)


def reference_s() -> float:
    """CPU seconds of one fixed round of interpreter and numpy work.

    It calls nothing in ``repro``, so only the host moves it: on a shared
    host the CPU time of a fixed piece of work swings by a third within
    seconds as the neighbours' load comes and goes.  A pass takes rounds
    on its own cores while it runs (:class:`RefSampler`) and reports its
    CPU time, less theirs, scaled by ``REF_S`` over their median -- the
    CPU time the pass would take on the quiet host.  The round mixes
    small-array numpy calls and a sort, which alone slow down more than
    the engine does when the host gets busy, with a plain interpreter
    loop, which alone slows down less.
    """
    data = _REF_DATA
    c0 = time.process_time()
    acc: Dict[int, float] = {}
    for i in range(1500):
        chunk = data[(i * 37) & 0x3FFF:][:256]
        acc[i & 127] = acc.get(i & 127, 0.0) + float(np.maximum(chunk, 0.5).sum())
    order = np.argsort(data[:8192], kind="stable")
    np.cumsum(data[order])
    total = 0
    for i in range(80_000):
        total += i * i % 7
    return time.process_time() - c0


class RefSampler:
    """Reference rounds inside a pass, one per ``REF_EVERY_S`` CPU seconds.

    Called between the pass's steps (decisions or service ticks), so the
    rounds see the load the steps see.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = time.process_time() + REF_EVERY_S

    def __call__(self, *_args) -> None:
        if time.process_time() >= self._next:
            self.samples.append(reference_s())
            self._next = time.process_time() + REF_EVERY_S


def sampled_coflows(seed: int, *, ref_dir: str, **kwargs) -> List[Coflow]:
    """:func:`stratified_coflows`, after one reference round in this process
    when ``ref_dir`` exists; the round's time is appended to a file there
    named after the process.  Sweep cells call it in the pool workers."""
    if os.path.isdir(ref_dir):
        took = reference_s()
        with open(os.path.join(ref_dir, str(os.getpid())), "a") as fh:
            fh.write(f"{took!r}\n")
    return stratified_coflows(seed, **kwargs)


def fingerprint(parts) -> str:
    """sha256 of (FCT, CCT, makespan) triples, hashed as ``perfbench`` does."""
    h = hashlib.sha256()
    for fct, cct, makespan in parts:
        h.update(np.ascontiguousarray(fct).tobytes())
        h.update(np.ascontiguousarray(cct).tobytes())
        h.update(np.float64(makespan).tobytes())
    return h.hexdigest()


def stratified_coflows(
    seed: int,
    *,
    num_coflows: int,
    num_ports: int,
    max_width: int,
    sizes: LogNormalSizes,
    arrival_rate: float,
) -> List[Coflow]:
    """Coflows shaped like ``traces.generator.generate_workload``'s, stratified.

    Widths (log-uniform on 1..``max_width``), flow sizes (``sizes``) and
    Poisson inter-arrival gaps are taken at evenly spaced quantiles of
    their laws and shuffled by the seeded generator, which also deals
    every port the same number of flow ends.  A seed then changes which
    coflow gets what and where it goes, but hardly how much work there is
    in total: independent draws made the pass wall of the two heavy-tailed
    workloads spread over a quarter of its median from seed to seed.
    """
    rng = np.random.default_rng(seed)
    u = (np.arange(num_coflows) + 0.5) / num_coflows
    widths = np.minimum(
        np.exp(u * np.log(max_width + 1)).astype(np.int64), max_width
    )
    gaps = -np.log1p(-u) / arrival_rate
    rng.shuffle(widths)
    rng.shuffle(gaps)
    arrivals = np.cumsum(gaps) - gaps[0]
    n_flows = int(widths.sum())
    normal = statistics.NormalDist()
    z = np.array([normal.inv_cdf((j + 0.5) / n_flows) for j in range(n_flows)])
    size = np.clip(sizes.median * np.exp(sizes.sigma * z), sizes.lo, sizes.hi)
    rng.shuffle(size)
    src = rng.permutation(np.arange(n_flows) % num_ports)
    dst = rng.permutation(np.arange(n_flows) % num_ports)
    bounds = np.concatenate(([0], np.cumsum(widths)))
    return [
        Coflow(
            [
                Flow(src=int(s), dst=int(d), size=float(v))
                for s, d, v in zip(src[a:b], dst[a:b], size[a:b])
            ],
            arrival=float(arrivals[k]),
            label=f"cf{k}",
        )
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def _write_inputs(jsonl: Path, bounds: Path, coflows, sim) -> None:
    """Write ``coflows`` as JSONL, plus their bounds under ``sim``'s fabric.

    ``json`` writes the shortest round-trip repr of every float, so the
    file reads back bit for bit.  The JSONL lands last: its presence
    marks a complete input set.
    """
    tmp = bounds.with_name(bounds.stem + ".tmp.npz")
    np.savez(
        tmp,
        label=np.array([c.label for c in coflows]),
        arrival=np.array([c.arrival for c in coflows]),
        width=np.array([c.width for c in coflows], dtype=np.int64),
        gamma=np.array(
            [isolation_gamma(c, sim.fabric, sim.compression) for c in coflows]
        ),
        makespan=np.float64(
            makespan_lower_bound(coflows, sim.fabric, sim.compression)
        ),
    )
    os.replace(tmp, bounds)
    tmp = jsonl.with_name(jsonl.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for c in coflows:
            fh.write(json.dumps(coflow_to_json(c)) + "\n")
    os.replace(tmp, jsonl)


class Bounds:
    """Per-coflow arrival, width and isolation bound of one input."""

    def __init__(self, path: Path) -> None:
        with np.load(path) as data:
            self.arrival = data["arrival"]
            self.width = data["width"]
            self.gamma = data["gamma"]
            self.makespan = float(data["makespan"])
            labels = data["label"].tolist()
        self.index = {label: i for i, label in enumerate(labels)}
        self.n_flows = int(self.width.sum())


def check_store(store, makespan: float, bounds: Bounds, slack: float):
    """Output checks over one result store: ``(failed flows, problems)``."""
    n = bounds.n_flows
    retired = int(np.unique(store.flow_id).size)
    twice = int(store.flow_id.size) - retired
    missing = n - retired
    late = int(np.count_nonzero(store.finish < store.arrival))
    over = int(np.count_nonzero(store.bytes_sent > store.size * (1 + RTOL)))
    pos = np.fromiter(
        (bounds.index.get(label, -1) for label in store.cf_label),
        dtype=np.intp,
        count=len(store.cf_label),
    )
    known = pos >= 0
    at = np.where(known, pos, 0)
    cct = store.cf_finish - store.cf_arrival
    fast = known & (cct < bounds.gamma[at] * (1 - RTOL) - slack)
    moved = known & (store.cf_arrival != bounds.arrival[at])
    bad = ~known | fast | moved
    problems = [
        f"{count} {what}"
        for count, what in (
            (twice, "flows retired twice"),
            (abs(missing), "flows missing" if missing > 0 else "flows extra"),
            (late, "flows finished before arriving"),
            (over, "flows sent more bytes than their size"),
            (int(np.count_nonzero(~known)), "coflows not in the input"),
            (int(np.count_nonzero(fast)), "coflows beat their isolation bound"),
            (int(np.count_nonzero(moved)), "coflows restamped"),
        )
        if count
    ]
    failed = twice + abs(missing) + late + over + int(store.cf_width[bad].sum())
    if makespan < bounds.makespan * (1 - RTOL) - slack:
        problems.append(f"makespan {makespan} below its bound {bounds.makespan}")
        failed = n
    return min(failed, n), problems


def _fill_name(*_args, **kwargs) -> str:
    """FVDF's two priority fills: with ``demands`` (r = V/Γ_C), then backfill."""
    if kwargs.get("demands") is not None:
        return "fvdf.demand_fill"
    return "fvdf.backfill"


def instrument_engine(tracer, sim) -> None:
    """Rebind the engine's layer entry points on ``sim`` (traced run only).

    The view interval runs from the public ``on_decision`` hook to
    ``schedule`` entry; everything else inside ``run`` that is not a
    child span -- validation, claims, horizon, integration, retirement,
    activation and the engine's own recording hooks -- is ``run``'s
    self time, the advance row.
    """
    hook = [0.0]

    def on_decision(_now):
        hook[0] = time.perf_counter()

    def view(_scheduler, _view):
        tracer.interval("engine.view", hook[0], time.perf_counter())

    def decided(_alloc, _scheduler, view):
        tracer.sample("decide.active_flows", view.num_flows)

    def ingested(_out, block):
        tracer.count("ingest.flows", block.n_flows)

    def granted(beta, _engine, want, *_args, **_kwargs):
        tracer.count("fvdf.cores_wanted", int(np.count_nonzero(want)))
        tracer.count("fvdf.cores_granted", int(np.count_nonzero(beta)))

    sim.on_decision(on_decision)
    tracer.wrap(sim, "submit_many", "ingest")
    tracer.wrap(sim, "submit_block", "ingest", after=ingested)
    tracer.wrap(sim, "run", "engine.run")
    # On the classes, not the instances: checkpoints pickle the
    # scheduler, and a wrapper cannot be pickled.
    tracer.wrap(
        type(sim.scheduler), "schedule", "decide", before=view, after=decided
    )
    if sim.compression is not None:
        tracer.wrap(
            type(sim.compression), "grant_cores", "fvdf.grant_cores",
            after=granted,
        )
    tracer.wrap(rate_allocation, "priority_fill", _fill_name)


class _Replay:
    """Batch replay of one seeded trace: ``submit_many`` -> ``run``."""

    name = ""
    policy = ""
    slice_len = 0.0

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.stem = f"{self.name}-{'tiny' if tiny else 'full'}-{seed}-{CODE}"
        self.inputs_path = WORK / f"{self.stem}.jsonl"
        self.bounds_path = WORK / f"{self.stem}.bounds.npz"

    def setup(self) -> ExperimentSetup:
        raise NotImplementedError

    def coflows(self):
        raise NotImplementedError

    def observability(self):
        return None

    def ready(self) -> bool:
        return self.inputs_path.is_file()

    def generate(self) -> None:
        sim = self.setup().build_simulator(make_scheduler(self.policy))
        _write_inputs(self.inputs_path, self.bounds_path, self.coflows(), sim)

    def load(self):
        with open(self.inputs_path, encoding="utf-8") as fh:
            coflows = [coflow_from_json(json.loads(line)) for line in fh]
        return SimpleNamespace(coflows=coflows, bounds=Bounds(self.bounds_path))

    def build(self):
        return self.setup().build_simulator(
            make_scheduler(self.policy), obs=self.observability()
        )

    def teardown(self, sim) -> None:
        pass

    def instrument(self, tracer, sim) -> None:
        instrument_engine(tracer, sim)

    def run(self, sim, inputs, tracer=None) -> Pass:
        marks: List[float] = []
        sample = RefSampler()

        def on_decision(_now):
            marks.append(time.perf_counter())
            if tracer is None:
                sample()

        sim.on_decision(on_decision)
        with _span(tracer, "pass"):
            t0, c0 = time.perf_counter(), cpu_now()
            sim.submit_many(inputs.coflows)
            result = sim.run()
            t_run = time.perf_counter()
            counters = self.finish(sim, result, tracer)
            wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        self.cleanup()
        cpu -= sum(sample.samples)
        wall -= sum(sample.samples)
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            steps_s=np.diff(np.append(marks, t_run)),
            flows_per_cpu_s=result.fct_array.size / cpu,
            avg_cct_s=result.avg_cct,
            ref_samples=sample.samples,
            counters=counters,
            raw=result,
        )

    def finish(self, sim, result, tracer) -> Dict[str, float]:
        """Timed work after ``run`` returns (none for a bare replay)."""
        return {}

    def cleanup(self) -> None:
        pass

    def check(self, out: Pass, inputs) -> None:
        result, out.raw = out.raw, None
        out.fingerprint = fingerprint(
            [(result.fct_array, result.cct_array, result.makespan)]
        )
        out.attempted = inputs.bounds.n_flows
        out.failed, out.problems = check_store(
            result.store, result.makespan, inputs.bounds, self.slice_len
        )


class BurstDecide(_Replay):
    """Decide-bound: a burst keeps thousands of flows active per decision.

    The old ``perfbench`` "large" shape (width 1-64 log-uniform, lognormal
    sizes around 4 MB, 300 arrivals/s on 200 Mbps links, δ = 10 ms), with
    fewer coflows so one pass takes seconds.  Observability is off.
    """

    name = "burst-decide"
    policy = "fvdf"
    slice_len = 0.01

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.num_coflows, self.num_ports, self.max_width = (
            (40, 16, 8) if tiny else (200, 128, 64)
        )

    def setup(self) -> ExperimentSetup:
        return ExperimentSetup(
            num_ports=self.num_ports, bandwidth=mbps(200),
            slice_len=self.slice_len,
        )

    def coflows(self):
        return stratified_coflows(
            self.seed,
            num_coflows=self.num_coflows,
            num_ports=self.num_ports,
            max_width=self.max_width,
            sizes=LogNormalSizes(
                median=4 * MB, sigma=1.0, lo=256 * KB, hi=64 * MB
            ),
            arrival_rate=300.0,
        )


class FbReplay(_Replay):
    """Event-bound: what ``repro trace`` runs, over an FB-like trace.

    ``traces.facebook.synthesize`` on 8 ports at 800 coflows/s under
    ``fvdf-flow``, with ``Observability(trace=True, metrics=True)``; a
    pass ends with the headline metrics and the JSONL trace export.
    """

    name = "fb-replay"
    policy = "fvdf-flow"
    slice_len = 0.2

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.num_coflows = 800 if tiny else 6_000
        self.trace_path = WORK / f"trace-{os.getpid()}.jsonl"

    def setup(self) -> ExperimentSetup:
        return ExperimentSetup(
            num_ports=8, bandwidth=gbps(4), slice_len=self.slice_len
        )

    def coflows(self):
        return synthesize(
            np.random.default_rng(self.seed),
            num_coflows=self.num_coflows,
            num_ports=8,
            arrival_rate=800.0,
            mean_reducer_mb=0.02,
        ).coflows

    def observability(self):
        return Observability(trace=True, metrics=True)

    def finish(self, sim, result, tracer) -> Dict[str, float]:
        with _span(tracer, "results.summary"):
            self.summary = (
                result.avg_fct, result.avg_cct, result.max_cct,
                result.traffic_reduction,
                fct_by_size_bins(result.flow_results, [1e4, 1e5, 1e6]),
            )
        with _span(tracer, "trace.export"):
            records = sim.obs.tracer.dump_jsonl(str(self.trace_path))
        return {
            "trace.records": float(records),
            "trace.bytes": float(self.trace_path.stat().st_size),
        }

    def cleanup(self) -> None:
        self.trace_path.unlink(missing_ok=True)


class StreamServe:
    """Service-bound: a JSONL stream through ``StreamDriver``, as ``repro
    serve`` runs it.

    Poisson arrivals at 2,000 coflows/s of 4 flows x 64 KB on 16 ports
    (4 Gbps, δ = 0.2 s) under ``fvdf-flow``.  A ``JsonlSource`` feeds the
    driver; every tick drains, keeping no shard (the unbounded-service
    set-up), every 25th checkpoints, and a ``TelemetryPlane`` that
    nothing scrapes serves on an ephemeral port.
    """

    name = "stream-serve"
    policy = "fvdf-flow"
    slice_len = 0.2
    #: a whole number of slices: a tick that is not overshoots the slice
    #: grid and restamps arrivals as late
    tick = 0.4

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.num_coflows = 1_500 if tiny else 25_000
        self.checkpoint_every = 5 if tiny else 25
        self.stem = f"{self.name}-{'tiny' if tiny else 'full'}-{seed}-{CODE}"
        self.inputs_path = WORK / f"{self.stem}.jsonl"
        self.bounds_path = WORK / f"{self.stem}.bounds.npz"

    def setup(self) -> ExperimentSetup:
        return ExperimentSetup(
            num_ports=16, bandwidth=gbps(4), slice_len=self.slice_len
        )

    def ready(self) -> bool:
        return self.inputs_path.is_file()

    def generate(self) -> None:
        source = SourceSpec(
            rate=2000.0, num_ports=16, width=4,
            size_dist=ConstantSize(64 * KB), seed=self.seed,
            limit=self.num_coflows,
        ).build()
        coflows = []
        while source.peek() is not None:
            coflows.append(source.pop())
        sim = self.setup().build_simulator(make_scheduler(self.policy))
        _write_inputs(self.inputs_path, self.bounds_path, coflows, sim)

    def load(self):
        """The bounds, and the outputs of one untimed, fully checked pass.

        That pass spills every drained shard to disk for the per-flow
        checks.  The passes that follow keep no shard (``keep_shards``
        off, as an unbounded service runs), so their check is that their
        streaming aggregates equal this pass's bit for bit.
        """
        inputs = SimpleNamespace(bounds=Bounds(self.bounds_path))
        spill_dir = WORK / f"spill-{os.getpid()}"
        shutil.rmtree(spill_dir, ignore_errors=True)
        svc = self.build(spill_dir)
        try:
            out = self.run(svc, inputs)
            store = concat_stores(
                [ResultStore.load_npz(p) for p in svc.driver.shard_paths]
            )
        finally:
            self.teardown(svc)
            shutil.rmtree(spill_dir, ignore_errors=True)
        aggregates = out.raw
        failed, problems = check_store(
            store, aggregates[-1], inputs.bounds, self.slice_len
        )
        inputs.checked = SimpleNamespace(
            aggregates=aggregates,
            fingerprint=fingerprint(
                [(store.finish - store.arrival,
                  store.cf_finish - store.cf_arrival, aggregates[-1])]
            ),
            failed=failed,
            problems=problems,
        )
        return inputs

    def build(self, spill_dir=None):
        setup = self.setup()
        sim = setup.build_simulator(
            make_scheduler(self.policy),
            obs=Observability(trace=False, metrics=True),
        )
        spec = SourceSpec(kind="jsonl", path=str(self.inputs_path))
        ckpt_dir = WORK / f"ckpt-{os.getpid()}"
        driver = StreamDriver(
            sim,
            spec.build(),
            tick=self.tick,
            max_in_flight=50_000,
            drain_every=1,
            spill_dir=spill_dir,
            keep_shards=False,
            checkpoint_path=ckpt_dir / "serve.npz",
            checkpoint_every_ticks=self.checkpoint_every,
            setup=setup,
            source_spec=spec,
            policy=self.policy,
        )
        plane = TelemetryPlane(driver)
        plane.start(port=0)
        return SimpleNamespace(driver=driver, plane=plane, ckpt_dir=ckpt_dir)

    def teardown(self, svc) -> None:
        svc.plane.stop()
        shutil.rmtree(svc.ckpt_dir, ignore_errors=True)

    def instrument(self, tracer, svc) -> None:
        driver = svc.driver
        instrument_engine(tracer, driver.sim)

        def popped(block, *_args, **_kwargs):
            if block is not None:
                tracer.count("arrivals.flows", block.n_flows)

        def drained(store):
            tracer.count("engine.rows_evicted", store.n_flows)

        def checkpointed(path, *_args):
            tracer.count("checkpoint.bytes", os.path.getsize(path))

        tracer.wrap(driver.source, "pop_block", "arrivals.pop_block", after=popped)
        tracer.wrap(driver.sim, "drain_retired", "engine.drain", after=drained)
        tracer.wrap(driver, "checkpoint", "checkpoint", after=checkpointed)
        tracer.wrap(svc.plane, "on_tick", "plane.on_tick")
        tracer.wrap(driver, "tick_once", "driver")
        tracer.wrap(driver, "run", "driver")

    def run(self, svc, inputs, tracer=None) -> Pass:
        driver = svc.driver
        sim = driver.sim
        quarter = 0.25 * inputs.bounds.n_flows
        ticks: List[float] = []
        sample = RefSampler()
        mark = None
        with _span(tracer, "pass"):
            t0, c0 = time.perf_counter(), cpu_now()
            while not driver.exhausted() or sim.pending:
                ts = time.perf_counter()
                driver.tick_once()
                ticks.append(time.perf_counter() - ts)
                if tracer is None:
                    sample()
                if mark is None and sim.retired_flows >= quarter:
                    mark = (cpu_now(), sim.retired_flows, len(sample.samples))
            driver.run()  # nothing left to admit: final drain, plane finished
            t1, c1 = time.perf_counter(), cpu_now()
        # Steady rate: flows retired after the 25 % mark per CPU second.
        c_mark, f_mark, n_mark = mark if mark and c1 > mark[0] else (c0, 0, 0)
        steady_cpu = c1 - c_mark - sum(sample.samples[n_mark:])
        st = driver.stats
        return Pass(
            wall_s=t1 - t0 - sum(sample.samples),
            cpu_s=c1 - c0 - sum(sample.samples),
            steps_s=np.array(ticks),
            flows_per_cpu_s=(sim.retired_flows - f_mark) / steady_cpu,
            avg_cct_s=st.avg_cct,
            ref_samples=sample.samples,
            counters={
                "driver.ticks": float(st.ticks),
                "driver.restamped": float(st.restamped),
                "driver.peak_in_flight": float(st.peak_in_flight),
                "driver.peak_live_rows": float(st.peak_live_rows),
            },
            raw=(
                st.flows_done, st.coflows_done, st.fct_sum, st.cct_sum,
                st.bytes_sent, st.bytes_original, st.restamped, float(sim.now),
            ),
        )

    def check(self, out: Pass, inputs) -> None:
        aggregates, out.raw = out.raw, None
        checked = inputs.checked
        out.attempted = inputs.bounds.n_flows
        out.fingerprint = checked.fingerprint
        out.failed, out.problems = checked.failed, list(checked.problems)
        if aggregates != checked.aggregates:
            out.fingerprint = hashlib.sha256(repr(aggregates).encode()).hexdigest()
            out.failed = out.attempted
            out.problems.append(
                f"aggregates {aggregates} differ from the checked pass's "
                f"{checked.aggregates}"
            )


class SweepGrid:
    """Pool-bound: the 84-cell policy x bandwidth x seed grid.

    Seven policies (FVDF and the six coflow baselines) x 100 Mbps / 1 /
    10 Gbps x four seeds derived from the benchmark seed, ``arrays=True``
    as the Fig. 6(d) CDF sweeps use, through ``run_specs`` on two
    workers against a fresh cache directory (the timed cold pass), then
    one warm re-run against the filled cache.
    """

    name = "sweep-grid"
    policies = ("sebf", "scf", "ncf", "lcf", "pff", "pfp", "fvdf")
    workers = 2
    slice_len = 0.01

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.stem = f"{self.name}-{'tiny' if tiny else 'full'}-{seed}-{CODE}"
        self.bandwidths = (gbps(1),) if tiny else (mbps(100), gbps(1), gbps(10))
        self.seeds = tuple(100 * seed + k for k in range(1 if tiny else 4))
        num_coflows = 8 if tiny else 30
        # Cells regenerate their workload in the worker from (factory,
        # seed), as generated specs do, and in an untraced pass take a
        # reference round there first; the tag names the factory's
        # arguments for the cache digest.
        self.ref_dir = WORK / f"refs-{os.getpid()}"
        self.factory = functools.partial(
            sampled_coflows,
            ref_dir=str(self.ref_dir),
            num_coflows=num_coflows,
            num_ports=16,
            max_width=8,
            sizes=LogNormalSizes(
                median=8 * MB, sigma=1.3, lo=64 * KB, hi=256 * MB
            ),
            arrival_rate=2.0,
        )
        self.tag = f"e2ebench-sweep-v1-{num_coflows}"

    def _setup(self, bandwidth) -> ExperimentSetup:
        return ExperimentSetup(
            num_ports=16, bandwidth=bandwidth, slice_len=self.slice_len
        )

    def cells(self):
        """``(seed, bandwidth, policy)`` of every cell, in spec order."""
        return [
            (s, bw, p)
            for s in self.seeds
            for bw in self.bandwidths
            for p in self.policies
        ]

    def ready(self) -> bool:
        return True  # cells regenerate their workloads from seeds

    def generate(self) -> None:
        pass

    def load(self):
        """Per-(seed, bandwidth) bounds; cell CCTs come without coflow ids,
        so they are compared sorted against the sorted bounds."""
        bounds = {}
        for s in self.seeds:
            coflows = self.factory(s)
            for bw in self.bandwidths:
                sim = self._setup(bw).build_simulator(make_scheduler("fvdf"))
                bounds[s, bw] = SimpleNamespace(
                    n_flows=sum(c.width for c in coflows),
                    gamma=np.sort([
                        isolation_gamma(c, sim.fabric, sim.compression)
                        for c in coflows
                    ]),
                    makespan=makespan_lower_bound(
                        coflows, sim.fabric, sim.compression
                    ),
                )
        return bounds

    def build(self):
        specs = [
            RunSpec(
                policy=p,
                workload=WorkloadSpec.from_callable(
                    self.factory, s, tag=self.tag
                ),
                setup=self._setup(bw),
                key=f"s{s}/bw{bw:g}/{p}",
                arrays=True,
            )
            for s, bw, p in self.cells()
        ]
        cache_dir = WORK / f"sweep-cache-{os.getpid()}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        return SimpleNamespace(
            specs=specs,
            cache_dir=cache_dir,
            cold=ResultCache(root=cache_dir, enabled=True),
            warm=ResultCache(root=cache_dir, enabled=True),
        )

    def teardown(self, grid) -> None:
        shutil.rmtree(grid.cache_dir, ignore_errors=True)

    def instrument(self, tracer, grid) -> None:
        tracer.wrap(grid.cold, "get", "cache.get")
        tracer.wrap(grid.cold, "put", "cache.put")
        tracer.wrap(shm, "attach_arrays", "shm.attach")

    def run(self, grid, inputs, tracer=None) -> Pass:
        before = _shm_segments()
        if tracer is None:
            self.ref_dir.mkdir()
        try:
            with _span(tracer, "pass"):
                t0, c0 = time.perf_counter(), cpu_now()
                with _span(tracer, "pool.run_specs"):
                    cold = run_specs(
                        grid.specs, workers=self.workers, cache=grid.cold
                    )
                wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        finally:
            samples = [
                float(line)
                for path in self.ref_dir.glob("*")
                for line in path.read_text().split()
            ]
            shutil.rmtree(self.ref_dir, ignore_errors=True)
        cpu -= sum(samples)
        wall -= sum(samples) / self.workers  # the rounds ran side by side
        t1 = time.perf_counter()
        warm = run_specs(grid.specs, workers=self.workers, cache=grid.warm)
        warm_s = time.perf_counter() - t1
        leaked = sorted(_shm_segments() - before)
        cell_s = np.array([o.wall_s for o in cold])
        counters = {
            "pool.cells": float(sum(not o.cached for o in cold)),
            "pool.cell_s_sum": float(cell_s.sum()),
            "pool.efficiency": float(cell_s.sum()) / (self.workers * wall),
            "cache.hits": float(grid.warm.hits),
            "cache.misses": float(grid.cold.misses),
            "cache.warm_s": warm_s,
            "shm.cells": float(sum(o.shm_collected for o in cold)),
            "shm.bytes": float(sum(o.shm_bytes for o in cold)),
        }
        for policy in self.policies:
            counters[f"pool.cell_s.{policy}"] = float(sum(
                o.wall_s for o, (_, _, p) in zip(cold, self.cells())
                if p == policy
            ))
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            steps_s=cell_s,
            flows_per_cpu_s=sum(o.summary.num_flows for o in cold) / cpu,
            avg_cct_s=float(np.mean([o.summary.avg_cct for o in cold])),
            ref_samples=samples,
            counters=counters,
            raw=(cold, warm, leaked, grid.cold.misses, grid.warm.hits),
        )

    def check(self, out: Pass, bounds) -> None:
        cold, warm, leaked, misses, hits = out.raw
        out.raw = None
        n = len(cold)
        bad = 0
        parts = []
        for o, w, (s, bw, _) in zip(cold, warm, self.cells()):
            sm, b = o.summary, bounds[s, bw]
            parts.append((sm.fct, sm.cct, sm.makespan))
            ok = (
                not o.cached and w.cached and w.summary == sm
                and sm.num_flows == b.n_flows
                and sm.num_coflows == b.gamma.size
                and bool(np.all(sm.fct >= 0.0))
                and bool(np.all(
                    np.sort(sm.cct) >= b.gamma * (1 - RTOL) - self.slice_len
                ))
                and sm.makespan >= b.makespan * (1 - RTOL) - self.slice_len
                and sm.total_bytes_sent <= sm.total_bytes_original * (1 + RTOL)
            )
            if not ok:
                bad += 1
                out.problems.append(f"cell {o.key} failed its checks")
        if misses != n or hits != n:
            out.problems.append(
                f"cache: {misses} cold misses, {hits} warm hits for {n} cells"
            )
            bad = n
        if leaked:
            out.problems.append(f"{len(leaked)} shm segments left: {leaked}")
            bad = n
        out.attempted = n
        out.failed = bad
        out.fingerprint = fingerprint(parts)


def _shm_segments():
    """Names of the runner's shared-memory segments now in /dev/shm."""
    return set(glob.glob(os.path.join("/dev/shm", shm.SHM_PREFIX + "*")))


WORKLOADS = {
    cls.name: cls for cls in (BurstDecide, FbReplay, StreamServe, SweepGrid)
}


def make(name: str, seed: int, tiny: bool = False):
    """The workload ``name`` at ``seed`` (``tiny``: self-test sizes)."""
    return WORKLOADS[name](seed, tiny)
