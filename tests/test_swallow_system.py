"""The Swallow system layer: message bus, master, worker, Table IV API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.fvdf import FVDFConfig, FVDFScheduler
from repro.core.simulator import SliceSimulator
from repro.cpu.cores import CpuModel
from repro.errors import ConfigurationError, ProtocolError
from repro.fabric.bigswitch import BigSwitch
from repro.obs import Observability
from repro.swallow import (
    BlockId,
    CoflowInfo,
    CoflowRef,
    Executor,
    FlowInfo,
    MeasurementMsg,
    MessageBus,
    SwallowContext,
    SwallowMaster,
    SwallowWorker,
    hook_executor,
)
from repro.swallow.context import CORES_PER_NODE, SLICE_LEN
from repro.units import MB, gbps, mbps


class TestMessageBus:
    def test_publish_subscribe(self):
        bus = MessageBus()
        seen = []
        bus.subscribe("t", seen.append)
        bus.publish("t", 42)
        assert seen == [42]
        assert bus.count("t") == 1
        assert bus.total_messages == 1

    def test_multiple_subscribers(self):
        bus = MessageBus()
        a, b = [], []
        bus.subscribe("t", a.append)
        bus.subscribe("t", b.append)
        bus.publish("t", "x")
        assert a == b == ["x"]

    def test_unrouted_message_raises(self):
        bus = MessageBus()
        with pytest.raises(ProtocolError, match="no subscriber"):
            bus.publish("nobody", 1)

    def test_handler_may_subscribe_during_delivery(self):
        """Regression: publish() iterates a snapshot, so a handler that
        subscribes another handler mid-delivery must not corrupt the
        iteration — the new handler first sees the *next* publish."""
        bus = MessageBus()
        late = []

        def self_subscriber(msg):
            bus.subscribe("t", late.append)

        bus.subscribe("t", self_subscriber)
        bus.publish("t", 1)
        assert late == []  # not delivered mid-iteration
        bus.publish("t", 2)
        assert late == [2]

    def test_handler_may_unsubscribe_itself_during_delivery(self):
        bus = MessageBus()
        seen = []

        def once(msg):
            seen.append(msg)
            bus.unsubscribe("t", once)

        bus.subscribe("t", once)
        bus.subscribe("t", lambda m: None)  # keeps the topic routed
        bus.publish("t", "a")
        bus.publish("t", "b")
        assert seen == ["a"]

    def test_unsubscribe_unknown_handler_raises(self):
        bus = MessageBus()
        with pytest.raises(ProtocolError, match="not subscribed"):
            bus.unsubscribe("t", lambda m: None)


class TestMessages:
    def test_flowinfo_validation(self):
        with pytest.raises(ConfigurationError):
            FlowInfo(flow_id=1, src=0, dst=0, size=0)

    def test_coflowinfo_aggregates(self):
        info = CoflowInfo(
            flows=(
                FlowInfo(1, 0, 1, 10.0),
                FlowInfo(2, 1, 0, 30.0),
            )
        )
        assert info.size == 40.0
        assert info.width == 2

    def test_empty_coflowinfo_rejected(self):
        with pytest.raises(ConfigurationError):
            CoflowInfo(flows=())

    def test_block_ids_unique(self):
        assert BlockId().value != BlockId().value


class TestWorker:
    def test_hook_captures_flows(self):
        ex = Executor(node=0, pending_flows=[Flow(0, 1, 5.0), Flow(0, 2, 7.0)])
        infos = hook_executor(ex)
        assert [i.size for i in infos] == [5.0, 7.0]
        assert all(i.src == 0 for i in infos)

    def test_daemon_report_reaches_master(self):
        bus = MessageBus()
        master = SwallowMaster(bus)
        cpu = CpuModel(2, cores_per_node=4)
        w = SwallowWorker(1, bus)
        msg = w.report(cpu, t=0.0, bandwidth_free=100.0)
        assert isinstance(msg, MeasurementMsg)
        assert master.free_cores(1) == 4

    def test_block_store_roundtrip(self):
        bus = MessageBus()
        w = SwallowWorker(0, bus, real_compression=True)
        ref = CoflowRef(coflow_id=1)
        bid = BlockId()
        payload = b"hello swallow " * 100
        size, compressed = w.store_block(ref, bid, payload, compress=True)
        assert compressed and size < len(payload)
        assert w.fetch_block(ref, bid) == payload
        assert w.stored_blocks == 0

    def test_fetch_unknown_block(self):
        w = SwallowWorker(0, MessageBus())
        with pytest.raises(ProtocolError, match="unknown block"):
            w.fetch_block(CoflowRef(coflow_id=1), BlockId())


def _engine_id(ctx, ref):
    return ctx._live[ref.coflow_id].coflow.coflow_id


def _latest(ctx, kind):
    return [r for r in ctx.obs.recorder if r.kind == kind][-1]


def _assert_plan_is_engine(ctx, refs, plan):
    """The plan's order, Γ_C and P are the recorder's latest ``order``
    record, mapped to refs; its rates sum to the latest ``rates``."""
    ref_of = {_engine_id(ctx, r): r.coflow_id for r in refs}
    units = _latest(ctx, "order").data["units"]
    assert plan.order == tuple(ref_of[u[0]] for u in units)
    assert [(plan.gamma[ref_of[u[0]]], plan.priority[ref_of[u[0]]])
            for u in units] == [(u[1], u[2]) for u in units]
    rates = _latest(ctx, "rates").data
    assert sum(plan.rates.values()) == pytest.approx(rates["total"])
    assert sum(r > 0 for r in plan.rates.values()) == rates["n_tx"]


class TestMaster:
    """The paper's master (§III-B): it registers coflows, and its
    ``scheduling()`` answer is the engine's own FVDF decision."""

    def info(self, size=10.0):
        return CoflowInfo(flows=(FlowInfo(0, 0, 1, size),))

    def make_ctx(self, bandwidth=mbps(100), **kw):
        SwallowContext.reset_instance()
        return SwallowContext(num_nodes=4, bandwidth=bandwidth,
                              obs=Observability(metrics=False), **kw)

    def add(self, ctx, flows, label=""):
        return ctx.add(CoflowInfo(
            flows=tuple(FlowInfo(fid, s, d, size, compressible=c)
                        for fid, s, d, size, c in flows),
            label=label,
        ))

    def finish(self, ctx, ref):
        bid = BlockId()
        ctx.push(ref, bid, b"x")
        ctx.pull(ref, bid)
        ctx.remove(ref)

    def test_add_remove_lifecycle(self):
        master = SwallowMaster(MessageBus())
        ref = master.add(self.info())
        assert master.registered == 1
        master.remove(ref)
        assert master.registered == 0

    def test_remove_unknown(self):
        master = SwallowMaster(MessageBus())
        with pytest.raises(ProtocolError):
            master.remove(CoflowRef(coflow_id=99))

    def test_scheduling_orders_by_gamma(self):
        ctx = self.make_ctx()
        big = self.add(ctx, [(1, 0, 1, 100 * MB, False)])
        small = self.add(ctx, [(2, 0, 1, 1 * MB, False)])
        plan = ctx.scheduling([big, small])
        assert plan.order == (small.coflow_id, big.coflow_id)
        assert plan.gamma[small.coflow_id] < plan.gamma[big.coflow_id]
        _assert_plan_is_engine(ctx, [big, small], plan)

    def test_scheduling_unknown_ref(self):
        ctx = self.make_ctx()
        with pytest.raises(ProtocolError, match="unknown ref"):
            ctx.scheduling([CoflowRef(coflow_id=7)])

    def test_priority_upgrade_reorders(self):
        """An old large coflow starved by small ones ages ×1.2 per starved
        window until it outranks a fresh small one."""
        ctx = self.make_ctx(bandwidth=100.0)
        big = self.add(ctx, [(1, 0, 1, 10_000.0, False)])
        for k in range(40):
            small = self.add(ctx, [(1000 + k, 0, 1, 100.0, False)])
            plan = ctx.scheduling([big, small])
            _assert_plan_is_engine(ctx, [big, small], plan)
            assert plan.priority[big.coflow_id] == pytest.approx(1.2**k)
            if plan.order[0] == big.coflow_id:
                break
            self.finish(ctx, small)
        assert plan.order == (big.coflow_id, small.coflow_id)
        assert plan.gamma[big.coflow_id] > 25 * plan.gamma[small.coflow_id]

    def test_gamma_accounts_for_shared_ports(self):
        """Two flows from one sender: Γ_C is Eq. 8's max of the per-flow
        Eq. 7 estimates, and the granted rates fit the shared port."""
        ctx = self.make_ctx(bandwidth=100.0)
        ref = self.add(ctx, [(1, 0, 1, 200.0, False), (2, 0, 2, 100.0, False)])
        plan = ctx.scheduling([ref])
        assert plan.gamma[ref.coflow_id] == pytest.approx(2.0)
        assert plan.rates[1] + plan.rates[2] == pytest.approx(100.0)
        _assert_plan_is_engine(ctx, [ref], plan)

    def test_beta_respects_eq3(self):
        # 100 Mbps: LZ4 disposes volume faster than the wire; 10 Gbps: not.
        for bandwidth, beta in ((mbps(100), True), (gbps(10), False)):
            ctx = self.make_ctx(bandwidth=bandwidth)
            ref = self.add(ctx, [(5, 0, 1, 10 * MB, True)])
            plan = ctx.scheduling([ref])
            assert plan.compress == {5: beta}
            beta_recs = [r for r in ctx.obs.recorder if r.kind == "beta"]
            assert [r.data["flow_ids"] for r in beta_recs] == ([[5]] if beta else [])
            _assert_plan_is_engine(ctx, [ref], plan)

    def test_beta_respects_daemon_cores(self):
        ctx = self.make_ctx()
        for _ in range(4):
            ctx.cpu.claim(0)  # node 0: zero free cores
        ctx.heartbeat()
        assert ctx.master.free_cores(0) == 0
        ref = self.add(ctx, [(5, 0, 1, 10 * MB, True)])
        plan = ctx.scheduling([ref])
        assert plan.compress == {5: False}
        assert plan.rates[5] == pytest.approx(mbps(100))
        _assert_plan_is_engine(ctx, [ref], plan)

    def test_rates_are_minimal_allocation(self):
        """Disjoint ports: Γ_C = 2 s, so each flow gets at least its
        minimal V/Γ_C rate; backfill then hands out the leftovers."""
        ctx = self.make_ctx(bandwidth=100.0)
        ref = self.add(ctx, [(1, 0, 1, 200.0, False), (2, 3, 2, 100.0, False)])
        plan = ctx.scheduling([ref])
        gamma = plan.gamma[ref.coflow_id]
        assert gamma == pytest.approx(2.0)
        assert plan.rates[1] >= 200.0 / gamma
        assert plan.rates[2] >= 100.0 / gamma
        _assert_plan_is_engine(ctx, [ref], plan)

    def test_two_coflows_on_one_port(self):
        """Regression: A (40 MiB, added first) and B (36 MiB) share one
        100 Mbps port.  The plan ranks B first, the way the engine runs it,
        and never grants the port more than its capacity."""
        ctx = self.make_ctx()
        a = self.add(ctx, [(1, 0, 1, 40 * MB, False)], label="A")
        b = self.add(ctx, [(2, 0, 1, 36 * MB, False)], label="B")
        plan = ctx.scheduling([a, b])
        assert plan.order == (b.coflow_id, a.coflow_id)
        assert plan.rates[1] + plan.rates[2] <= mbps(100) * (1 + 1e-12)
        _assert_plan_is_engine(ctx, [a, b], plan)
        self.finish(ctx, a)
        self.finish(ctx, b)
        cct = {c.label: c.cct for c in ctx.results().coflow_results}
        assert cct["B"] == pytest.approx(3.02)
        assert cct["A"] == pytest.approx(6.38)

    def test_finished_coflow_leaves_the_plan(self):
        ctx = self.make_ctx(bandwidth=100.0)
        a = self.add(ctx, [(1, 0, 1, 100.0, False)])
        b = self.add(ctx, [(2, 2, 3, 1_000.0, False)])
        self.finish(ctx, a)
        plan = ctx.scheduling([b])
        assert plan.order == (b.coflow_id,)
        assert set(plan.rates) == {2}

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.floats(1.0, 500.0), st.booleans()),
            min_size=1, max_size=3,
        ),
        min_size=1, max_size=4,
    ), st.integers(0, 3))
    def test_plan_is_the_engines_order_and_feasible(self, coflows, split):
        """On small instances the plan's order is the recorder's latest
        ``order`` record, and its rates fit every port."""
        ctx = self.make_ctx(bandwidth=100.0)
        ports = {}  # flow id -> (src, dst)
        refs = []
        for k, flows in enumerate(coflows):
            if k == split and refs:
                ctx.scheduling(refs)  # the rest arrive a slice later
            rows = []
            for s, d, size, c in flows:
                ports[len(ports)] = (s, d)
                rows.append((len(ports) - 1, s, d, size, c))
            refs.append(self.add(ctx, rows))
        plan = ctx.scheduling(refs)
        _assert_plan_is_engine(ctx, refs, plan)
        ingress, egress = np.zeros(3), np.zeros(3)
        for fid, rate in plan.rates.items():
            ingress[ports[fid][0]] += rate
            egress[ports[fid][1]] += rate
        assert ingress.max() <= 100.0 * (1 + 1e-9)
        assert egress.max() <= 100.0 * (1 + 1e-9)


class TestSwallowContext:
    def make_ctx(self, **kw):
        SwallowContext.reset_instance()
        defaults = dict(num_nodes=3, bandwidth=1000.0, real_compression=True)
        defaults.update(kw)
        return SwallowContext(**defaults)

    def shuffle_example(self, ctx):
        ex = Executor(node=0, pending_flows=[Flow(0, 1, 500.0), Flow(0, 2, 800.0)])
        infos = ctx.hook(ex)
        cinfo = ctx.aggregate(infos, label="shuffle-0")
        return ctx.add(cinfo), infos

    def test_full_table4_workflow(self):
        ctx = self.make_ctx()
        ref, infos = self.shuffle_example(ctx)
        plan = ctx.scheduling([ref])
        assert set(plan.compress) == {i.flow_id for i in infos}
        ctx.alloc(plan)
        b1, b2 = BlockId(), BlockId()
        ctx.push(ref, b1, b"alpha" * 50)
        ctx.push(ref, b2, b"beta" * 50)
        assert ctx.pull(ref, b1) == b"alpha" * 50
        assert ctx.pull(ref, b2) == b"beta" * 50
        ctx.remove(ref)
        res = ctx.results()
        assert len(res.coflow_results) == 1
        assert ctx.bus.count("master/callback") == 2
        assert ctx.bus.count("worker/alloc") == 3

    def test_singleton(self):
        ctx = self.make_ctx()
        assert SwallowContext.get_instance() is ctx

    def test_push_too_many_blocks(self):
        ctx = self.make_ctx()
        ref, _ = self.shuffle_example(ctx)
        ctx.push(ref, BlockId(), b"x")
        ctx.push(ref, BlockId(), b"y")
        with pytest.raises(ProtocolError, match="more blocks"):
            ctx.push(ref, BlockId(), b"z")

    def test_pull_unpushed_block(self):
        ctx = self.make_ctx()
        ref, _ = self.shuffle_example(ctx)
        with pytest.raises(ProtocolError, match="unpushed"):
            ctx.pull(ref, BlockId())

    def test_remove_before_completion(self):
        ctx = self.make_ctx()
        ref, _ = self.shuffle_example(ctx)
        with pytest.raises(ProtocolError, match="before coflow"):
            ctx.remove(ref)

    def test_heartbeat_updates_master(self):
        ctx = self.make_ctx()
        ctx.cpu.claim(2)
        ctx.heartbeat()
        assert ctx.master.free_cores(2) == CORES_PER_NODE - 1

    def test_compression_shortens_the_shuffle(self):
        """On a thin pipe a shuffle's coflow finishes sooner with
        ``smart_compress``, and its wire bytes follow each flow's
        ``ratio_override``; with it off no byte is saved.  Pulled payloads
        equal the pushed ones either way."""
        cct, saved = {}, {}
        for smart in (False, True):
            ctx = self.make_ctx(bandwidth=5_000.0, smart_compress=smart)
            infos = [FlowInfo(i, 0, i + 1, 20_000.0, ratio_override=0.25)
                     for i in range(2)]
            ref = ctx.add(ctx.aggregate(infos, label="shuffle"))
            ctx.alloc(ctx.scheduling([ref]))
            payloads = {BlockId(): bytes([65 + i]) * 20_000 for i in range(2)}
            for bid, data in payloads.items():
                ctx.push(ref, bid, data)
            for bid, data in payloads.items():
                assert ctx.pull(ref, bid) == data
            ctx.remove(ref)
            (cres,) = ctx.results().coflow_results
            cct[smart] = cres.cct
            saved[smart] = ctx.results().traffic_reduction
        assert saved[False] == 0.0
        assert saved[True] == pytest.approx(0.75, abs=0.05)
        assert cct[True] < cct[False]

    def test_pull_stops_within_a_slice_of_the_finish(self):
        """pull() waits slice by slice: the callback carries the coflow's
        finish, and the clock (so the next add()'s arrival) is at most one
        slice past it."""
        ctx = self.make_ctx(bandwidth=5_000.0, smart_compress=False)
        times = []
        ctx.bus.subscribe("master/callback", lambda msg: times.append(msg.time))
        ref = ctx.add(ctx.aggregate([FlowInfo(0, 0, 1, 19_650.0)]))
        ctx.alloc(ctx.scheduling([ref]))
        bid = BlockId()
        ctx.push(ref, bid, b"x")
        ctx.pull(ref, bid)
        (cres,) = ctx.results().coflow_results
        assert cres.finish == pytest.approx(3.93)
        assert times == [cres.finish]
        nxt = ctx.add(ctx.aggregate([FlowInfo(1, 0, 1, 100.0)]))
        arrival = ctx._live[nxt.coflow_id].coflow.arrival
        for t in (ctx.engine.now, arrival):
            assert cres.finish <= t <= cres.finish + SLICE_LEN + 1e-9

    def test_compression_disabled_by_option(self):
        ctx = self.make_ctx(smart_compress=False)
        ref, infos = self.shuffle_example(ctx)
        plan = ctx.scheduling([ref])
        assert not any(plan.compress.values())

    def test_removed_refs_leave_no_state(self):
        ctx = self.make_ctx()
        for _ in range(3):
            ref, infos = self.shuffle_example(ctx)
            ctx.scheduling([ref])
            blocks = [BlockId() for _ in infos]
            for bid in blocks:
                ctx.push(ref, bid, b"payload")
            for bid in blocks:
                ctx.pull(ref, bid)
            ctx.remove(ref)
        assert ctx._live == {} and ctx._ref_of == {}
        assert ctx.master.registered == 0


def test_context_is_a_thin_wrapper_over_the_engine():
    """A Table IV shuffle of two coflows (one compressible) through
    SwallowContext finishes with the same CCTs, bit for bit, as the same
    coflows submitted to a bare FVDF engine."""
    nodes, bandwidth = 4, 50_000.0
    shuffles = {
        "zip": [Flow(0, 1, 40_000.0), Flow(0, 2, 60_000.0)],
        "raw": [Flow(1, 2, 30_000.0, compressible=False),
                Flow(3, 2, 50_000.0, compressible=False)],
    }
    SwallowContext.reset_instance()
    ctx = SwallowContext(num_nodes=nodes, bandwidth=bandwidth)
    refs = {
        label: ctx.add(ctx.aggregate(
            ctx.hook(Executor(node=flows[0].src, pending_flows=flows)),
            label=label,
        ))
        for label, flows in shuffles.items()
    }
    ctx.alloc(ctx.scheduling(list(refs.values())))
    blocks = {}
    for label, ref in refs.items():
        for f in shuffles[label]:
            blocks[label, f.flow_id] = BlockId()
            ctx.push(ref, blocks[label, f.flow_id], b"x" * int(f.size))
    for label, ref in refs.items():
        for f in shuffles[label]:
            assert len(ctx.pull(ref, blocks[label, f.flow_id])) == int(f.size)
        ctx.remove(ref)

    sim = SliceSimulator(
        BigSwitch(nodes, bandwidth),
        FVDFScheduler(FVDFConfig(compress=True)),
        slice_len=0.01,
        cpu=CpuModel(nodes, cores_per_node=4),
        compression=CompressionEngine("lz4"),
    )
    for label, flows in shuffles.items():
        sim.submit(Coflow(
            [Flow(f.src, f.dst, f.size, compressible=f.compressible)
             for f in flows],
            label=label,
        ))
    bare = {c.label: c.cct for c in sim.run().coflow_results}
    through = {c.label: c.cct for c in ctx.results().coflow_results}
    assert through == bare
    assert ctx.results().traffic_reduction > 0
