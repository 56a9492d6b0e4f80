"""Slice-based engine semantics."""

import numpy as np
import pytest

from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.scheduler import Allocation, CoflowState, Scheduler
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import FlowFAIR, FlowFIFO, make_scheduler


def one_flow_coflow(size=4.0, src=0, dst=0, arrival=0.0, **kw):
    return Coflow([Flow(src=src, dst=dst, size=size, **kw)], arrival=arrival)


class FullRate(Scheduler):
    """Give every flow its full end-to-end capacity (test fixture; only
    valid when flows never share ports)."""

    name = "full-rate"

    def schedule(self, view):
        return Allocation(rates=view.link_cap.copy())


class AlwaysCompress(Scheduler):
    """Compress any flow with raw bytes left, transmit the rest."""

    name = "always-compress"
    uses_compression = True

    def schedule(self, view):
        want = view.compressible & (view.raw > 0)
        beta = view.compression.grant_cores(want, view.src, view.free_cores)
        rates = np.where(beta, 0.0, view.link_cap)
        return Allocation(rates=rates, compress=beta)


class TestBasicRuns:
    def test_single_flow_fct(self):
        sw = BigSwitch(1, bandwidth=1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        sim.submit(one_flow_coflow(size=4.0))
        res = sim.run()
        assert len(res.flow_results) == 1
        fr = res.flow_results[0]
        assert fr.fct == pytest.approx(4.0)
        assert fr.finish_physical == pytest.approx(4.0)
        assert fr.bytes_sent == pytest.approx(4.0)
        assert res.avg_cct == pytest.approx(4.0)

    def test_arrival_snaps_to_slice_grid(self):
        sw = BigSwitch(1, bandwidth=1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.5)
        sim.submit(one_flow_coflow(size=1.0, arrival=0.3))
        res = sim.run()
        fr = res.flow_results[0]
        # activates at 0.5; transmits 1 s; observed at boundary 1.5.
        assert fr.start == pytest.approx(0.5)
        assert fr.finish == pytest.approx(1.5)
        assert fr.fct == pytest.approx(1.2)

    def test_subslice_flow_pays_slice_waste(self):
        """A flow much smaller than one slice still occupies a whole slice —
        the time-slice waste the paper describes (Section VI-A1)."""
        sw = BigSwitch(1, bandwidth=1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=1.0)
        sim.submit(one_flow_coflow(size=0.01))
        res = sim.run()
        fr = res.flow_results[0]
        assert fr.finish_physical == pytest.approx(0.01)
        assert fr.finish == pytest.approx(1.0)  # observed a full slice later

    def test_makespan_and_decision_points(self):
        sw = BigSwitch(2, bandwidth=1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        sim.submit(one_flow_coflow(size=1.0, src=0, dst=0))
        sim.submit(one_flow_coflow(size=2.0, src=1, dst=1))
        res = sim.run()
        assert res.makespan == pytest.approx(2.0)
        assert res.decision_points >= 2

    def test_sequential_coflows_on_one_port(self):
        sw = BigSwitch(1, bandwidth=2.0)
        sim = SliceSimulator(sw, FlowFIFO(), slice_len=0.01)
        sim.submit(one_flow_coflow(size=2.0, arrival=0.0))
        sim.submit(one_flow_coflow(size=2.0, arrival=0.0))
        res = sim.run()
        fcts = sorted(f.fct for f in res.flow_results)
        assert fcts == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_volume_conservation_without_compression(self):
        sw = BigSwitch(2, bandwidth=1.0)
        sim = SliceSimulator(sw, FlowFAIR(), slice_len=0.01)
        cof = Coflow([Flow(0, 0, 3.0), Flow(1, 1, 5.0), Flow(0, 1, 2.0)])
        sim.submit(cof)
        res = sim.run()
        for fr in res.flow_results:
            assert fr.bytes_sent == pytest.approx(fr.size)
        assert res.traffic_reduction == pytest.approx(0.0)

    def test_port_byte_accounting(self):
        sw = BigSwitch(2, bandwidth=1.0)
        sim = SliceSimulator(sw, FlowFAIR(), slice_len=0.01)
        sim.submit(Coflow([Flow(0, 0, 3.0), Flow(1, 1, 5.0), Flow(0, 1, 2.0)]))
        res = sim.run()
        assert np.allclose(res.ingress_bytes, [5.0, 5.0])
        assert np.allclose(res.egress_bytes, [3.0, 7.0])
        u_in, u_out = res.port_utilization(sw.ingress.capacity, sw.egress.capacity)
        # egress 1 carries 7 bytes over the 7 s makespan at 1 B/s: ~100%.
        assert u_out[1] == pytest.approx(1.0, abs=0.02)
        assert np.all(u_in <= 1.0 + 1e-9)


class TestHeterogeneousFabrics:
    def test_asymmetric_port_counts_end_to_end(self):
        """A 2-ingress x 3-egress shuffle view runs fine."""
        sw = BigSwitch(num_ports=2, bandwidth=1.0, num_egress_ports=3)
        sim = SliceSimulator(sw, FlowFAIR(), slice_len=0.01)
        sim.submit(Coflow([Flow(0, 2, 2.0), Flow(1, 0, 2.0), Flow(0, 1, 2.0)]))
        res = sim.run()
        assert len(res.flow_results) == 3
        # ingress 0 carries 4 bytes at 1 B/s: finish no earlier than 4 s.
        assert res.makespan >= 4.0 - 1e-9

    def test_heterogeneous_port_speeds(self):
        """A slow egress port is the bottleneck for its flow only."""
        sw = BigSwitch(num_ports=2, bandwidth=[4.0, 4.0],
                       egress_bandwidth=[4.0, 1.0])
        sim = SliceSimulator(sw, FlowFAIR(), slice_len=0.01)
        fast = Coflow([Flow(0, 0, 4.0)], label="fast")
        slow = Coflow([Flow(1, 1, 4.0)], label="slow")
        sim.submit_many([fast, slow])
        res = sim.run()
        cct = {c.label: c.cct for c in res.coflow_results}
        assert cct["fast"] == pytest.approx(1.0, abs=0.05)
        assert cct["slow"] == pytest.approx(4.0, abs=0.05)


class TestCallbacksAndIncremental:
    def test_coflow_completion_callback(self):
        sw = BigSwitch(1, 1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        done = []
        sim.on_coflow_complete(lambda cr: done.append(cr.coflow_id))
        c = one_flow_coflow(size=1.0)
        sim.submit(c)
        sim.run()
        assert done == [c.coflow_id]

    def test_flow_completion_callback(self):
        sw = BigSwitch(1, 1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        seen = []
        sim.on_flow_complete(lambda fr: seen.append(fr.flow_id))
        sim.submit(one_flow_coflow(size=1.0))
        sim.run()
        assert len(seen) == 1

    def test_incremental_run_and_submit(self):
        sw = BigSwitch(1, 1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        sim.submit(one_flow_coflow(size=1.0))
        sim.run(until=0.5)
        assert sim.now == pytest.approx(0.5)
        sim.submit(one_flow_coflow(size=1.0, arrival=2.0))
        res = sim.run()
        assert len(res.flow_results) == 2
        assert res.makespan == pytest.approx(3.0)

    def test_submit_in_the_past_rejected(self):
        sw = BigSwitch(1, 1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        sim.submit(one_flow_coflow(size=1.0))
        sim.run()
        with pytest.raises(ConfigurationError, match="arrives at"):
            sim.submit(one_flow_coflow(size=1.0, arrival=0.0))

    def test_double_submit_rejected(self):
        sw = BigSwitch(1, 1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        c = one_flow_coflow()
        sim.submit(c)
        with pytest.raises(ConfigurationError, match="twice"):
            sim.submit(c)

    def test_run_until_before_any_arrival(self):
        sw = BigSwitch(1, 1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        sim.submit(one_flow_coflow(size=1.0, arrival=10.0))
        res = sim.run(until=5.0)
        assert res.flow_results == []
        assert sim.now <= 5.0 + 1e-9

    def test_run_until_advances_an_idle_engine(self):
        # ``run(until=t)`` means the clock reaches t even with nothing to
        # simulate — an incremental caller's next horizon (now + tick) must
        # keep moving, or a driver waiting out an arrival gap livelocks.
        sw = BigSwitch(1, 1.0)
        sim = SliceSimulator(sw, FullRate(), slice_len=0.01)
        sim.run(until=3.0)
        assert sim.now == pytest.approx(3.0)
        sim.submit(one_flow_coflow(size=1.0, arrival=5.0))
        res = sim.run()
        assert res.makespan == pytest.approx(6.0)


class TestCompressionSemantics:
    def engine(self, speed=2.0, ratio=0.5):
        return CompressionEngine(
            Codec("t", speed=speed, decompression_speed=speed * 4, ratio=ratio),
            size_dependent=False,
        )

    def test_compression_reduces_bytes_sent(self):
        sw = BigSwitch(1, bandwidth=1.0)
        sim = SliceSimulator(
            sw, AlwaysCompress(), slice_len=0.01, compression=self.engine()
        )
        sim.submit(one_flow_coflow(size=4.0))
        res = sim.run()
        fr = res.flow_results[0]
        # fully compressed before transmitting: 2 s compress + 2 s transmit
        assert fr.bytes_sent == pytest.approx(2.0)
        assert fr.bytes_compressed_in == pytest.approx(4.0)
        assert fr.fct == pytest.approx(4.0)
        assert res.traffic_reduction == pytest.approx(0.5)

    def test_fast_compression_beats_plain_transmit(self):
        """R(1-xi) > B: compress-then-send is quicker than sending raw."""
        sw = BigSwitch(1, bandwidth=1.0)
        eng = self.engine(speed=8.0, ratio=0.5)
        sim = SliceSimulator(sw, AlwaysCompress(), slice_len=0.01, compression=eng)
        sim.submit(one_flow_coflow(size=4.0))
        res = sim.run()
        # 0.5 s to compress 4 -> 2, then 2 s to send.
        assert res.flow_results[0].fct == pytest.approx(2.5)

    def test_incompressible_flow_never_compressed(self):
        sw = BigSwitch(1, bandwidth=1.0)
        sim = SliceSimulator(
            sw, AlwaysCompress(), slice_len=0.01, compression=self.engine()
        )
        sim.submit(Coflow([Flow(0, 0, 4.0, compressible=False)]))
        res = sim.run()
        assert res.flow_results[0].bytes_sent == pytest.approx(4.0)

    def test_volume_conservation_with_compression(self):
        sw = BigSwitch(1, bandwidth=1.0)
        sim = SliceSimulator(
            sw, AlwaysCompress(), slice_len=0.01, compression=self.engine(ratio=0.25)
        )
        sim.submit(one_flow_coflow(size=8.0))
        res = sim.run()
        fr = res.flow_results[0]
        # sent == raw portion + compressed_in * ratio
        raw_sent = fr.size - fr.bytes_compressed_in
        assert fr.bytes_sent == pytest.approx(raw_sent + fr.bytes_compressed_in * 0.25)

    def test_cpu_claims_sampled(self):
        sw = BigSwitch(1, bandwidth=1.0)
        from repro.cpu.cores import CpuModel

        cpu = CpuModel(1, cores_per_node=2)
        sim = SliceSimulator(
            sw, AlwaysCompress(), slice_len=0.01, cpu=cpu,
            compression=self.engine(), sample_cpu=True,
        )
        sim.submit(one_flow_coflow(size=4.0))
        res = sim.run()
        assert res.cpu_recorder is not None
        assert res.cpu_recorder.busy.max() == pytest.approx(0.5)  # 1 of 2 cores
        # all claims released at the end
        assert cpu.free_cores(res.makespan)[0] == 2


class BadScheduler(Scheduler):
    name = "bad"

    def __init__(self, alloc_fn):
        self.alloc_fn = alloc_fn

    def schedule(self, view):
        return self.alloc_fn(view)


class TestValidation:
    def sim(self, scheduler, compression=None):
        sw = BigSwitch(1, bandwidth=1.0)
        s = SliceSimulator(sw, scheduler, slice_len=0.01, compression=compression)
        s.submit(one_flow_coflow(size=4.0))
        return s

    def test_wrong_length_rejected(self):
        s = self.sim(BadScheduler(lambda v: Allocation(rates=np.zeros(5))))
        with pytest.raises(SchedulingError, match="length"):
            s.run()

    def test_oversubscription_rejected(self):
        s = self.sim(BadScheduler(lambda v: Allocation(rates=np.full(v.num_flows, 2.0))))
        with pytest.raises(SchedulingError, match="oversubscribed"):
            s.run()

    def test_nonfinite_rejected(self):
        s = self.sim(BadScheduler(lambda v: Allocation(rates=np.full(v.num_flows, np.nan))))
        with pytest.raises(SchedulingError, match="non-finite"):
            s.run()

    def test_compress_and_transmit_rejected(self):
        class Both(Scheduler):
            name = "both"
            uses_compression = True

            def schedule(self, view):
                return Allocation(
                    rates=np.ones(view.num_flows),
                    compress=np.ones(view.num_flows, dtype=bool),
                )

        sw = BigSwitch(1, bandwidth=1.0)
        s = SliceSimulator(sw, Both(), slice_len=0.01)
        s.submit(one_flow_coflow(size=4.0))
        with pytest.raises(SchedulingError, match="exclusive"):
            s.run()

    def test_compression_without_engine_rejected(self):
        def alloc(v):
            return Allocation(
                rates=np.zeros(v.num_flows), compress=np.ones(v.num_flows, dtype=bool)
            )

        s = self.sim(BadScheduler(alloc), compression=None)
        with pytest.raises(SchedulingError, match="no compression engine"):
            s.run()

    def test_core_budget_enforced(self):
        class Greedy(Scheduler):
            name = "greedy-compress"
            uses_compression = True

            def schedule(self, view):
                # ask to compress more flows than node 0 has cores
                return Allocation(
                    rates=np.zeros(view.num_flows),
                    compress=np.ones(view.num_flows, dtype=bool),
                )

        from repro.cpu.cores import CpuModel

        sw = BigSwitch(1, bandwidth=1.0)
        s = SliceSimulator(sw, Greedy(), slice_len=0.01, cpu=CpuModel(1, cores_per_node=1))
        s.submit(Coflow([Flow(0, 0, 4.0), Flow(0, 0, 4.0)]))
        with pytest.raises(SchedulingError, match="free cores"):
            s.run()

    def test_stall_detected(self):
        s = self.sim(BadScheduler(lambda v: Allocation(rates=np.zeros(v.num_flows))))
        with pytest.raises(SimulationError, match="cannot advance"):
            s.run()

    @pytest.mark.parametrize(
        "attr", ["flow_ids", "size", "coflows", "free_cores"]
    )
    def test_view_read_after_its_decision_rejected(self, attr):
        """An engine view reads the engine's current store, so a first
        read of a lazy attribute once its decision is over fails."""
        views = []

        def keep(view):
            views.append(view)
            if len(views) > 1:
                getattr(views[0], attr)
            return Allocation(rates=view.link_cap.copy())

        s = self.sim(BadScheduler(keep))
        s.submit(one_flow_coflow(size=1.0, arrival=1.0))
        with pytest.raises(SimulationError, match=f"view.{attr} first read"):
            s.run()

    def test_cpu_fabric_shape_mismatch(self):
        from repro.cpu.cores import CpuModel

        sw = BigSwitch(2, bandwidth=1.0)
        with pytest.raises(ConfigurationError, match="ingress ports"):
            SliceSimulator(sw, FullRate(), cpu=CpuModel(5))

    def test_bad_slice_len(self):
        sw = BigSwitch(1, 1.0)
        with pytest.raises(ConfigurationError):
            SliceSimulator(sw, FullRate(), slice_len=0.0)


class TestCoflowStatesOnlyWhenRead:
    """The engine builds no per-coflow objects for a policy that does not
    walk ``view.coflows``: FVDF keeps P and its served flags in engine
    columns, and the coflow-level baselines rank coflow columns."""

    @pytest.mark.parametrize(
        "policy, builds",
        [("fvdf", False), ("fvdf-flow", False), ("sebf", False),
         ("scf", False), ("ncf", False), ("lcf", False),
         ("coflow-fifo", False), ("dclas", True), ("sincronia", True)],
    )
    def test_coflow_state_constructions(self, monkeypatch, policy, builds):
        built = []
        init = CoflowState.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoflowState, "__init__", counting)
        sim = SliceSimulator(BigSwitch(3, 1.0), make_scheduler(policy))
        sim.submit_many([
            Coflow([Flow(i % 3, (i + 1) % 3, 0.5 + i), Flow(i % 3, i % 3, 1.0)],
                   arrival=0.1 * i)
            for i in range(6)
        ])
        result = sim.run()
        assert len(result.coflow_results) == 6
        assert sim._decision_points > 1
        assert bool(built) == builds
