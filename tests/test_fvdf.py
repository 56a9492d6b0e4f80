"""FVDF algorithm: compression strategy, Eq. 7 estimates, starvation freedom."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.fvdf import FVDFConfig, FVDFScheduler
from repro.core.simulator import SliceSimulator
from repro.cpu.cores import CpuModel
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.units import gbps, mbps


def engine(speed=4.0, ratio=0.5):
    return CompressionEngine(
        Codec("t", speed=speed, decompression_speed=speed * 4, ratio=ratio),
        size_dependent=False,
    )


def run_fvdf(coflows, bandwidth=1.0, n_ports=4, config=None, eng=None,
             cores=2, slice_len=0.01, background=None):
    fabric = BigSwitch(n_ports, bandwidth)
    sim = SliceSimulator(
        fabric,
        FVDFScheduler(config or FVDFConfig()),
        slice_len=slice_len,
        cpu=CpuModel(n_ports, cores_per_node=cores, background=background),
        compression=eng or engine(speed=4.0 * bandwidth),
    )
    sim.submit_many(coflows)
    return sim.run()


class TestConfig:
    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            FVDFConfig(rate_policy="magic")

    def test_rejects_bad_granularity(self):
        with pytest.raises(ConfigurationError):
            FVDFConfig(granularity="job")

    def test_rejects_logbase_below_one(self):
        with pytest.raises(ConfigurationError):
            FVDFConfig(logbase=0.9)

    def test_name_reflects_compression(self):
        assert FVDFScheduler(FVDFConfig(compress=False)).name == "fvdf-nocompress"
        assert FVDFScheduler().name == "fvdf"

    def test_rejects_bad_aging(self):
        with pytest.raises(ConfigurationError):
            FVDFConfig(aging="wishful")

    def test_reset_clears_service_memory(self):
        """The last decision is the scheduler's only memory: P and the
        served flags live in the engine's coflow columns."""
        s = FVDFScheduler()
        sim = SliceSimulator(BigSwitch(2, 1.0), s, slice_len=0.01)
        sim.submit(Coflow([Flow(0, 1, 1.0)]))
        sim.run()
        assert s.last is not None
        s.reset()
        assert s.last is None
        assert set(s.__getstate__()) == {"config", "name", "last"}


class TestEq3Gate:
    def test_compression_disabled_on_fat_links(self):
        """At 10 Gbps, LZ4's R(1-xi) < B, so FVDF must not compress — the
        paper's explanation for FVDF ≈ SEBF at high bandwidth."""
        eng = CompressionEngine("lz4", size_dependent=False)
        c = Coflow([Flow(0, 0, 1e9)])
        res = run_fvdf([c], bandwidth=gbps(10), eng=eng)
        assert res.traffic_reduction == pytest.approx(0.0)

    def test_compression_enabled_on_thin_links(self):
        eng = CompressionEngine("lz4", size_dependent=False)
        c = Coflow([Flow(0, 0, 1e8)])
        res = run_fvdf([c], bandwidth=mbps(100), eng=eng)
        assert res.traffic_reduction > 0.3

    def test_no_cores_no_compression(self):
        c = Coflow([Flow(0, 0, 8.0)])
        res = run_fvdf([c], background=lambda t: 1.0)  # all cores busy
        assert res.traffic_reduction == pytest.approx(0.0)

    def test_master_switch(self):
        c = Coflow([Flow(0, 0, 8.0)])
        res = run_fvdf([c], config=FVDFConfig(compress=False))
        assert res.traffic_reduction == pytest.approx(0.0)


class TestOrdering:
    def test_smaller_gamma_first(self):
        small = Coflow([Flow(0, 0, 1.0)], label="small")
        big = Coflow([Flow(0, 0, 50.0)], label="big")
        res = run_fvdf([big, small], config=FVDFConfig(compress=False))
        cct = {c.label: c.cct for c in res.coflow_results}
        assert cct["small"] < cct["big"]
        assert cct["small"] == pytest.approx(1.0, abs=0.05)

    def test_work_conservation_on_disjoint_ports(self):
        a = Coflow([Flow(0, 0, 4.0)])
        b = Coflow([Flow(1, 1, 4.0)])
        res = run_fvdf([a, b], config=FVDFConfig(compress=False))
        # disjoint ports: both finish in ~4 s, nobody waits
        for c in res.coflow_results:
            assert c.cct == pytest.approx(4.0, abs=0.05)

    @pytest.mark.parametrize("policy", ["minimal", "greedy", "madd"])
    def test_all_rate_policies_complete(self, policy):
        coflows = [
            Coflow([Flow(0, 0, 3.0), Flow(1, 1, 2.0)], arrival=0.0),
            Coflow([Flow(0, 1, 2.0)], arrival=0.5),
        ]
        res = run_fvdf(coflows, config=FVDFConfig(rate_policy=policy))
        assert len(res.coflow_results) == 2


class TestStarvationFreedom:
    def stream_of_small_coflows(self, n=40, period=1.0, size=0.9):
        """Small coflows arriving continuously on port 0, each taking just
        under `period` seconds — would starve a big coflow forever under
        pure smallest-first."""
        return [
            Coflow([Flow(0, 0, size)], arrival=k * period, label=f"s{k}")
            for k in range(n)
        ]

    def test_priority_classes_prevent_starvation(self):
        big = Coflow([Flow(0, 0, 5.0)], arrival=0.0, label="big")
        coflows = [big] + self.stream_of_small_coflows()
        res = run_fvdf(coflows, config=FVDFConfig(compress=False, logbase=1.2))
        cct = {c.label: c.cct for c in res.coflow_results}
        # With upgrades the big coflow finishes long before the stream ends.
        assert cct["big"] < 25.0

    def test_without_upgrades_big_coflow_starves(self):
        big = Coflow([Flow(0, 0, 5.0)], arrival=0.0, label="big")
        coflows = [big] + self.stream_of_small_coflows()
        res = run_fvdf(coflows, config=FVDFConfig(compress=False, logbase=1.0))
        cct = {c.label: c.cct for c in res.coflow_results}
        starved = {
            c.label: c.cct
            for c in run_fvdf(
                coflows_clone(coflows),
                config=FVDFConfig(compress=False, logbase=1.0),
            ).coflow_results
        }
        # Pure SRTF-like ordering: the big coflow waits for the whole stream.
        assert starved["big"] > 35.0

    @pytest.mark.parametrize("aging", ["starved", "paper"])
    def test_aging_policies_prevent_starvation(self, aging):
        big = Coflow([Flow(0, 0, 5.0)], arrival=0.0, label="big")
        coflows = [big] + self.stream_of_small_coflows()
        res = run_fvdf(
            coflows, config=FVDFConfig(compress=False, logbase=1.2, aging=aging)
        )
        cct = {c.label: c.cct for c in res.coflow_results}
        assert cct["big"] < 25.0, aging

    def test_starved_aging_spares_served_coflows(self):
        """Coflows on disjoint ports all receive service, so nobody ages —
        ordering stays pure Shortest-Γ-First."""
        a = Coflow([Flow(0, 0, 4.0)], label="a")
        b = Coflow([Flow(1, 1, 4.0)], label="b")
        res = run_fvdf([a, b], config=FVDFConfig(compress=False, aging="starved"))
        for c in res.coflow_results:
            assert c.cct == pytest.approx(4.0, abs=0.05)

    def test_upgrade_strictly_helps_the_big_coflow(self):
        big1 = Coflow([Flow(0, 0, 5.0)], arrival=0.0, label="big")
        stream1 = self.stream_of_small_coflows()
        with_up = run_fvdf(
            [big1] + stream1, config=FVDFConfig(compress=False, logbase=1.2)
        )
        big2 = Coflow([Flow(0, 0, 5.0)], arrival=0.0, label="big")
        stream2 = self.stream_of_small_coflows()
        without = run_fvdf(
            [big2] + stream2, config=FVDFConfig(compress=False, logbase=1.0)
        )
        cct_with = {c.label: c.cct for c in with_up.coflow_results}["big"]
        cct_without = {c.label: c.cct for c in without.coflow_results}["big"]
        assert cct_with < cct_without


def coflows_clone(coflows):
    """Fresh Coflow objects with the same shape (ids must be unique)."""
    out = []
    for c in coflows:
        out.append(
            Coflow(
                [Flow(f.src, f.dst, f.size, compressible=f.compressible)
                 for f in c.flows],
                arrival=c.arrival,
                label=c.label,
            )
        )
    return out


class TestFlowGranularity:
    def test_flow_mode_matches_srtf_shape(self):
        """In flow mode without compression, FVDF orders by expected FCT —
        effectively SRTF."""
        from repro.schedulers import FlowSRTF

        coflows = [
            Coflow([Flow(0, 0, 5.0), Flow(0, 0, 1.0)], arrival=0.0),
        ]
        cfg = FVDFConfig(compress=False, granularity="flow", logbase=1.0)
        res = run_fvdf(coflows, config=cfg)
        fct = sorted(f.fct for f in res.flow_results)
        assert fct[0] == pytest.approx(1.0, abs=0.05)
        assert fct[1] == pytest.approx(6.0, abs=0.05)


class TestCompressionScheduling:
    def test_traffic_reduction_close_to_ratio(self):
        """Slow network + fast codec: nearly everything is compressed, so
        the traffic reduction approaches 1 - ratio."""
        c = Coflow([Flow(0, 0, 100.0)])
        res = run_fvdf([c], eng=engine(speed=50.0, ratio=0.4))
        assert res.traffic_reduction == pytest.approx(0.6, abs=0.05)

    def test_fvdf_with_compression_beats_without(self):
        coflows_a = [Coflow([Flow(0, 0, 20.0), Flow(1, 1, 10.0)], arrival=0.0)]
        coflows_b = coflows_clone(coflows_a)
        with_c = run_fvdf(coflows_a, eng=engine(speed=8.0, ratio=0.5))
        without = run_fvdf(coflows_b, config=FVDFConfig(compress=False))
        assert with_c.avg_cct < without.avg_cct


class TestUnitGammas:
    def test_segment_max_empty_segment_quirk(self, monkeypatch):
        """Γ per unit is ``np.maximum.reduceat`` over the unit offsets:
        a zero-length segment reproduces reduceat's documented
        behaviour (``out[i] = values[perm][starts[i]]``)."""
        from repro.core import fvdf

        values = np.array([5.0, -2.0, 7.0, 1.0])
        monkeypatch.setattr(fvdf, "expected_fct", lambda view, beta: values)
        perm = np.arange(4, dtype=np.intp)
        starts = np.array([0, 2, 2, 4], dtype=np.intp)  # middle segment empty
        got = FVDFScheduler()._unit_gammas(None, None, perm, starts)
        assert np.array_equal(got, np.array([5.0, 7.0, 7.0]))


@given(
    st.lists(st.integers(0, 5), min_size=0, max_size=12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_flows_in_unit_order_is_the_concatenation(lengths, rnd):
    """The O(n) gather lists each unit's flows, units in ``order``."""
    starts = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
    perm = np.array(rnd.sample(range(int(starts[-1])), int(starts[-1])),
                    dtype=np.intp)
    order = np.array(rnd.sample(range(len(lengths)), len(lengths)),
                     dtype=np.intp)
    want = [perm[starts[u]:starts[u + 1]] for u in order]
    want = np.concatenate(want) if want else np.empty(0, dtype=np.intp)
    got = FVDFScheduler._flows_in_unit_order(perm, starts, order)
    assert np.array_equal(got, want)
