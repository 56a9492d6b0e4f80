"""Two-tier oversubscribed fabric (extension)."""

import numpy as np
import pytest

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError, SchedulingError
from repro.fabric import TwoTierFabric
from repro.schedulers import make_scheduler


def fabric(**kw):
    base = dict(num_racks=2, hosts_per_rack=2, bandwidth=1.0, uplink_bandwidth=1.0)
    base.update(kw)
    return TwoTierFabric(**base)


class TestConstruction:
    def test_ports_and_racks(self):
        f = fabric()
        assert f.num_ingress == 4
        assert list(f.rack_of(np.array([0, 1, 2, 3]))) == [0, 0, 1, 1]

    def test_oversubscription_ratio(self):
        f = fabric(hosts_per_rack=4, bandwidth=1.0, uplink_bandwidth=2.0)
        assert f.oversubscription == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TwoTierFabric(0, 2, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            TwoTierFabric(2, 2, 1.0, 0.0)


class TestFeasibility:
    def test_intra_rack_flows_skip_uplinks(self):
        f = fabric(uplink_bandwidth=0.1)
        # hosts 0 -> 1 stay inside rack 0: full host rate is fine.
        f.check_feasible(np.array([0]), np.array([1]), np.array([1.0]))

    def test_inter_rack_flows_capped_by_uplink(self):
        f = fabric(uplink_bandwidth=0.5)
        with pytest.raises(SchedulingError, match="uplink"):
            f.check_feasible(np.array([0]), np.array([2]), np.array([0.8]))

    def test_downlink_shared_by_destination_rack(self):
        f = fabric(uplink_bandwidth=1.0)
        # two flows from different racks... both into rack 1: downlink sums.
        src = np.array([0, 1])
        dst = np.array([2, 3])
        with pytest.raises(SchedulingError, match="uplink|downlink"):
            f.check_feasible(src, dst, np.array([0.7, 0.7]))

    def test_names_the_rack_violator(self):
        """Rack 1's uplink is within tolerance despite the larger
        absolute excess; rack 0's is the violator."""
        f = fabric(bandwidth=1e11, uplink_bandwidth=[1.0, 1e10])
        with pytest.raises(SchedulingError, match="rack 0 uplink oversubscribed"):
            f.check_feasible(
                np.array([0, 2]), np.array([2, 0]), np.array([1.1, 1e10 + 5e3])
            )

    def test_flow_link_cap_reflects_uplink(self):
        f = fabric(uplink_bandwidth=0.25)
        caps = f.flow_link_cap(np.array([0, 0]), np.array([1, 2]))
        assert caps[0] == pytest.approx(1.0)  # intra-rack
        assert caps[1] == pytest.approx(0.25)  # inter-rack via thin uplink

    def test_fresh_extra_groups(self):
        f = fabric()
        extra = f.fresh_extra(np.array([0, 0]), np.array([1, 3]))
        (up, up_caps), (down, down_caps) = extra
        assert list(up) == [-1, 0]
        assert list(down) == [-1, 1]
        up_caps[0] = 0.0  # writable copy
        assert f.uplink.capacity[0] == 1.0


class TestSchedulingOnTwoTier:
    def run(self, scheduler_name, coflows, params=None, **fkw):
        f = fabric(**fkw)
        sim = SliceSimulator(f, make_scheduler(scheduler_name, **(params or {})),
                             slice_len=0.01)
        sim.submit_many(coflows)
        return sim.run()

    @pytest.mark.parametrize(
        "name, params",
        [pytest.param(n, {}, id=n)
         for n in ("fifo", "fair", "srtf", "wss", "sebf", "scf", "dclas", "fvdf")]
        + [pytest.param("sebf", {"rate_policy": "madd"}, id="sebf-madd")],
    )
    def test_policies_respect_uplinks(self, name, params):
        """Every policy completes an inter-rack workload on a thin uplink
        without tripping the engine's feasibility validation."""
        coflows = [
            Coflow([Flow(0, 2, 1.0), Flow(1, 3, 1.0)], arrival=0.0),
            Coflow([Flow(0, 1, 1.0)], arrival=0.0),  # intra-rack
        ]
        res = self.run(name, coflows, params, uplink_bandwidth=0.5)
        assert len(res.coflow_results) == 2

    def test_uplink_slows_inter_rack_traffic(self):
        inter_a = [Coflow([Flow(0, 2, 4.0)])]
        inter_b = [Coflow([Flow(0, 2, 4.0)])]
        slow = self.run("sebf", inter_a, uplink_bandwidth=0.5)
        fast = self.run("sebf", inter_b, uplink_bandwidth=2.0)
        assert slow.avg_cct == pytest.approx(8.0, abs=0.05)
        assert fast.avg_cct == pytest.approx(4.0, abs=0.05)

    def test_intra_rack_unaffected_by_uplink(self):
        coflows = [Coflow([Flow(0, 1, 4.0)])]
        res = self.run("sebf", coflows, uplink_bandwidth=0.01)
        assert res.avg_cct == pytest.approx(4.0, abs=0.05)

    def test_maxmin_shares_uplink(self):
        # two inter-rack flows from different hosts share one 1.0 uplink.
        coflows = [
            Coflow([Flow(0, 2, 2.0)]),
            Coflow([Flow(1, 3, 2.0)]),
        ]
        res = self.run("fair", coflows, uplink_bandwidth=1.0)
        # each gets 0.5 through the uplink: both finish at ~4.
        for c in res.coflow_results:
            assert c.cct == pytest.approx(4.0, abs=0.05)

    def test_fvdf_compresses_through_thin_uplink(self):
        """Oversubscription makes Eq. 3 easier to satisfy: FVDF compresses
        inter-rack traffic that it would send raw on a fat fabric."""
        from repro.compression.codecs import Codec
        from repro.compression.engine import CompressionEngine

        f = fabric(uplink_bandwidth=0.5)
        eng = CompressionEngine(
            Codec("t", speed=2.0, decompression_speed=8.0, ratio=0.5),
            size_dependent=False,
        )
        # R(1-xi) = 1.0 > uplink share 0.5, but < host bandwidth 1.0:
        # only the inter-rack flow should compress.
        sim = SliceSimulator(f, make_scheduler("fvdf"), slice_len=0.01,
                             compression=eng)
        sim.submit(Coflow([Flow(0, 2, 4.0)], label="inter"))
        sim.submit(Coflow([Flow(1, 1, 4.0)], label="intra"))
        res = sim.run()
        by_label = {c.label: c for c in res.coflow_results}
        assert by_label["inter"].bytes_sent < 4.0 - 0.5
        assert by_label["intra"].bytes_sent == pytest.approx(4.0)
