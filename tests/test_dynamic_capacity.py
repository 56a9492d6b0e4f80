"""Dynamic port capacity: scheduled bandwidth changes mid-run."""

import pytest

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.fabric.ports import PortSet
from repro.schedulers import make_scheduler
from repro.units import mbps


def make_sim(bandwidth=1.0, scheduler="sebf"):
    return SliceSimulator(
        BigSwitch(2, bandwidth), make_scheduler(scheduler), slice_len=0.01
    )


class TestPortSetUpdate:
    def test_set_capacity(self):
        ps = PortSet(2, 1.0)
        ps.set_capacity(1, 5.0)
        assert list(ps.capacity) == [1.0, 5.0]

    def test_validation(self):
        ps = PortSet(2, 1.0)
        with pytest.raises(ConfigurationError):
            ps.set_capacity(5, 1.0)
        with pytest.raises(ConfigurationError):
            ps.set_capacity(0, 0.0)

    def test_stays_readonly(self):
        ps = PortSet(1, 1.0)
        ps.set_capacity(0, 2.0)
        with pytest.raises(ValueError):
            ps.capacity[0] = 9.0


class TestScheduledChanges:
    def test_slowdown_delays_completion(self):
        """8 bytes at 1 B/s, but the link drops to 0.5 B/s at t=4:
        4 bytes fast + 4 bytes slow = 4 + 8 = 12 s."""
        sim = make_sim()
        sim.submit(Coflow([Flow(0, 0, 8.0)]))
        sim.schedule_capacity_change(4.0, "ingress", 0, 0.5)
        sim.schedule_capacity_change(4.0, "egress", 0, 0.5)
        res = sim.run()
        assert res.flow_results[0].fct == pytest.approx(12.0, abs=0.05)

    def test_speedup_accelerates_completion(self):
        sim = make_sim()
        sim.submit(Coflow([Flow(0, 0, 8.0)]))
        sim.schedule_capacity_change(4.0, "ingress", 0, 4.0)
        sim.schedule_capacity_change(4.0, "egress", 0, 4.0)
        res = sim.run()
        # 4 bytes at 1 B/s, then 4 bytes at 4 B/s -> 5 s.
        assert res.flow_results[0].fct == pytest.approx(5.0, abs=0.05)

    def test_change_applies_while_idle(self):
        """A capacity change during an idle gap affects later arrivals."""
        sim = make_sim()
        sim.schedule_capacity_change(1.0, "egress", 0, 0.5)
        sim.submit(Coflow([Flow(0, 0, 2.0)], arrival=5.0))
        res = sim.run()
        assert res.flow_results[0].fct == pytest.approx(4.0, abs=0.05)

    def test_validation(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError, match="side"):
            sim.schedule_capacity_change(1.0, "uplink", 0, 1.0)
        with pytest.raises(ConfigurationError, match="positive"):
            sim.schedule_capacity_change(1.0, "ingress", 0, 0.0)
        sim.submit(Coflow([Flow(0, 0, 1.0)]))
        sim.run()
        with pytest.raises(ConfigurationError, match="past"):
            sim.schedule_capacity_change(0.0, "ingress", 0, 1.0)

    def test_fvdf_reacts_to_bandwidth_drop(self):
        """Eq. 3 flips when the link thins: FVDF starts compressing after
        the capacity drop even though it didn't before."""
        from repro.compression.codecs import Codec
        from repro.compression.engine import CompressionEngine

        eng = CompressionEngine(
            Codec("t", speed=4.0, decompression_speed=16.0, ratio=0.5),
            size_dependent=False,
        )
        # disposal = 2.0: loses against B=3.0, wins against B=1.0.
        sim = SliceSimulator(
            BigSwitch(1, 3.0), make_scheduler("fvdf"), slice_len=0.01,
            compression=eng,
        )
        sim.submit(Coflow([Flow(0, 0, 30.0)]))
        sim.schedule_capacity_change(2.0, "ingress", 0, 1.0)
        sim.schedule_capacity_change(2.0, "egress", 0, 1.0)
        res = sim.run()
        fr = res.flow_results[0]
        # nothing compressed before t=2 (6 bytes sent raw), the rest did.
        assert fr.bytes_compressed_in > 0
        assert fr.bytes_sent < fr.size

    def test_multiple_changes_apply_in_order(self):
        sim = make_sim()
        sim.submit(Coflow([Flow(0, 0, 6.0)]))
        for side in ("ingress", "egress"):
            sim.schedule_capacity_change(2.0, side, 0, 2.0)
            sim.schedule_capacity_change(3.0, side, 0, 1.0)
        res = sim.run()
        # 2 bytes @1 + 2 bytes @2 (t=2..3) + 2 bytes @1 -> finish at 5.
        assert res.flow_results[0].fct == pytest.approx(5.0, abs=0.05)

    def test_same_instant_changes_apply_in_scheduling_order(self):
        """Two changes on one port at one instant: the one scheduled last
        wins, whatever the capacity values."""
        for first, last in ((mbps(50), mbps(20)), (mbps(20), mbps(50))):
            sim = SliceSimulator(
                BigSwitch(2, mbps(100)), make_scheduler("sebf"),
                slice_len=0.01,
            )
            sim.submit(Coflow([Flow(1, 0, 1e8)]))
            sim.schedule_capacity_change(0.5, "ingress", 1, first)
            sim.schedule_capacity_change(0.5, "ingress", 1, last)
            sim.run(until=0.6)
            assert sim.fabric.ingress.capacity[1] == last
