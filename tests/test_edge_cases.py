"""Edge cases across modules that the mainline tests don't reach."""

import pytest

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.errors import ProtocolError
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import make_scheduler


class TestEngineEdges:
    def test_run_after_completion_is_idempotent(self):
        sim = SliceSimulator(BigSwitch(1, 1.0), make_scheduler("sebf"),
                             slice_len=0.01)
        sim.submit(Coflow([Flow(0, 0, 1.0)]))
        first = sim.run()
        second = sim.run()
        assert second.makespan == first.makespan
        assert len(second.flow_results) == 1

    def test_empty_run(self):
        sim = SliceSimulator(BigSwitch(1, 1.0), make_scheduler("sebf"))
        res = sim.run()
        assert res.flow_results == []
        assert res.makespan == 0.0

    def test_submit_during_run_via_callback(self):
        """A completion callback submits follow-up work (the cluster
        simulator's pattern) and the run drains it too when re-invoked."""
        sim = SliceSimulator(BigSwitch(1, 1.0), make_scheduler("sebf"),
                             slice_len=0.01)

        def chain(cr):
            if cr.label == "first":
                sim.submit(Coflow([Flow(0, 0, 1.0)], arrival=sim.now,
                                  label="second"))

        sim.on_coflow_complete(chain)
        sim.submit(Coflow([Flow(0, 0, 1.0)], label="first"))
        res = sim.run()
        assert {c.label for c in res.coflow_results} == {"first", "second"}

    def test_very_large_sizes_do_not_overflow(self):
        from repro.units import TB, gbps

        sim = SliceSimulator(BigSwitch(1, gbps(100)), make_scheduler("sebf"),
                             slice_len=0.01)
        sim.submit(Coflow([Flow(0, 0, 10 * TB)]))
        res = sim.run()
        assert res.flow_results[0].fct == pytest.approx(
            10 * TB / gbps(100), rel=1e-6
        )

    def test_many_tiny_flows_one_slice_each(self):
        """100 sub-slice flows on one port: each occupies (at least) one
        slice — total ~100 slices, the paper's slice-waste in bulk."""
        sim = SliceSimulator(BigSwitch(1, 1.0), make_scheduler("srtf"),
                             slice_len=0.01)
        for k in range(100):
            sim.submit(Coflow([Flow(0, 0, 1e-4)]))
        res = sim.run()
        assert res.makespan >= 100 * 0.01 - 1e-9


class TestSwallowProtocolEdges:
    def make_ctx(self):
        from repro.swallow import SwallowContext

        SwallowContext.reset_instance()
        return SwallowContext(num_nodes=2, bandwidth=1000.0)

    def test_double_pull_fails(self):
        from repro.core.flow import Flow as F
        from repro.swallow import BlockId, Executor

        ctx = self.make_ctx()
        ex = Executor(node=0, pending_flows=[F(0, 1, 100.0)])
        ref = ctx.add(ctx.aggregate(ctx.hook(ex)))
        bid = BlockId()
        ctx.push(ref, bid, b"data")
        assert ctx.pull(ref, bid) == b"data"
        with pytest.raises(ProtocolError):
            ctx.pull(ref, bid)

    def test_remove_twice_fails(self):
        from repro.core.flow import Flow as F
        from repro.swallow import BlockId, Executor

        ctx = self.make_ctx()
        ex = Executor(node=0, pending_flows=[F(0, 1, 100.0)])
        ref = ctx.add(ctx.aggregate(ctx.hook(ex)))
        bid = BlockId()
        ctx.push(ref, bid, b"x")
        ctx.pull(ref, bid)
        ctx.remove(ref)
        with pytest.raises(ProtocolError):
            ctx.remove(ref)


class TestUnitsEdges:
    def test_zero_and_negative_values(self):
        from repro import units

        assert units.bytes_to_human(0) == "0 B"
        assert units.bytes_to_human(-2 * units.GB) == "-2.00 GB"
        assert units.rate_to_human(0) == "0 bps"
        assert units.seconds_to_human(0.0) == "0.0 ms"

    def test_flow_volume_fractional_bytes_ok(self):
        """Volumes are continuous fluids: sub-byte sizes are legal."""
        f = Flow(0, 0, 0.5)
        assert f.size == 0.5
