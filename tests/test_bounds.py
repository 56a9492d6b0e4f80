"""Lower bounds: validity against every scheduler, tightness where known."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExperimentSetup, run_policy
from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.core.bounds import (
    avg_cct_lower_bound,
    isolation_gamma,
    makespan_lower_bound,
    optimality_gap,
)
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch


class TestIsolationGamma:
    def test_single_flow(self):
        fab = BigSwitch(2, bandwidth=2.0)
        c = Coflow([Flow(0, 1, 6.0)])
        assert isolation_gamma(c, fab) == pytest.approx(3.0)

    def test_bottleneck_port(self):
        fab = BigSwitch(3, bandwidth=1.0)
        # two flows into egress 2: it is the bottleneck.
        c = Coflow([Flow(0, 2, 3.0), Flow(1, 2, 3.0)])
        assert isolation_gamma(c, fab) == pytest.approx(6.0)

    def test_compression_shrinks_bound(self):
        fab = BigSwitch(2, bandwidth=1.0)
        eng = CompressionEngine(
            Codec("t", speed=10.0, decompression_speed=40.0, ratio=0.5),
            size_dependent=False,
        )
        c = Coflow([Flow(0, 1, 4.0)])
        assert isolation_gamma(c, fab, eng) == pytest.approx(2.0)

    def test_incompressible_flow_not_shrunk(self):
        fab = BigSwitch(2, bandwidth=1.0)
        eng = CompressionEngine(
            Codec("t", speed=10.0, decompression_speed=40.0, ratio=0.5),
            size_dependent=False,
        )
        c = Coflow([Flow(0, 1, 4.0, compressible=False)])
        assert isolation_gamma(c, fab, eng) == pytest.approx(4.0)

    def test_ratio_override_respected(self):
        fab = BigSwitch(2, bandwidth=1.0)
        eng = CompressionEngine("lz4", size_dependent=False)
        c = Coflow([Flow(0, 1, 4.0, ratio_override=0.25)])
        assert isolation_gamma(c, fab, eng) == pytest.approx(1.0)


class TestWorkloadBounds:
    def test_avg_cct_bound_requires_coflows(self):
        with pytest.raises(ConfigurationError):
            avg_cct_lower_bound([], BigSwitch(1, 1.0))

    def test_makespan_bound_accounts_for_arrivals(self):
        fab = BigSwitch(1, bandwidth=1.0)
        late = Coflow([Flow(0, 0, 2.0)], arrival=10.0)
        assert makespan_lower_bound([late], fab) == pytest.approx(12.0)

    def test_makespan_bound_sums_port_load(self):
        fab = BigSwitch(2, bandwidth=1.0)
        coflows = [Coflow([Flow(0, 0, 3.0)]), Coflow([Flow(0, 1, 3.0)])]
        # ingress 0 must move 6 bytes.
        assert makespan_lower_bound(coflows, fab) == pytest.approx(6.0)

    def test_gap(self):
        assert optimality_gap(6.0, 4.0) == pytest.approx(1.5)
        with pytest.raises(ConfigurationError):
            optimality_gap(1.0, 0.0)

    def test_sebf_is_tight_on_single_coflow(self):
        """One coflow alone: SEBF achieves exactly the isolation bound."""
        fab = BigSwitch(3, bandwidth=1.0)
        c = Coflow([Flow(0, 0, 4.0), Flow(1, 1, 2.0)])
        res = run_policy("sebf", [c], ExperimentSetup(num_ports=3, bandwidth=1.0))
        bound = avg_cct_lower_bound([c], fab)
        assert optimality_gap(res.avg_cct, bound) == pytest.approx(1.0, abs=0.01)


@st.composite
def workloads(draw):
    coflows = []
    t = 0.0
    for _ in range(draw(st.integers(1, 5))):
        flows = [
            Flow(draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                 draw(st.floats(0.1, 10.0)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        coflows.append(Coflow(flows, arrival=t))
        t += draw(st.floats(0.0, 2.0))
    return coflows


@given(workloads(), st.sampled_from(["fifo", "fair", "sebf", "fvdf", "dclas"]))
@settings(max_examples=80, deadline=None)
def test_no_schedule_beats_the_bounds(coflows, policy):
    fab = BigSwitch(3, bandwidth=1.0)
    setup = ExperimentSetup(num_ports=3, bandwidth=1.0, slice_len=0.05)
    res = run_policy(policy, coflows, setup)
    compression = None
    if policy == "fvdf":
        # FVDF compressed: compare against the compression-adjusted bound.
        from repro.compression.engine import CompressionEngine

        compression = CompressionEngine("lz4")
    tol = 1 + 1e-6
    assert res.avg_cct * tol >= avg_cct_lower_bound(coflows, fab, compression)
    assert res.makespan * tol + 0.05 >= makespan_lower_bound(coflows, fab, compression)