"""Offline tools: fixed-order replay and exhaustive optima."""

import pytest

from repro.analysis import ExperimentSetup, run_policy
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.offline import (
    MAX_EXHAUSTIVE_COFLOWS,
    FixedOrderScheduler,
    exhaustive_best_order,
)
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch


def sample_coflows():
    return [
        Coflow([Flow(0, 0, 4.0)], label="big"),
        Coflow([Flow(0, 0, 1.0)], label="small"),
        Coflow([Flow(1, 1, 2.0)], label="side"),
    ]


def run_fixed(order, coflows):
    sim = SliceSimulator(BigSwitch(2, 1.0), FixedOrderScheduler(order),
                         slice_len=0.01)
    sim.submit_many(coflows)
    return sim.run()


class TestFixedOrder:
    def test_respects_given_order(self):
        coflows = sample_coflows()
        big, small, _ = coflows
        res = run_fixed([big.coflow_id, small.coflow_id], coflows)
        cct = {c.label: c.cct for c in res.coflow_results}
        assert cct["big"] == pytest.approx(4.0)
        assert cct["small"] == pytest.approx(5.0)

    def test_reversed_order_flips_outcome(self):
        coflows = sample_coflows()
        big, small, _ = coflows
        res = run_fixed([small.coflow_id, big.coflow_id], coflows)
        cct = {c.label: c.cct for c in res.coflow_results}
        assert cct["small"] == pytest.approx(1.0)
        assert cct["big"] == pytest.approx(5.0)

    def test_unlisted_coflows_rank_last(self):
        coflows = sample_coflows()
        big = coflows[0]
        res = run_fixed([big.coflow_id], coflows)
        cct = {c.label: c.cct for c in res.coflow_results}
        assert cct["big"] == pytest.approx(4.0)


class TestExhaustive:
    def test_finds_smallest_first_on_single_port(self):
        coflows = sample_coflows()
        best = exhaustive_best_order(coflows, lambda: BigSwitch(2, 1.0))
        # optimal: small (1) before big (4); side is independent.
        small_id = coflows[1].coflow_id
        big_id = coflows[0].coflow_id
        assert best.best_order.index(small_id) < best.best_order.index(big_id)
        assert best.evaluated == 6
        # optimal avg CCT: (5 + 1 + 2)/3
        assert best.best_value == pytest.approx(8.0 / 3.0)

    def test_sebf_matches_optimum_here(self):
        """On this instance SEBF's order is provably optimal."""
        coflows = sample_coflows()
        best = exhaustive_best_order(coflows, lambda: BigSwitch(2, 1.0))
        res = run_policy(
            "sebf", coflows, ExperimentSetup(num_ports=2, bandwidth=1.0)
        )
        assert res.avg_cct == pytest.approx(best.best_value, rel=1e-6)

    def test_heuristics_never_beat_the_optimum(self, rng):
        coflows = []
        for k in range(4):
            flows = [
                Flow(int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                     float(rng.uniform(0.5, 4.0)))
                for _ in range(int(rng.integers(1, 3)))
            ]
            coflows.append(Coflow(flows, arrival=0.0))
        best = exhaustive_best_order(coflows, lambda: BigSwitch(3, 1.0))
        for policy in ["sebf", "scf", "coflow-fifo", "fvdf-nocompress"]:
            res = run_policy(
                policy, coflows, ExperimentSetup(num_ports=3, bandwidth=1.0)
            )
            assert res.avg_cct >= best.best_value - 1e-6, policy

    def test_rejects_oversized_instances(self):
        coflows = [Coflow([Flow(0, 0, 1.0)]) for _ in range(MAX_EXHAUSTIVE_COFLOWS + 1)]
        with pytest.raises(ConfigurationError, match="evaluations"):
            exhaustive_best_order(coflows, lambda: BigSwitch(1, 1.0))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            exhaustive_best_order([], lambda: BigSwitch(1, 1.0))
