"""Aalo-style D-CLAS scheduler (information-agnostic extension)."""

import pytest

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.simulator import SliceSimulator
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import DCLAS, make_scheduler
from repro.units import MB


def run(coflows, n_ports=4, bandwidth=10 * MB, **kw):
    sim = SliceSimulator(BigSwitch(n_ports, bandwidth), DCLAS(**kw), slice_len=0.01)
    sim.submit_many(coflows)
    return sim.run()


class TestConfig:
    def test_registry(self):
        assert make_scheduler("dclas").name == "dclas"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DCLAS(first_threshold=0)
        with pytest.raises(ConfigurationError):
            DCLAS(multiplier=1.0)
        with pytest.raises(ConfigurationError):
            DCLAS(num_queues=0)

    def test_queue_boundaries(self):
        d = DCLAS(first_threshold=10.0, multiplier=10.0, num_queues=4)
        assert d.queue_of(0.0) == 0
        assert d.queue_of(9.9) == 0
        assert d.queue_of(10.0) == 1
        assert d.queue_of(99.0) == 1
        assert d.queue_of(1e6) == 3  # clamped to last queue


class TestScheduling:
    def test_small_coflow_not_blocked_by_demoted_elephant(self):
        """The elephant accumulates sent bytes, drops a queue, and the
        late-arriving mouse preempts it — LAS without prior knowledge."""
        elephant = Coflow([Flow(0, 0, 100 * MB)], arrival=0.0, label="elephant")
        mouse = Coflow([Flow(0, 0, 2 * MB)], arrival=3.0, label="mouse")
        res = run([elephant, mouse], bandwidth=10 * MB,
                  first_threshold=10 * MB)
        cct = {c.label: c.cct for c in res.coflow_results}
        # elephant sent 30 MB by t=3 -> demoted below the fresh mouse.
        assert cct["mouse"] == pytest.approx(0.2, abs=0.05)
        assert cct["elephant"] == pytest.approx(10.2, abs=0.1)

    def test_same_queue_is_fifo(self):
        a = Coflow([Flow(0, 0, 5 * MB)], arrival=0.0, label="a")
        b = Coflow([Flow(0, 0, 5 * MB)], arrival=0.1, label="b")
        res = run([a, b], bandwidth=10 * MB)
        cct = {c.label: c.cct for c in res.coflow_results}
        # a finishes at 0.5; b waits for a and finishes at 1.0 (cct 0.9).
        assert cct["a"] == pytest.approx(0.5, abs=0.05)
        assert cct["b"] == pytest.approx(0.9, abs=0.05)

    def test_behaves_sanely_on_random_workload(self, rng):
        coflows = []
        for k in range(8):
            flows = [
                Flow(int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                     float(rng.uniform(1, 20) * MB))
                for _ in range(int(rng.integers(1, 4)))
            ]
            coflows.append(Coflow(flows, arrival=k * 0.5))
        res = run(coflows)
        assert len(res.coflow_results) == 8

    def test_between_clairvoyant_and_agnostic(self, rng):
        """On a size-diverse batch, D-CLAS should land between coflow-FIFO
        (fully agnostic) and SEBF (fully clairvoyant) on average CCT."""
        from repro.analysis import ExperimentSetup, run_many

        coflows = []
        for k in range(12):
            w = int(rng.integers(1, 4))
            flows = [
                Flow(int(rng.integers(0, 6)), int(rng.integers(0, 6)),
                     float(rng.choice([1, 5, 50]) * MB))
                for _ in range(w)
            ]
            coflows.append(Coflow(flows, arrival=float(k) * 0.3))
        setup = ExperimentSetup(num_ports=6, bandwidth=10 * MB, slice_len=0.01)
        out = run_many(["coflow-fifo", "dclas", "sebf"], coflows, setup)
        # Clairvoyant SEBF dominates both agnostic policies.
        assert out["sebf"].avg_cct <= out["dclas"].avg_cct * 1.05
        assert out["sebf"].avg_cct <= out["coflow-fifo"].avg_cct * 1.05
        # D-CLAS stays in FIFO's regime (its worst case is FIFO-with-
        # demotion-thrash, not a blow-up).
        assert out["dclas"].avg_cct <= out["coflow-fifo"].avg_cct * 1.25
