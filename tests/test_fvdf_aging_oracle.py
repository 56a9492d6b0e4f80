"""FVDF's priority classes on engine columns against the per-coflow rule.

P and the "served in the last window" flag live in two engine columns
that FVDF gathers, ages with one masked multiply and scatters back.
:class:`ReferenceAging` keeps the rule as it read when both lived per
coflow: P on each coflow, keyed by id, multiplied by ``logbase`` when
``was_served.get(cid, True) is False`` ("starved") or always (the other
modes), then the decay/reset head rule, then the served flags of the
window just decided.  :class:`CheckedFVDF` runs it beside the engine path
and requires every decision's ``last.priority`` to equal it bit for bit,
over random arrivals, retirements, drains and checkpoint/resume.
"""

import pickle

import numpy as np
import pytest

from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.fvdf import FVDFConfig, FVDFScheduler
from repro.core.simulator import SliceSimulator
from repro.cpu.cores import CpuModel
from repro.fabric.bigswitch import BigSwitch

N_PORTS = 4
SLICE = 0.01


class ReferenceAging:
    """Pseudocode 3 with P and the served flags kept per coflow id."""

    def __init__(self, config: FVDFConfig):
        self.config = config
        self.prio = {}
        self.was_served = {}

    def age(self, view) -> dict:
        """Upgrade the view's coflows; their P by coflow id."""
        cfg = self.config
        ids = view.coflow_columns()[0].tolist()
        if cfg.logbase > 1.0 and view.trigger.is_preemption_point:
            for cid in ids:
                if (cfg.aging != "starved"
                        or self.was_served.get(cid, True) is False):
                    self.prio[cid] = self.prio.get(cid, 1.0) * cfg.logbase
        return {cid: self.prio.get(cid, 1.0) for cid in ids}

    def settle(self, view, d) -> None:
        """The head rule, then the served flags of the decided window."""
        cfg = self.config
        if (cfg.aging in ("decay", "reset") and len(d.order)
                and view.trigger.is_preemption_point):
            head = int(d.coflow_ids[d.perm[d.starts[d.order[0]]]])
            if cfg.aging == "reset":
                self.prio[head] = 1.0
            else:
                self.prio[head] = max(
                    1.0, self.prio.get(head, 1.0) / cfg.logbase**2
                )
        served = {}
        for cid, s in zip(d.coflow_ids.tolist(),
                          ((d.rates > 0) | d.beta).tolist()):
            served[cid] = served.get(cid, False) or s
        self.was_served = served


class CheckedFVDF(FVDFScheduler):
    """FVDF whose every decision is held to :class:`ReferenceAging`."""

    def __init__(self, config: FVDFConfig):
        super().__init__(config)
        self.ref = ReferenceAging(self.config)
        self.checked = 0
        self.max_p = 1.0

    def reset(self) -> None:
        super().reset()
        self.ref = ReferenceAging(self.config)

    def schedule(self, view):
        expected = self.ref.age(view)
        alloc = super().schedule(view)
        d = self.last
        unit_coflow = d.coflow_ids[d.perm[d.starts[:-1]]].tolist()
        assert d.priority.tolist() == [expected[c] for c in unit_coflow]
        self.ref.settle(view, d)
        self.checked += 1
        self.max_p = max(self.max_p, float(d.priority.max()))
        return alloc


def _engine(scheduler):
    return SliceSimulator(
        BigSwitch(N_PORTS, 1.0), scheduler, slice_len=SLICE,
        cpu=CpuModel(N_PORTS, cores_per_node=1),
        compression=CompressionEngine(
            Codec("t", speed=3.0, decompression_speed=12.0, ratio=0.5),
            size_dependent=False,
        ),
    )


def _workload(rng, n=24):
    coflows, t = [], 0.0
    for _ in range(n):
        flows = [
            Flow(int(rng.integers(N_PORTS)), int(rng.integers(N_PORTS)),
                 float(rng.choice([0.05, 0.3, 1.0, 2.5])),
                 compressible=bool(rng.random() < 0.6))
            for _ in range(int(rng.integers(1, 5)))
        ]
        coflows.append(Coflow(flows, arrival=round(t, 2)))
        t += float(rng.choice([0.0, 0.01, 0.05, 0.2]))
    return coflows


def _resumed(sim):
    """A new engine restored from ``sim``'s state through pickle, as a
    checkpoint carries it."""
    state = pickle.loads(pickle.dumps(sim.export_state()))
    new = _engine(state["scheduler"])
    new.import_state(state)
    return new


def _run(config, coflows, steps, events: bool):
    """Run in the horizons ``steps`` gives; with ``events``, drain and
    resume where it says.  Returns the CCTs (sorted), the engine and
    how many drains and resumes ran."""
    split = coflows[12].arrival  # a mid-run submission, on the grid
    sim = _engine(CheckedFVDF(config))
    sim.submit_many(coflows[:12])
    sim.run(until=split)
    sim.submit_many(coflows[12:])
    stores = []
    done = 0
    for slices, drain, resume in steps:
        if not sim.pending:
            break
        sim.run(until=sim.now + SLICE * slices)
        if events and drain:
            stores.append(sim.drain_retired())
        if events and resume:
            sim = _resumed(sim)
        done += events and drain and resume
    stores.append(sim.run().store)
    cct = np.concatenate([s.cf_finish - s.cf_arrival for s in stores])
    return np.sort(cct), sim, done


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("granularity", ["coflow", "flow"])
@pytest.mark.parametrize("aging", ["starved", "paper", "decay", "reset"])
def test_engine_columns_age_as_the_per_coflow_rule(aging, granularity, seed):
    """Every decision's P equals the reference's, and draining and
    resuming mid-run leave the CCTs of the same horizons bit for bit."""
    rng = np.random.default_rng(seed)
    config = FVDFConfig(aging=aging, granularity=granularity)
    coflows = _workload(rng)
    steps = [
        (int(rng.integers(1, 30)), rng.random() < 0.6, rng.random() < 0.4)
        for _ in range(40)
    ]
    expected, _, _ = _run(config, coflows, steps, events=False)
    cct, sim, drained_and_resumed = _run(config, coflows, steps, events=True)
    assert drained_and_resumed > 0
    assert len(cct) == len(coflows)
    assert np.array_equal(cct, expected)
    assert sim.scheduler.checked > 0
    assert sim.scheduler.max_p > 1.0, "no coflow aged"
