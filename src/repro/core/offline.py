"""Offline scheduling tools: fixed orders and brute-force optima.

Section IV-A of the paper starts from an *offline* problem with full
knowledge.  Coflow scheduling is NP-hard, but tiny instances can be solved
exactly by enumerating coflow priority orders — each order evaluated by
the same engine that runs the heuristics.  This gives the test suite an
absolute optimum to compare FVDF/SEBF against on small cases, and gives
users a :class:`FixedOrderScheduler` to replay an arbitrary priority list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core import rate_allocation as ra
from repro.core.coflow import Coflow
from repro.core.scheduler import Allocation, Scheduler, SchedulerView
from repro.core.simulator import SimulationResult, SliceSimulator
from repro.errors import ConfigurationError

#: Enumerating n! orders: keep n small by construction.
MAX_EXHAUSTIVE_COFLOWS = 7


class FixedOrderScheduler(Scheduler):
    """Serve coflows in a caller-given strict priority order.

    Coflows not in the list rank last (by arrival).  Rates are
    work-conserving greedy in that order.
    """

    name = "fixed-order"

    def __init__(self, order: Sequence[int]):
        self._rank: Dict[int, int] = {cid: i for i, cid in enumerate(order)}

    def schedule(self, view: SchedulerView) -> Allocation:
        if view.num_flows == 0:
            return Allocation.idle(0)
        ordered = sorted(
            view.coflows,
            key=lambda cs: (
                self._rank.get(cs.coflow_id, len(self._rank)),
                cs.coflow.arrival,
                cs.coflow_id,
            ),
        )
        flow_order = np.concatenate([cs.flow_idx for cs in ordered])
        rem_in, rem_out = view.fresh_capacity()
        rates = ra.greedy_priority(
            flow_order, view.src, view.dst, rem_in, rem_out,
            extra=view.fresh_extra(),
        )
        return Allocation(rates=rates)


@dataclass
class ExhaustiveResult:
    """The optimum over all coflow priority orders (within this schedule
    family: strict order + work-conserving greedy rates)."""

    best_order: Tuple[int, ...]
    best_value: float
    best_result: SimulationResult
    evaluated: int


def exhaustive_best_order(
    coflows: Sequence[Coflow],
    fabric_factory,
    metric: str = "avg_cct",
    slice_len: float = 0.01,
) -> ExhaustiveResult:
    """Try every coflow priority order; return the best on ``metric``.

    Parameters
    ----------
    coflows:
        At most :data:`MAX_EXHAUSTIVE_COFLOWS` coflows (n! blow-up).
    fabric_factory:
        Zero-argument callable building a fresh fabric per evaluation.
    metric:
        Attribute of :class:`SimulationResult` to minimise.
    """
    if not coflows:
        raise ConfigurationError("need at least one coflow")
    if len(coflows) > MAX_EXHAUSTIVE_COFLOWS:
        raise ConfigurationError(
            f"{len(coflows)} coflows would need {len(coflows)}! evaluations; "
            f"max {MAX_EXHAUSTIVE_COFLOWS}"
        )
    ids = [c.coflow_id for c in coflows]
    best: Optional[ExhaustiveResult] = None
    evaluated = 0
    for order in itertools.permutations(ids):
        sim = SliceSimulator(
            fabric_factory(), FixedOrderScheduler(order), slice_len=slice_len
        )
        sim.submit_many(list(coflows))
        res = sim.run()
        evaluated += 1
        value = float(getattr(res, metric))
        if best is None or value < best.best_value - 1e-12:
            best = ExhaustiveResult(
                best_order=order, best_value=value, best_result=res,
                evaluated=evaluated,
            )
    best.evaluated = evaluated
    return best
