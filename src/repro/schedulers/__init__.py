"""Scheduling policies: the paper's FVDF and every baseline it compares to.

Use :func:`make_scheduler` to construct policies by name (handy for
benchmark sweeps)::

    from repro.schedulers import make_scheduler
    sched = make_scheduler("sebf")
    fvdf = make_scheduler("fvdf")
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.fvdf import FVDFConfig, FVDFScheduler
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.schedulers.aalo import DCLAS
from repro.schedulers.deadline import DeadlineEDF, deadline_stats
from repro.schedulers.sincronia import Sincronia, bssi_order
from repro.schedulers.coflow_level import (
    SCF,
    NCF,
    LCF,
    SEBF,
    CoflowFIFO,
    CoflowPFF,
    CoflowPFP,
    CoflowWSS,
)
from repro.schedulers.flow_level import (
    FlowFAIR,
    FlowFIFO,
    FlowPFP,
    FlowSRTF,
    FlowWSS,
)

_FACTORIES: Dict[str, Callable[[], Scheduler]] = {
    # flow level
    "fifo": FlowFIFO,
    "fair": FlowFAIR,
    "srtf": FlowSRTF,
    "pfp": FlowPFP,
    "wss": FlowWSS,
    # coflow level
    "pff": CoflowPFF,
    "coflow-fifo": CoflowFIFO,
    "sebf": SEBF,
    "scf": SCF,
    "ncf": NCF,
    "lcf": LCF,
    "dclas": DCLAS,
    "edf-deadline": DeadlineEDF,
    "edf-noadmission": lambda: DeadlineEDF(admission=False),
    "sincronia": Sincronia,
    # the contribution
    "fvdf": FVDFScheduler,
    "fvdf-flow": lambda: FVDFScheduler(
        FVDFConfig(granularity="flow"), name="fvdf-flow"
    ),
    "fvdf-nocompress": lambda: FVDFScheduler(FVDFConfig(compress=False)),
}


def scheduler_names() -> List[str]:
    """All registered policy names."""
    return sorted(_FACTORIES)


def make_scheduler(name: str, **params) -> Scheduler:
    """Instantiate a scheduling policy by registry name.

    Keyword ``params`` are forwarded to the policy's constructor — e.g.
    ``make_scheduler("sebf", rate_policy="madd")`` or
    ``make_scheduler("edf-deadline", admission=False)`` — which is how
    parameterised policies travel inside picklable
    :class:`~repro.runner.spec.RunSpec` cells.  Registry aliases that are
    already fully parameterised (``edf-noadmission``, ``fvdf-flow``, …) accept
    no further params.
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {scheduler_names()}"
        ) from None
    try:
        sched = factory(**params) if params else factory()
    except TypeError as exc:
        raise ConfigurationError(
            f"scheduler {name!r} rejected params {sorted(params)}: {exc}"
        ) from None
    return sched


__all__ = [
    "FlowFIFO", "FlowFAIR", "FlowSRTF", "FlowPFP", "FlowWSS",
    "CoflowPFF", "CoflowWSS", "CoflowFIFO", "CoflowPFP",
    "SEBF", "SCF", "NCF", "LCF", "DCLAS",
    "DeadlineEDF", "deadline_stats", "Sincronia", "bssi_order",
    "FVDFScheduler", "FVDFConfig",
    "make_scheduler", "scheduler_names",
]
