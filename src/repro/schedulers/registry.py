"""The policy registry behind :func:`make_scheduler`.

Register a policy in :data:`_FACTORIES` under its name.  The policies
few runs use (DCLAS, the EDF pair, Sincronia) are imported by their
factory, so building an FVDF or SEBF scheduler never compiles them.
The flow- and coflow-level baselines stay imported here: sweep cells
run them in pool workers, which inherit only what their parent loaded,
and a module a worker imports itself is compiled again in every worker.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.fvdf import FVDFConfig, FVDFScheduler
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
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


def _dclas(**params) -> Scheduler:
    from repro.schedulers.aalo import DCLAS

    return DCLAS(**params)


def _edf(**params) -> Scheduler:
    from repro.schedulers.deadline import DeadlineEDF

    return DeadlineEDF(**params)


def _sincronia(**params) -> Scheduler:
    from repro.schedulers.sincronia import Sincronia

    return Sincronia(**params)


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
    "dclas": _dclas,
    "edf-deadline": _edf,
    "edf-noadmission": lambda: _edf(admission=False),
    "sincronia": _sincronia,
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

