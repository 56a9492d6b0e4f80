"""Scheduling policies: the paper's FVDF and every baseline it compares to.

Use :func:`make_scheduler` to construct policies by name (handy for
benchmark sweeps)::

    from repro.schedulers import make_scheduler
    sched = make_scheduler("sebf")
    fvdf = make_scheduler("fvdf")

Names load on first use (:mod:`repro._lazy`); the registry lives in
:mod:`repro.schedulers.registry`.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".flow_level": ("FlowFIFO", "FlowFAIR", "FlowSRTF", "FlowPFP", "FlowWSS"),
    ".coflow_level": (
        "CoflowPFF", "CoflowWSS", "CoflowFIFO", "CoflowPFP",
        "SEBF", "SCF", "NCF", "LCF",
    ),
    ".aalo": ("DCLAS",),
    ".deadline": ("DeadlineEDF", "deadline_stats"),
    ".sincronia": ("Sincronia", "bssi_order"),
    "repro.core.fvdf": ("FVDFScheduler", "FVDFConfig"),
    ".registry": ("make_scheduler", "scheduler_names"),
})

__all__ = list(_EXPORTS)
