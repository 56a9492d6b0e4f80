"""Aalo-style information-agnostic coflow scheduling (extension baseline).

The paper's reference [16] (Chowdhury & Stoica, SIGCOMM'15) schedules
coflows *without* prior size knowledge: coflows are demoted through
exponentially spaced priority queues as their **bytes sent so far** grow
(Discretized Coflow-Aware Least-Attained-Service), approximating
shortest-first from observations alone.

Simplifications vs the full Aalo system (documented, deliberate):

* strict priority across queues and FIFO within a queue (Aalo also
  supports weighted sharing between queues);
* "bytes sent so far" is derived as ``coflow.size − remaining volume``,
  which the big-switch view makes exact for incompressible runs.

Useful as the information-agnostic yardstick next to SEBF (clairvoyant)
and FVDF (clairvoyant + compression).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core import rate_allocation as ra
from repro.core.scheduler import Allocation, Scheduler, SchedulerView
from repro.errors import ConfigurationError
from repro.units import MB


class DCLAS(Scheduler):
    """Discretized Coflow-Aware Least-Attained-Service (Aalo).

    Parameters
    ----------
    first_threshold:
        Sent-bytes boundary of the highest-priority queue (Aalo: 10 MB).
    multiplier:
        Exponential spacing between queue thresholds (Aalo: 10).
    num_queues:
        Number of discrete priority queues.
    """

    name = "dclas"

    def __init__(
        self,
        first_threshold: float = 10 * MB,
        multiplier: float = 10.0,
        num_queues: int = 8,
    ):
        if first_threshold <= 0:
            raise ConfigurationError("first_threshold must be positive")
        if multiplier <= 1:
            raise ConfigurationError("multiplier must be > 1")
        if num_queues < 1:
            raise ConfigurationError("need at least one queue")
        self.thresholds = first_threshold * multiplier ** np.arange(num_queues - 1)

    def queue_of(self, sent: float) -> int:
        """The priority queue a coflow with ``sent`` bytes belongs to."""
        return int(np.searchsorted(self.thresholds, sent, side="right"))

    def schedule(self, view: SchedulerView) -> Allocation:
        if view.num_flows == 0:
            return Allocation.idle(0)
        keyed: List[tuple] = []
        for cs in view.coflows:
            sent = max(cs.coflow.size - float(view.volume[cs.flow_idx].sum()), 0.0)
            keyed.append((self.queue_of(sent), cs.coflow.arrival, cs.coflow_id, cs))
        keyed.sort(key=lambda t: t[:3])
        order = np.concatenate([cs.flow_idx for *_, cs in keyed])
        rem_in, rem_out = view.fresh_capacity()
        rates = ra.greedy_priority(
            order, view.src, view.dst, rem_in, rem_out, extra=view.fresh_extra()
        )
        return Allocation(rates=rates)
