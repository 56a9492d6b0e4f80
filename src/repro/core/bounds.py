"""Lower bounds on coflow schedules (how far from optimal are we?).

Coflow scheduling is NP-hard (concurrent open shop — paper Section IV-A),
so the evaluation compares heuristics against each other.  These bounds
add an absolute yardstick no schedule can beat:

* **isolation bound** — a coflow can never finish faster than running
  alone on an empty fabric: ``CCT_i >= Γ_i`` (its bottleneck load), hence
  ``avg CCT >= avg Γ``.
* **port-workload bound** — a port must ship every byte assigned to it:
  with release times, port *p* busy until at least
  ``min_arrival(p) + load(p)/cap(p)``, bounding the makespan.
* **compression-adjusted variants** — with compression, at best every
  compressible byte shrinks by its flow's effective ratio before hitting
  the wire, so the same bounds evaluated on compressed sizes bound any
  compressing schedule.

Benchmarks report the measured/bound ratio; property tests assert no
simulated schedule ever violates a bound.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch


def _effective_sizes(
    coflow: Coflow, compression: Optional[CompressionEngine]
) -> np.ndarray:
    sizes = np.asarray([f.size for f in coflow.flows], dtype=np.float64)
    if compression is None:
        return sizes
    ratios = np.asarray([
        f.ratio_override
        if f.ratio_override is not None
        else float(compression.ratio(f.size))
        for f in coflow.flows
    ])
    compressible = np.asarray([f.compressible for f in coflow.flows])
    return np.where(compressible, sizes * ratios, sizes)


def isolation_gamma(
    coflow: Coflow,
    fabric: BigSwitch,
    compression: Optional[CompressionEngine] = None,
) -> float:
    """The coflow's bottleneck completion time run alone (``Γ``).

    With ``compression``, sizes are first shrunk by each flow's effective
    ratio — the best any compressing schedule could do, ignoring
    compression time, so still a valid lower bound.
    """
    sizes = _effective_sizes(coflow, compression)
    src = np.asarray([f.src for f in coflow.flows])
    dst = np.asarray([f.dst for f in coflow.flows])
    in_load = np.bincount(src, weights=sizes, minlength=fabric.num_ingress)
    out_load = np.bincount(dst, weights=sizes, minlength=fabric.num_egress)
    g_in = (in_load / fabric.ingress.capacity).max()
    g_out = (out_load / fabric.egress.capacity).max()
    return float(max(g_in, g_out))


def avg_cct_lower_bound(
    coflows: Sequence[Coflow],
    fabric: BigSwitch,
    compression: Optional[CompressionEngine] = None,
) -> float:
    """``avg CCT >= avg isolation Γ`` — valid for every schedule."""
    if not coflows:
        raise ConfigurationError("need at least one coflow")
    return float(
        np.mean([isolation_gamma(c, fabric, compression) for c in coflows])
    )


def makespan_lower_bound(
    coflows: Sequence[Coflow],
    fabric: BigSwitch,
    compression: Optional[CompressionEngine] = None,
) -> float:
    """Port-workload bound on the finish time of the whole workload.

    Every port must carry its total assigned bytes after the earliest
    arrival that touches it; the busiest (arrival + load/cap) over all
    ports bounds the makespan.  The last coflow's own isolation bound is
    also included (``arrival_i + Γ_i``).
    """
    if not coflows:
        raise ConfigurationError("need at least one coflow")
    n_in, n_out = fabric.num_ingress, fabric.num_egress
    in_load = np.zeros(n_in)
    out_load = np.zeros(n_out)
    in_first = np.full(n_in, np.inf)
    out_first = np.full(n_out, np.inf)
    best = 0.0
    for c in coflows:
        sizes = _effective_sizes(c, compression)
        for f, s in zip(c.flows, sizes):
            in_load[f.src] += s
            out_load[f.dst] += s
            in_first[f.src] = min(in_first[f.src], c.arrival)
            out_first[f.dst] = min(out_first[f.dst], c.arrival)
        best = max(best, c.arrival + isolation_gamma(c, fabric, compression))
    used_in = in_load > 0
    used_out = out_load > 0
    if used_in.any():
        best = max(
            best,
            float((in_first[used_in] + in_load[used_in] / fabric.ingress.capacity[used_in]).max()),
        )
    if used_out.any():
        best = max(
            best,
            float((out_first[used_out] + out_load[used_out] / fabric.egress.capacity[used_out]).max()),
        )
    return best


def optimality_gap(measured: float, bound: float) -> float:
    """measured / bound — 1.0 means provably optimal on that metric."""
    if bound <= 0:
        raise ConfigurationError("bound must be positive")
    return measured / bound
