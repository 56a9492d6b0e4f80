"""The public Facebook coflow-benchmark trace format.

The coflow literature (Varys, Aalo, CODA, …) replays a one-hour Hive/
MapReduce trace from a 3000-machine Facebook cluster, distributed in a
simple text format (github.com/coflow/coflow-benchmark)::

    <num_ports> <num_coflows>
    <id> <arrival_ms> <num_mappers> <m1> ... <num_reducers> <r1:mb1> ...

Each mapper is a port index; each reducer is ``port:size_in_MB`` where the
size is the *total* bytes the reducer receives, split evenly across the
mappers (the standard interpretation).  This module reads and writes the
format and can synthesise FB-like traces with the published width/size
skew, so experiments run out of the box without the proprietary file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, TextIO, Tuple, Union

import numpy as np

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.errors import ConfigurationError, TraceFormatError
from repro.units import MB


@dataclass
class FacebookTrace:
    """A parsed trace: fabric size plus the coflows."""

    num_ports: int
    coflows: List[Coflow]

    @property
    def num_flows(self) -> int:
        return sum(c.width for c in self.coflows)

    @property
    def total_bytes(self) -> float:
        return sum(c.size for c in self.coflows)


def _parse_coflow_line(line: str, lineno: int, num_ports: int) -> Coflow:
    tok = line.split()
    try:
        arrival_ms = float(tok[1])
        n_map = int(tok[2])
        mappers = [int(t) for t in tok[3 : 3 + n_map]]
        n_red = int(tok[3 + n_map])
        red_tok = tok[4 + n_map : 4 + n_map + n_red]
        if len(red_tok) != n_red:
            raise IndexError
        reducers: List[Tuple[int, float]] = []
        for rt in red_tok:
            port_s, mb_s = rt.split(":")
            reducers.append((int(port_s), float(mb_s)))
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(f"line {lineno}: malformed coflow entry: {line!r}") from exc
    if not mappers or not reducers:
        raise TraceFormatError(f"line {lineno}: coflow needs mappers and reducers")
    for p in mappers + [r[0] for r in reducers]:
        if not 0 <= p < num_ports:
            raise TraceFormatError(f"line {lineno}: port {p} out of range 0..{num_ports - 1}")
    flows: List[Flow] = []
    for rport, total_mb in reducers:
        if total_mb <= 0:
            raise TraceFormatError(f"line {lineno}: non-positive reducer size {total_mb}")
        per_mapper = total_mb * MB / len(mappers)
        for mport in mappers:
            flows.append(Flow(src=mport, dst=rport, size=per_mapper))
    return Coflow(flows, arrival=arrival_ms / 1e3, label=f"fb-{tok[0]}")


def read_facebook_trace(source: Union[str, Path, TextIO]) -> FacebookTrace:
    """Parse a coflow-benchmark file into a :class:`FacebookTrace`."""
    if isinstance(source, (str, Path)):
        try:
            fh = open(source)
        except OSError as exc:
            raise ConfigurationError(f"cannot read trace {source}: {exc}") from exc
        with fh:
            return read_facebook_trace(fh)
    header = source.readline().split()
    if len(header) != 2:
        raise TraceFormatError(f"bad header: {header!r}")
    try:
        num_ports, num_coflows = int(header[0]), int(header[1])
    except ValueError as exc:
        raise TraceFormatError(f"bad header: {header!r}") from exc
    coflows: List[Coflow] = []
    for lineno, line in enumerate(source, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coflows.append(_parse_coflow_line(line, lineno, num_ports))
    if len(coflows) != num_coflows:
        raise TraceFormatError(
            f"header declares {num_coflows} coflows but file has {len(coflows)}"
        )
    coflows.sort(key=lambda c: c.arrival)
    return FacebookTrace(num_ports=num_ports, coflows=coflows)


def write_facebook_trace(
    trace: FacebookTrace, dest: Union[str, Path, TextIO]
) -> None:
    """Serialise coflows back to the benchmark format.

    Flows are grouped by (coflow, reducer); mapper sets are recovered from
    the distinct source ports.  Round-trips traces produced by
    :func:`synthesize_facebook_like` and :func:`read_facebook_trace`.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w") as fh:
            write_facebook_trace(trace, fh)
            return
    dest.write(f"{trace.num_ports} {len(trace.coflows)}\n")
    for k, c in enumerate(trace.coflows):
        mappers = sorted({f.src for f in c.flows})
        by_reducer: dict = {}
        for f in c.flows:
            by_reducer[f.dst] = by_reducer.get(f.dst, 0.0) + f.size
        parts = [str(k + 1), f"{c.arrival * 1e3:.0f}", str(len(mappers))]
        parts += [str(m) for m in mappers]
        parts.append(str(len(by_reducer)))
        parts += [f"{p}:{b / MB:.6g}" for p, b in sorted(by_reducer.items())]
        dest.write(" ".join(parts) + "\n")


def synthesize_facebook_like(
    rng: np.random.Generator,
    num_coflows: int = 100,
    num_ports: int = 150,
    arrival_rate: float = 0.1,
    mean_reducer_mb: float = 64.0,
) -> FacebookTrace:
    """A synthetic trace with the FB trace's published skew.

    Width (mapper/reducer counts) follows a bounded Zipf — most coflows
    touch a handful of ports, a few span half the cluster; reducer sizes are
    log-normal around ``mean_reducer_mb``.
    """
    if num_coflows <= 0 or num_ports < 2:
        raise ConfigurationError("need num_coflows > 0 and num_ports >= 2")
    coflows: List[Coflow] = []
    t = 0.0
    max_width = max(2, num_ports // 2)
    for k in range(num_coflows):
        n_map = _bounded_zipf(rng, max_width)
        n_red = _bounded_zipf(rng, max_width)
        mappers = rng.choice(num_ports, size=n_map, replace=False)
        reducers = rng.choice(num_ports, size=n_red, replace=False)
        flows = []
        for rport in reducers:
            total = rng.lognormal(np.log(mean_reducer_mb * MB), 1.0)
            per_mapper = max(total / n_map, 1.0)
            for mport in mappers:
                flows.append(Flow(src=int(mport), dst=int(rport), size=per_mapper))
        coflows.append(Coflow(flows, arrival=t, label=f"fb-{k + 1}"))
        t += rng.exponential(1.0 / arrival_rate)
    return FacebookTrace(num_ports=num_ports, coflows=coflows)


#: Canonical short name (``traces.facebook.synthesize``) used by the
#: bigtrace benchmark and docs.
synthesize = synthesize_facebook_like


def _bounded_zipf(rng: np.random.Generator, upper: int, a: float = 1.8) -> int:
    """Zipf draw clipped to [1, upper]."""
    return int(min(rng.zipf(a), upper))


def trace_summary(trace: FacebookTrace) -> dict:
    """Descriptive statistics of a trace (counts, bytes, bins, widths).

    The bin breakdown uses the literature's Short/Long × Narrow/Wide
    classification (:mod:`repro.traces.classify`).
    """
    from repro.traces.classify import bin_counts

    widths = np.asarray([c.width for c in trace.coflows])
    sizes = np.asarray([c.size for c in trace.coflows])
    arrivals = np.asarray([c.arrival for c in trace.coflows])
    return {
        "num_ports": trace.num_ports,
        "num_coflows": len(trace.coflows),
        "num_flows": trace.num_flows,
        "total_bytes": float(sizes.sum()),
        "median_width": float(np.median(widths)) if len(widths) else 0.0,
        "max_width": int(widths.max()) if len(widths) else 0,
        "median_coflow_bytes": float(np.median(sizes)) if len(sizes) else 0.0,
        "horizon": float(arrivals.max()) if len(arrivals) else 0.0,
        "bins": bin_counts(trace.coflows),
    }
