"""Generic CSV workload serialisation.

The Facebook benchmark format (:mod:`repro.traces.facebook`) cannot carry
per-flow compressibility or ratio overrides; this CSV format can, so any
generated workload — including Table I app traces — round-trips exactly.

Columns::

    coflow_id,label,arrival,src,dst,size,compressible,ratio_override

One row per flow; flows of one coflow share ``coflow_id``/``label``/
``arrival``.  ``ratio_override`` is empty when unset.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, TextIO, Union

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.errors import ConfigurationError, TraceFormatError

FIELDS = [
    "coflow_id", "label", "arrival", "src", "dst", "size",
    "compressible", "ratio_override",
]


def write_csv_trace(coflows: List[Coflow], dest: Union[str, Path, TextIO]) -> None:
    """Write a workload to CSV (one row per flow)."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            write_csv_trace(coflows, fh)
            return
    writer = csv.DictWriter(dest, fieldnames=FIELDS)
    writer.writeheader()
    for c in coflows:
        for f in c.flows:
            writer.writerow({
                "coflow_id": c.coflow_id,
                "label": c.label,
                "arrival": repr(c.arrival),
                "src": f.src,
                "dst": f.dst,
                "size": repr(f.size),
                "compressible": int(f.compressible),
                "ratio_override": "" if f.ratio_override is None else repr(f.ratio_override),
            })


def read_csv_trace(source: Union[str, Path, TextIO]) -> List[Coflow]:
    """Read a CSV workload back into coflows (sorted by arrival).

    Coflow identities are regenerated (fresh ids); grouping, arrival
    times, labels and every per-flow attribute are preserved.
    """
    if isinstance(source, (str, Path)):
        try:
            fh = open(source, newline="")
        except OSError as exc:
            raise ConfigurationError(f"cannot read trace {source}: {exc}") from exc
        with fh:
            return read_csv_trace(fh)
    reader = csv.DictReader(source)
    if reader.fieldnames != FIELDS:
        raise TraceFormatError(
            f"bad CSV header {reader.fieldnames}; expected {FIELDS}"
        )
    groups: Dict[str, dict] = {}
    for lineno, row in enumerate(reader, start=2):
        try:
            key = row["coflow_id"]
            flow = Flow(
                src=int(row["src"]),
                dst=int(row["dst"]),
                size=float(row["size"]),
                compressible=bool(int(row["compressible"])),
                ratio_override=(
                    float(row["ratio_override"]) if row["ratio_override"] else None
                ),
            )
            arrival = float(row["arrival"])
        except (KeyError, ValueError, TypeError) as exc:
            raise TraceFormatError(f"line {lineno}: malformed row {row!r}") from exc
        g = groups.setdefault(key, {"label": row["label"], "arrival": arrival,
                                    "flows": []})
        if g["arrival"] != arrival:
            raise TraceFormatError(
                f"line {lineno}: coflow {key} has inconsistent arrivals"
            )
        g["flows"].append(flow)
    coflows = [
        Coflow(g["flows"], arrival=g["arrival"], label=g["label"])
        for g in groups.values()
    ]
    coflows.sort(key=lambda c: c.arrival)
    return coflows
