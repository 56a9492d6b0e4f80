"""CSV export of simulation results (for external plotting/analysis).

Two dumps cover what the paper's figures consume: per-flow records (FCT
CDFs, size breakdowns) and per-coflow records (CCT CDFs, traffic).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TextIO, Union

from repro.core.simulator import SimulationResult

FLOW_FIELDS = [
    "flow_id", "coflow_id", "src", "dst", "size", "arrival", "start",
    "finish", "finish_physical", "fct", "bytes_sent", "bytes_compressed_in",
    "decompress_time",
]

COFLOW_FIELDS = [
    "coflow_id", "label", "arrival", "finish", "cct", "size", "width",
    "bytes_sent", "deadline", "met_deadline",
]


def _open(dest: Union[str, Path, TextIO], fn) -> None:
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            fn(fh)
    else:
        fn(dest)


def export_flows_csv(result: SimulationResult, dest: Union[str, Path, TextIO]) -> None:
    """Write one row per finished flow."""

    def _write(fh: TextIO) -> None:
        w = csv.DictWriter(fh, fieldnames=FLOW_FIELDS)
        w.writeheader()
        for f in result.flow_results:
            w.writerow({
                "flow_id": f.flow_id, "coflow_id": f.coflow_id,
                "src": f.src, "dst": f.dst, "size": f.size,
                "arrival": f.arrival, "start": f.start, "finish": f.finish,
                "finish_physical": f.finish_physical, "fct": f.fct,
                "bytes_sent": f.bytes_sent,
                "bytes_compressed_in": f.bytes_compressed_in,
                "decompress_time": f.decompress_time,
            })

    _open(dest, _write)


def export_coflows_csv(result: SimulationResult, dest: Union[str, Path, TextIO]) -> None:
    """Write one row per finished coflow."""

    def _write(fh: TextIO) -> None:
        w = csv.DictWriter(fh, fieldnames=COFLOW_FIELDS)
        w.writeheader()
        for c in result.coflow_results:
            w.writerow({
                "coflow_id": c.coflow_id, "label": c.label,
                "arrival": c.arrival, "finish": c.finish, "cct": c.cct,
                "size": c.size, "width": c.width, "bytes_sent": c.bytes_sent,
                "deadline": "" if c.deadline is None else c.deadline,
                "met_deadline": "" if c.met_deadline is None else int(c.met_deadline),
            })

    _open(dest, _write)
