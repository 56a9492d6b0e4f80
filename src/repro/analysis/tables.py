"""Plain-text table/series rendering for benchmark reports.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output aligned and consistent
without pulling in a plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.units import seconds_to_human


def format_cell(value, precision: int = 3) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.{precision}g}"
        return f"{value:,.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render an aligned ASCII table (paper-table style)."""
    str_rows: List[List[str]] = [
        [format_cell(c, precision) for c in row] for row in rows
    ]
    for r in str_rows:
        if len(r) != len(headers):
            raise ConfigurationError(
                f"row has {len(r)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def summary_table(results) -> str:
    """One row per policy of a ``{name: SimulationResult}`` map: avg FCT,
    avg CCT, makespan and traffic saved."""
    rows = [
        [name, seconds_to_human(res.avg_fct), seconds_to_human(res.avg_cct),
         seconds_to_human(res.makespan), f"{res.traffic_reduction * 100:.1f}%"]
        for name, res in results.items()
    ]
    return render_table(
        ["policy", "avg FCT", "avg CCT", "makespan", "traffic saved"], rows
    )


def render_cdf(
    values: Sequence[float],
    points: Optional[Sequence[float]] = None,
    width: int = 40,
    label: str = "CDF",
) -> str:
    """Render an empirical CDF as an ASCII bar series (figure stand-in)."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    if len(x) == 0:
        return f"{label}: (no data)"
    if points is None:
        points = np.quantile(x, np.linspace(0.1, 1.0, 10))
    lines = [label]
    for p in points:
        frac = float(np.searchsorted(x, p, side="right")) / len(x)
        bar = "#" * int(round(frac * width))
        lines.append(f"  x <= {format_cell(float(p)):>12}: {bar} {frac * 100:5.1f}%")
    return "\n".join(lines)


def render_series(
    xs: Sequence,
    ys: Sequence[float],
    xlabel: str = "x",
    ylabel: str = "y",
    title: Optional[str] = None,
) -> str:
    """Render an (x, y) series as a two-column table (figure stand-in)."""
    return render_table([xlabel, ylabel], list(zip(xs, ys)), title=title)
