"""``repro top``: a live terminal dashboard over a telemetry plane.

:func:`render_dashboard` turns one ``/snapshot`` payload into a frame, a
pure function so tests pin a frame without a socket; :func:`watch` polls
a running ``repro serve --metrics-port N`` and draws the frames.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from typing import Any, Dict, Optional

__all__ = ["render_dashboard", "watch"]


def watch(base: str, *, interval: float = 1.0, timeout: float = 2.0,
          color: bool = True, once: bool = False) -> int:
    """Poll ``base + "/snapshot"`` every ``interval`` seconds and print a
    frame each time, until the stream finishes or Ctrl-C; returns the
    exit code.  With ``once``, print one frame without clearing the
    screen, or exit 1 when the plane cannot be reached."""
    url = base + "/snapshot"
    try:
        while True:
            try:
                with urllib.request.urlopen(url, timeout=timeout) as r:
                    snap = json.loads(r.read().decode())
            except (OSError, ValueError) as exc:
                if once:
                    print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
                    return 1
                # Transient: the plane restarts with its driver on resume.
                print(f"waiting for {url} ... ({exc})")
            else:
                if color and not once:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(render_dashboard(snap, color=color))
                if once:
                    return 0
                if snap.get("finished"):
                    print("stream finished; exiting")
                    return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


_BOLD, _DIM, _RESET = "\x1b[1m", "\x1b[2m", "\x1b[0m"


def _fmt_rate(value: Optional[float], unit: str = "/s") -> str:
    if value is None:
        return "n/a"
    if abs(value) >= 1e9:
        return f"{value / 1e9:,.2f}G{unit}"
    if abs(value) >= 1e6:
        return f"{value / 1e6:,.2f}M{unit}"
    if abs(value) >= 1e3:
        return f"{value / 1e3:,.1f}k{unit}"
    return f"{value:,.1f}{unit}"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:,.1f}ms"


def _bar(frac: float, width: int = 24) -> str:
    frac = min(1.0, max(0.0, frac))
    filled = int(round(frac * width))
    return "[" + "#" * filled + "." * (width - filled) + f"] {frac:5.1%}"


def render_dashboard(snap: Dict[str, Any], color: bool = True) -> str:
    """One ``repro top`` frame from a ``/snapshot`` payload.

    Pure function of the snapshot dict — the poller adds the screen
    clearing; ``--once`` prints exactly this.
    """
    bold, dim, reset = (_BOLD, _DIM, _RESET) if color else ("", "", "")
    stream = snap.get("stream") or {}
    window = snap.get("window") or {}
    rates = window.get("rates_per_s") or {}
    tick_wall = window.get("tick_wall_s") or {}
    health = (
        "FINISHED" if snap.get("finished")
        else "OK" if snap.get("healthy")
        else "STALLED"
    )
    ready = "ready" if snap.get("ready") else "starting"
    lines = [
        f"{bold}repro top{reset} — policy {snap.get('policy', '?')} | "
        f"tick {snap.get('tick_s', 0)}s | "
        f"{health} ({ready}) | uptime {snap.get('uptime_s', 0.0):.0f}s",
        "",
        f"{bold}rates (window of {window.get('ticks', 0)} ticks, "
        f"{window.get('span_wall_s', 0.0):.1f}s){reset}",
        f"  flows    admitted {_fmt_rate(rates.get('flows_admitted')):>12}  "
        f"retired {_fmt_rate(rates.get('flows_retired')):>12}",
        f"  coflows  admitted {_fmt_rate(rates.get('coflows_admitted')):>12}  "
        f"retired {_fmt_rate(rates.get('coflows_retired')):>12}",
        f"  bytes    sent     {_fmt_rate(rates.get('bytes_sent'), 'B/s'):>12}  "
        f"original {_fmt_rate(rates.get('bytes_original'), 'B/s'):>11}",
        f"  restamps {_fmt_rate(rates.get('restamped')):>21}  "
        f"drains  {_fmt_rate(rates.get('drains')):>12}",
        "",
        f"{bold}backlog{reset}",
        "  in-flight "
        + _bar(
            (snap.get("in_flight") or 0)
            / max(1, snap.get("max_in_flight") or 1)
        )
        + f"  ({snap.get('in_flight', 0):,} / "
        f"{snap.get('max_in_flight', 0):,} flows)",
        f"  engine rows {snap.get('live_rows', 0):,} | sim t "
        f"{snap.get('sim_now', 0.0):,.1f}s | "
        f"ticks {snap.get('ticks', 0):,} | checkpoints "
        f"{snap.get('checkpoints', 0)}",
        "",
        f"{bold}tick latency (window){reset}",
        f"  p50 {_fmt_ms(tick_wall.get('p50', 0.0)):>10}  "
        f"p95 {_fmt_ms(tick_wall.get('p95', 0.0)):>10}  "
        f"p99 {_fmt_ms(tick_wall.get('p99', 0.0)):>10}  "
        f"max {_fmt_ms(tick_wall.get('max', 0.0)):>10}",
        "",
        f"{bold}lifetime{reset}",
        f"  flows done {int(stream.get('flows_done', 0)):,} | coflows done "
        f"{int(stream.get('coflows_done', 0)):,} | restamped "
        f"{int(stream.get('restamped', 0)):,} | traffic saved "
        + (
            f"{stream.get('traffic_reduction', 0.0):.1%}"
            + (
                f" {dim}(window "
                + (
                    f"{window['traffic_reduction']:.1%}"
                    if window.get("traffic_reduction") is not None
                    else "n/a"
                )
                + f"){reset}"
            )
        ),
    ]
    return "\n".join(lines)
