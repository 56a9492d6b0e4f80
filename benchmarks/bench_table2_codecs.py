"""Table II — compression parameters of the five codecs.

Reports the registry (the paper's measured speeds/ratios, which the
scheduler consumes) and asserts the Eq. 3 decision boundary that drives
all of Swallow's behaviour: LZ4 beats a 1 GbE link but not 10 GbE.  A
live measurement of a real stdlib codec on synthetic shuffle-like data
is printed and checked, but kept out of the saved report: its speeds are
wall-clock readings of the host, different on every run.
"""

import pytest

from repro.analysis import render_table
from repro.compression.calibrate import calibrated_codec
from repro.compression.codecs import TABLE_II
from repro.units import MB, gbps, mbps, rate_to_human


HEADER = ["codec", "compression", "decompression", "ratio",
          "disposal speed R(1-ξ)"]


def _row(c):
    return [
        c.name,
        rate_to_human(c.speed),
        rate_to_human(c.decompression_speed),
        f"{c.ratio * 100:.2f}%",
        rate_to_human(c.disposal_speed),
    ]


def run():
    rows = [_row(TABLE_II[name])
            for name in ["lz4", "lzo", "snappy", "lzf", "zstd"]]
    return rows, calibrated_codec("zlib", size=2 * int(MB))


def test_table2_codecs(once, report):
    rows, live = once(run)
    report(
        "table2_codecs",
        render_table(
            HEADER, rows, title="Table II — compression parameters of flows"
        ),
    )
    print(render_table(HEADER, [_row(live)], title="live (not saved)"))
    # Decompression is faster than compression for every codec (the paper's
    # justification for ignoring decompression time).
    for c in TABLE_II.values():
        assert c.decompression_speed > c.speed
    # Eq. 3 boundary: worthwhile at <=1 GbE, not at 10 GbE (for every codec).
    for c in TABLE_II.values():
        assert c.beats_bandwidth(mbps(100))
        assert not c.beats_bandwidth(gbps(10))
    assert TABLE_II["lz4"].beats_bandwidth(gbps(1))
    # The live codec round-trips and produces sane parameters.
    assert 0.02 <= live.ratio <= 0.98
    assert live.speed > 0
