"""Table I — intermediate data of one shuffle block, per application.

For each of the eleven HiBench applications the paper measured one shuffle
block compressed and uncompressed.  Here each app's shuffle runs through
Swallow on a thin link (so everything compresses) and the measured on-wire
bytes must reproduce the app's Table I ratio.
"""

import numpy as np
import pytest

from repro.analysis import ExperimentSetup, render_table, run_policy
from repro.traces.spark import TABLE_I, shuffle_coflow

#: Thin pipe + fast codec: compression is always worthwhile (Eq. 3 holds).
SETUP = ExperimentSetup(num_ports=4, bandwidth=1e4, slice_len=0.01)

#: Scale block sizes down to keep the wall-clock of 11 runs small; ratios
#: are size-independent here because flows carry ratio_override.
SCALE = 1e-4


def run_app(name: str):
    rng = np.random.default_rng(11)
    app = TABLE_I[name]
    # Keep the scaled block well above one slice of link capacity
    # (bandwidth * slice = 100 B), else FVDF rightly skips compression.
    min_bytes = 50 * SETUP.bandwidth * SETUP.slice_len
    mapper, reducer = rng.integers(0, 4, size=1), rng.integers(0, 4, size=1)
    coflow = shuffle_coflow(
        app, mapper, reducer,
        scale=max(SCALE, min_bytes / app.block_uncompressed),
    )
    res = run_policy("fvdf", [coflow], SETUP)
    measured = res.total_bytes_sent / res.total_bytes_original
    return measured


def run_all():
    return {name: run_app(name) for name in TABLE_I}


def test_table1_intermediate_data(once, report):
    out = once(run_all)
    rows = [
        [name, TABLE_I[name].block_compressed, TABLE_I[name].block_uncompressed,
         f"{TABLE_I[name].ratio * 100:.2f}%", f"{out[name] * 100:.2f}%"]
        for name in TABLE_I
    ]
    report(
        "table1_intermediate_data",
        render_table(
            ["application", "compressed (paper)", "uncompressed (paper)",
             "ratio (paper)", "ratio (measured)"],
            rows,
            title="Table I — intermediate data of one block in shuffles",
        ),
    )
    for name, measured in out.items():
        assert measured == pytest.approx(TABLE_I[name].ratio, abs=0.02), name
