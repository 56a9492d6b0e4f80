"""Facebook coflow-benchmark trace format: parse, write, synthesise."""

import io

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traces.facebook import (
    read_facebook_trace,
    synthesize_facebook_like,
    write_facebook_trace,
)
from repro.units import MB

SAMPLE = """\
4 2
1 0 2 0 1 1 2:10
2 500 1 3 2 0:4 1:6
"""


class TestRead:
    def test_parses_sample(self):
        tr = read_facebook_trace(io.StringIO(SAMPLE))
        assert tr.num_ports == 4
        assert len(tr.coflows) == 2
        c1, c2 = tr.coflows
        # c1: 2 mappers x 1 reducer -> 2 flows of 5 MB each
        assert c1.width == 2
        assert all(f.size == pytest.approx(5 * MB) for f in c1.flows)
        assert {f.src for f in c1.flows} == {0, 1}
        assert {f.dst for f in c1.flows} == {2}
        assert c1.arrival == 0.0
        # c2: 1 mapper x 2 reducers, arrival 0.5 s
        assert c2.arrival == pytest.approx(0.5)
        assert sorted(f.size / MB for f in c2.flows) == [4.0, 6.0]

    def test_sorted_by_arrival(self):
        swapped = "4 2\n2 500 1 3 1 0:4\n1 0 1 0 1 1:2\n"
        tr = read_facebook_trace(io.StringIO(swapped))
        assert [c.arrival for c in tr.coflows] == [0.0, 0.5]

    def test_skips_blank_and_comment_lines(self):
        tr = read_facebook_trace(io.StringIO("1 1\n\n# comment\n1 0 1 0 1 0:1\n"))
        assert len(tr.coflows) == 1

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("x y\n", "bad header"),
            ("1\n", "bad header"),
            ("1 2\n1 0 1 0 1 0:1\n", "declares 2"),
            ("1 1\n1 0 1 0 1 0:-3\n", "non-positive"),
            ("2 1\n1 0 1 5 1 0:1\n", "out of range"),
            ("1 1\n1 0 1 0 2 0:1\n", "malformed"),
            ("1 1\n1 0 1 0 1 zebra\n", "malformed"),
        ],
    )
    def test_rejects_malformed(self, text, msg):
        with pytest.raises(TraceFormatError, match=msg):
            read_facebook_trace(io.StringIO(text))


class TestRoundTrip:
    def test_write_then_read(self, rng, tmp_path):
        tr = synthesize_facebook_like(rng, num_coflows=30, num_ports=20)
        path = tmp_path / "trace.txt"
        write_facebook_trace(tr, path)
        back = read_facebook_trace(path)
        assert back.num_ports == tr.num_ports
        assert len(back.coflows) == len(tr.coflows)
        # total bytes preserved (up to MB formatting precision)
        assert back.total_bytes == pytest.approx(tr.total_bytes, rel=1e-4)
        # per-coflow structure preserved
        for a, b in zip(tr.coflows, back.coflows):
            assert a.width == b.width
            assert a.arrival == pytest.approx(b.arrival, abs=1e-3)


class TestSynthesize:
    def test_shape(self, rng):
        tr = synthesize_facebook_like(rng, num_coflows=50, num_ports=30)
        assert len(tr.coflows) == 50
        assert tr.num_flows >= 50
        for c in tr.coflows:
            for f in c.flows:
                assert 0 <= f.src < 30 and 0 <= f.dst < 30

    def test_width_skew(self, rng):
        """Most coflows are narrow; some are wide (the FB trace's skew)."""
        tr = synthesize_facebook_like(rng, num_coflows=300, num_ports=100)
        widths = np.array([c.width for c in tr.coflows])
        assert np.median(widths) <= 4
        assert widths.max() >= 16

    def test_trace_summary(self, rng):
        from repro.traces.facebook import trace_summary

        tr = synthesize_facebook_like(rng, num_coflows=40, num_ports=30)
        s = trace_summary(tr)
        assert s["num_coflows"] == 40
        assert s["num_flows"] == tr.num_flows
        assert s["total_bytes"] == pytest.approx(tr.total_bytes)
        assert sum(s["bins"].values()) == 40
        assert s["max_width"] >= s["median_width"]

    def test_replayable_in_simulator(self, rng):
        from repro.core.simulator import SliceSimulator
        from repro.fabric.bigswitch import BigSwitch
        from repro.schedulers import make_scheduler

        tr = synthesize_facebook_like(rng, num_coflows=10, num_ports=10,
                                      arrival_rate=1.0, mean_reducer_mb=1.0)
        sim = SliceSimulator(
            BigSwitch(tr.num_ports, bandwidth=10 * MB),
            make_scheduler("sebf"),
            slice_len=0.01,
        )
        sim.submit_many(tr.coflows)
        res = sim.run()
        assert len(res.coflow_results) == 10
