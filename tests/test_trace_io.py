"""CSV workload serialisation."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.traces import read_csv_trace, write_csv_trace
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.traces.spark import TABLE_I, shuffle_coflow


def roundtrip(coflows):
    buf = io.StringIO()
    write_csv_trace(coflows, buf)
    buf.seek(0)
    return read_csv_trace(buf)


class TestRoundTrip:
    def test_structure_preserved(self, rng):
        cfg = WorkloadConfig(num_coflows=10, num_ports=6, width=(1, 4),
                             arrival_rate=1.0, compressible_fraction=0.5)
        original = generate_workload(cfg, rng)
        back = roundtrip(original)
        assert len(back) == len(original)
        for a, b in zip(original, back):
            assert a.width == b.width
            assert a.arrival == b.arrival
            assert a.label == b.label
            for fa, fb in zip(a.flows, b.flows):
                assert (fa.src, fa.dst) == (fb.src, fb.dst)
                assert fa.size == fb.size
                assert fa.compressible == fb.compressible

    def test_ratio_override_preserved(self):
        original = [
            shuffle_coflow(app, [k % 4, 3], [(k + 1) % 4], arrival=float(k))
            for k, app in enumerate(list(TABLE_I.values())[:4])
        ]
        back = roundtrip(original)
        for a, b in zip(original, back):
            for fa, fb in zip(a.flows, b.flows):
                assert fa.ratio_override == pytest.approx(fb.ratio_override)

    def test_file_roundtrip(self, rng, tmp_path):
        cfg = WorkloadConfig(num_coflows=5, num_ports=4)
        original = generate_workload(cfg, rng)
        path = tmp_path / "trace.csv"
        write_csv_trace(original, path)
        back = read_csv_trace(path)
        assert sum(c.size for c in back) == pytest.approx(
            sum(c.size for c in original)
        )

    def test_replayable(self, rng):
        from repro.analysis import ExperimentSetup, run_policy

        cfg = WorkloadConfig(num_coflows=4, num_ports=4)
        back = roundtrip(generate_workload(cfg, rng))
        res = run_policy("sebf", back,
                         ExperimentSetup(num_ports=4, bandwidth=1e6))
        assert len(res.coflow_results) == 4


class TestErrors:
    def test_bad_header(self):
        with pytest.raises(TraceFormatError, match="bad CSV header"):
            read_csv_trace(io.StringIO("a,b,c\n1,2,3\n"))

    def test_malformed_row(self):
        text = (
            "coflow_id,label,arrival,src,dst,size,compressible,ratio_override\n"
            "1,x,0.0,zero,1,10.0,1,\n"
        )
        with pytest.raises(TraceFormatError, match="malformed"):
            read_csv_trace(io.StringIO(text))

    def test_inconsistent_arrivals(self):
        text = (
            "coflow_id,label,arrival,src,dst,size,compressible,ratio_override\n"
            "1,x,0.0,0,1,10.0,1,\n"
            "1,x,2.0,0,1,10.0,1,\n"
        )
        with pytest.raises(TraceFormatError, match="inconsistent"):
            read_csv_trace(io.StringIO(text))
