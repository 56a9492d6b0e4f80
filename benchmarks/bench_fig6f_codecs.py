"""Fig. 6(f) — improvement over SEBF under different compression formats.

Paper: despite differing speed/ratio, FVDF exceeds SEBF with every codec
(LZ4, Snappy, LZF, LZO, Zstandard).
"""

from repro.analysis import ExperimentSetup, render_table
from repro.runner import RunSpec, WorkloadSpec, run_specs
from repro.units import mbps
from workloads import coflow_trace

CODECS = ["lz4", "snappy", "lzf", "lzo", "zstd"]


def run_all():
    # One (codec × policy) fan-out through the sweep runner (see fig6e).
    workload = WorkloadSpec.inline(coflow_trace(seed=14))
    specs = [
        RunSpec(
            policy=p, workload=workload, key=f"{codec}/{p}",
            setup=ExperimentSetup(
                num_ports=16, bandwidth=mbps(100), slice_len=0.01, codec=codec
            ),
        )
        for codec in CODECS
        for p in ["sebf", "fvdf"]
    ]
    by_key = {out.key: out.summary for out in run_specs(specs)}
    return {
        codec: {
            "speedup": (
                by_key[f"{codec}/sebf"].avg_cct / by_key[f"{codec}/fvdf"].avg_cct
            ),
            "traffic_reduction": by_key[f"{codec}/fvdf"].traffic_reduction,
        }
        for codec in CODECS
    }


def test_fig6f_codecs(once, report):
    table = once(run_all)
    rows = [
        [codec, d["speedup"], f"{d['traffic_reduction'] * 100:.1f}%"]
        for codec, d in table.items()
    ]
    report(
        "fig6f_codecs",
        render_table(
            ["codec", "CCT speedup vs SEBF", "traffic reduction"], rows,
            title="Fig. 6(f) — FVDF vs SEBF under different compression formats",
        ),
    )
    # FVDF exceeds SEBF with every codec.
    for codec, d in table.items():
        assert d["speedup"] > 1.0, codec
        assert d["traffic_reduction"] > 0.1, codec
    # Stronger compression (zstd's lower ratio) saves more traffic than the
    # weakest-ratio codec (lz4).
    assert table["zstd"]["traffic_reduction"] > table["lz4"]["traffic_reduction"]
