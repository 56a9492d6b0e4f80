"""The experiment registry stays in sync with the benchmark files."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, get_experiment, reproduce

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


def test_every_registered_bench_exists():
    for exp in EXPERIMENTS.values():
        assert (BENCH_DIR / exp.bench).is_file(), exp.exp_id


def test_every_bench_file_is_registered():
    on_disk = {p.name for p in BENCH_DIR.glob("bench_*.py")}
    registered = {e.bench for e in EXPERIMENTS.values()}
    assert on_disk == registered


def test_lookup():
    exp = get_experiment("fig4")
    assert "Motivating" in exp.title
    assert exp.bench.startswith("bench_fig4")


def test_unknown_experiment_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown experiment 'fig99'"):
        get_experiment("fig99")
    with pytest.raises(ConfigurationError, match="unknown experiment 'fig99'"):
        reproduce("fig99", collect_only=True)


def test_reproduce_collect_only_collates_nothing(capsys):
    rc, collated = reproduce("fig4", collect_only=True)
    assert rc == 0 and collated is None
    assert "bench_fig4_motivating_example" in capsys.readouterr().out


def test_all_paper_artifacts_covered():
    """Every evaluation table/figure of the paper has an entry."""
    ids = set(EXPERIMENTS)
    for required in ["fig1", "fig2", "table1", "table2", "table3", "fig4",
                     "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
                     "table5", "table6", "fig7a", "fig7b+table7", "table8",
                     "fig7c"]:
        assert required in ids, required
