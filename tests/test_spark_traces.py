"""Spark shuffle coflows and Table I application profiles."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traces.spark import (
    TABLE_I,
    AppProfile,
    get_profile,
    shuffle_coflow,
)


class TestTableI:
    def test_all_eleven_apps_present(self):
        assert len(TABLE_I) == 11

    @pytest.mark.parametrize(
        "name,ratio",
        [
            ("wordcount", 0.5591),
            ("sort", 0.2496),
            ("terasort", 0.2793),
            ("dfsio", 0.1897),
            ("logistic-regression", 0.7513),
            ("lda", 0.6830),
            ("svm", 0.4796),
            ("bayes", 0.2633),
            ("random-forest", 0.6830),
            ("pagerank", 0.4241),
            ("nweight", 0.2897),
        ],
    )
    def test_ratios_match_paper(self, name, ratio):
        assert get_profile(name).ratio == pytest.approx(ratio, abs=5e-4)

    def test_unknown_app(self):
        with pytest.raises(ConfigurationError):
            get_profile("bitcoin-miner")

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            AppProfile("x", 10, 5)  # compressed > uncompressed
        with pytest.raises(ConfigurationError):
            AppProfile("x", 0, 5)


class TestShuffleCoflow:
    def test_structure(self):
        app = get_profile("pagerank")
        c = shuffle_coflow(app, [0, 5, 7], [2, 3], arrival=5.0)
        assert c.width == 6
        assert c.arrival == 5.0
        assert c.label == "pagerank-shuffle"
        assert [(f.src, f.dst) for f in c.flows] == [
            (0, 2), (0, 3), (5, 2), (5, 3), (7, 2), (7, 3)
        ]
        for f in c.flows:
            assert f.ratio_override == pytest.approx(app.ratio)

    def test_sizes_near_block_size(self):
        app = get_profile("wordcount")
        c = shuffle_coflow(app, np.array([0, 1]), np.array([2, 3]))
        for f in c.flows:
            assert f.size == app.block_uncompressed

    def test_scale(self):
        app = get_profile("svm")
        c = shuffle_coflow(app, [0], [1], scale=10.0, label="svm-0")
        assert c.flows[0].size == pytest.approx(app.block_uncompressed * 10)
        assert c.label == "svm-0"

    def test_validation(self):
        app = get_profile("svm")
        with pytest.raises(ConfigurationError):
            shuffle_coflow(app, [], [1])
        with pytest.raises(ConfigurationError):
            shuffle_coflow(app, [0], np.array([], dtype=int))


class TestSparkTrace:
    def test_simulation_traffic_matches_app_ratio(self):
        """Replaying sort-only shuffles through FVDF on a slow link must
        reduce traffic by ~1 - 0.2496 (the Table I ratio)."""
        from repro.compression.engine import CompressionEngine
        from repro.core.simulator import SliceSimulator
        from repro.fabric.bigswitch import BigSwitch
        from repro.schedulers import make_scheduler

        sort = get_profile("sort")
        trace = [
            shuffle_coflow(sort, [k], [(k + 1) % 4], scale=1e-6, arrival=0.1 * k)
            for k in range(3)
        ]
        # fast codec + thin pipe: everything gets compressed.
        eng = CompressionEngine("lz4", size_dependent=False)
        sim = SliceSimulator(
            BigSwitch(4, bandwidth=1e3),
            make_scheduler("fvdf"),
            slice_len=0.01,
            compression=eng,
        )
        sim.submit_many(trace)
        res = sim.run()
        assert res.traffic_reduction == pytest.approx(1 - 0.2496, abs=0.05)
