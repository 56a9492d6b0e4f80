"""CPU model and utilisation monitoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cores import CpuModel, PiecewiseConstantBackground, random_background
from repro.cpu.monitor import UtilizationRecorder
from repro.errors import ConfigurationError


class TestPiecewiseConstantBackground:
    def test_lookup(self):
        bg = PiecewiseConstantBackground([0.0, 10.0], np.array([[0.2], [0.8]]))
        assert bg(5.0)[0] == 0.2
        assert bg(10.0)[0] == 0.8
        assert bg(100.0)[0] == 0.8
        assert bg(-1.0)[0] == 0.2  # clamps to first step

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PiecewiseConstantBackground([], np.zeros((0, 1)))
        with pytest.raises(ConfigurationError):
            PiecewiseConstantBackground([1.0, 0.0], np.zeros((2, 1)))
        with pytest.raises(ConfigurationError):
            PiecewiseConstantBackground([0.0], np.array([[1.5]]))


class TestCpuModel:
    def test_defaults_idle(self):
        cpu = CpuModel(3, cores_per_node=4)
        assert np.all(cpu.free_cores(0.0) == 4)
        assert np.all(cpu.busy_fraction(0.0) == 0.0)

    def test_background_occupies_cores(self):
        cpu = CpuModel(2, cores_per_node=4, background=lambda t: 0.5)
        assert np.all(cpu.free_cores(0.0) == 2)
        # partial core use blocks the whole core
        cpu2 = CpuModel(2, cores_per_node=4, background=lambda t: 0.3)
        assert np.all(cpu2.free_cores(0.0) == 2)  # ceil(1.2) = 2 busy

    def test_claims_reduce_free_cores(self):
        cpu = CpuModel(2, cores_per_node=2)
        cpu.claim(0)
        assert cpu.free_cores(0.0)[0] == 1
        assert cpu.free_cores(0.0)[1] == 2
        assert cpu.busy_fraction(0.0)[0] == pytest.approx(0.5)
        cpu.release(0)
        assert cpu.free_cores(0.0)[0] == 2

    def test_over_release_raises(self):
        cpu = CpuModel(1)
        with pytest.raises(ConfigurationError):
            cpu.release(0)

    def test_release_all(self):
        cpu = CpuModel(1, cores_per_node=3)
        cpu.claim(0, 2)
        cpu.release_all()
        assert cpu.free_cores(0.0)[0] == 3

    def test_free_cores_never_negative(self):
        cpu = CpuModel(1, cores_per_node=2, background=lambda t: 1.0)
        cpu.claim(0, 1)  # engine bug scenario; model must still clamp
        assert cpu.free_cores(0.0)[0] == 0

    @given(
        st.integers(1, 8),
        st.lists(st.integers(0, 12), min_size=1, max_size=10),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_free_cores_without_background_equals_idle_background(
        self, cores, claims, t
    ):
        """No background model answers exactly as an always-idle one:
        same integers and dtype, over-claimed nodes included."""
        bare = CpuModel(len(claims), cores)
        idle = CpuModel(len(claims), cores, background=lambda t: 0.0)
        for node, n in enumerate(claims):
            if n:
                bare.claim(node, n)
                idle.claim(node, n)
        got, want = bare.free_cores(t), idle.free_cores(t)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CpuModel(0)
        with pytest.raises(ConfigurationError):
            CpuModel(1, cores_per_node=0)


class TestRandomBackground:
    def test_shape_and_bounds(self, rng):
        bg = random_background(rng, num_nodes=4, horizon=100.0, busy_level=0.7)
        for t in [0.0, 10.0, 50.0, 99.0]:
            v = bg(t)
            assert v.shape == (4,)
            assert np.all((v >= 0) & (v <= 1))

    def test_has_idle_periods(self, rng):
        bg = random_background(rng, num_nodes=1, horizon=200.0, busy_level=0.9)
        samples = np.array([bg(t)[0] for t in np.linspace(0, 200, 400)])
        assert (samples == 0).mean() > 0.2  # idle spells exist


class TestUtilizationRecorder:
    def test_sampling_and_stats(self):
        rec = UtilizationRecorder(2)
        rec.sample(0.0, np.array([0.0, 1.0]))
        rec.sample(1.0, np.array([0.0, 0.0]))
        assert len(rec) == 2
        assert rec.mean_utilization() == pytest.approx(0.25)
        assert rec.idle_time_fraction() == pytest.approx(0.75)

    def test_node_timeline_and_idle_periods(self):
        rec = UtilizationRecorder(1)
        for t, b in [(0, 0.0), (1, 0.0), (2, 0.9), (3, 0.0), (4, 0.9)]:
            rec.sample(t, np.array([b]))
        times, busy = rec.node_timeline(0)
        assert list(times) == [0, 1, 2, 3, 4]
        periods = rec.idle_periods(0)
        assert periods == [(0.0, 2.0), (3.0, 4.0)]

    def test_node_out_of_range(self):
        rec = UtilizationRecorder(1)
        with pytest.raises(ConfigurationError):
            rec.node_timeline(5)

    def test_sample_model(self):
        cpu = CpuModel(2, cores_per_node=2)
        cpu.claim(1)
        rec = UtilizationRecorder(2)
        rec.sample_model(0.0, cpu)
        assert rec.busy[0, 1] == pytest.approx(0.5)
