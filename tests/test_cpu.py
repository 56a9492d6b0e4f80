"""CPU model and utilisation monitoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cores import CpuModel
from repro.cpu.monitor import UtilizationRecorder
from repro.errors import ConfigurationError


class TestCpuModel:
    def test_defaults_idle(self):
        cpu = CpuModel(3, cores_per_node=4)
        assert np.all(cpu.free_cores() == 4)
        assert np.all(cpu.busy_fraction() == 0.0)

    def test_claims_reduce_free_cores(self):
        cpu = CpuModel(2, cores_per_node=2)
        cpu.claim(0)
        assert cpu.free_cores()[0] == 1
        assert cpu.free_cores()[1] == 2
        assert cpu.busy_fraction()[0] == pytest.approx(0.5)
        cpu.release(0)
        assert cpu.free_cores()[0] == 2

    def test_over_release_raises(self):
        cpu = CpuModel(1)
        with pytest.raises(ConfigurationError):
            cpu.release(0)

    def test_release_all(self):
        cpu = CpuModel(1, cores_per_node=3)
        cpu.claim(0, 2)
        cpu.release_all()
        assert cpu.free_cores()[0] == 3

    def test_free_cores_never_negative(self):
        cpu = CpuModel(1, cores_per_node=2)
        cpu.claim(0, 3)  # engine bug scenario; model must still clamp
        assert cpu.free_cores()[0] == 0
        assert cpu.busy_fraction()[0] == 1.0

    @given(
        st.integers(1, 8),
        st.lists(st.integers(0, 12), min_size=1, max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_free_cores_are_the_unclaimed_cores(self, cores, claims):
        """Only claims occupy cores: each node frees ``cores - claims``
        whole cores, floored at 0 on over-claimed nodes, as int64."""
        cpu = CpuModel(len(claims), cores)
        for node, n in enumerate(claims):
            if n:
                cpu.claim(node, n)
        got = cpu.free_cores()
        assert got.dtype == np.int64
        assert got.tolist() == [max(cores - n, 0) for n in claims]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CpuModel(0)
        with pytest.raises(ConfigurationError):
            CpuModel(1, cores_per_node=0)


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
