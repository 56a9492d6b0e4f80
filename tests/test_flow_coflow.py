"""Flow and Coflow data-model behaviour."""

import pytest

from repro.core.coflow import Coflow, total_size
from repro.core.flow import Flow, FlowResult
from repro.errors import ConfigurationError


def test_flow_validation_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        Flow(src=0, dst=1, size=0)
    with pytest.raises(ConfigurationError):
        Flow(src=0, dst=1, size=-5)
    with pytest.raises(ConfigurationError, match="size must be finite, got nan"):
        Flow(0, 1, float("nan"))
    with pytest.raises(ConfigurationError, match="size must be finite, got inf"):
        Flow(0, 1, float("inf"))


def test_flow_validation_rejects_negative_ports_and_arrival():
    with pytest.raises(ConfigurationError):
        Flow(src=-1, dst=0, size=1)
    with pytest.raises(ConfigurationError):
        Flow(src=0, dst=-2, size=1)
    with pytest.raises(ConfigurationError):
        Flow(src=0, dst=0, size=1, arrival=-1.0)
    with pytest.raises(ConfigurationError, match="arrival must be finite, got inf"):
        Flow(src=0, dst=0, size=1, arrival=float("inf"))


def test_coflow_rejects_non_finite_arrival_and_deadline():
    with pytest.raises(ConfigurationError, match="arrival must be finite, got nan"):
        Coflow([Flow(0, 1, 1.0)], arrival=float("nan"))
    with pytest.raises(ConfigurationError, match="deadline must be finite, got inf"):
        Coflow([Flow(0, 1, 1.0)], deadline=float("inf"))


def test_flow_ids_are_unique_by_default():
    a, b = Flow(0, 1, 1.0), Flow(0, 1, 1.0)
    assert a.flow_id != b.flow_id


def test_coflow_stamps_members():
    flows = [Flow(0, 1, 10.0), Flow(1, 2, 20.0)]
    c = Coflow(flows, arrival=3.5, label="shuffle")
    assert all(f.coflow_id == c.coflow_id for f in flows)
    assert all(f.arrival == 3.5 for f in flows)


def test_coflow_requires_flows():
    with pytest.raises(ConfigurationError):
        Coflow([])


def test_coflow_aggregates():
    c = Coflow([Flow(0, 1, 10.0), Flow(0, 2, 30.0), Flow(1, 2, 20.0)])
    assert c.size == 60.0
    assert c.width == 3
    assert ("in", 0) in c.ports and ("out", 2) in c.ports
    assert len(c) == 3


def test_coflow_bottleneck_load():
    # port 0 carries 40 bytes in; egress 2 carries 50 bytes out.
    c = Coflow([Flow(0, 1, 10.0), Flow(0, 2, 30.0), Flow(1, 2, 20.0)])
    gamma = c.bottleneck_load(ingress_cap=[10.0, 10.0], egress_cap=[10.0, 10.0, 10.0])
    assert gamma == pytest.approx(5.0)  # egress 2: 50 bytes / 10 B/s


def test_total_size():
    c1 = Coflow([Flow(0, 1, 10.0)])
    c2 = Coflow([Flow(0, 1, 15.0)])
    assert total_size([c1, c2]) == 25.0


def test_flow_result_derived_metrics():
    fr = FlowResult(
        flow_id=1, coflow_id=2, src=0, dst=1, size=100.0, arrival=1.0,
        start=1.0, finish=5.0, finish_physical=4.9,
        bytes_sent=60.0, bytes_compressed_in=100.0,
    )
    assert fr.fct == pytest.approx(4.0)
    assert fr.traffic_saved == pytest.approx(40.0)
