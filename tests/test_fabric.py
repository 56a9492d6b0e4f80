"""Big-switch fabric and port bookkeeping."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.fabric.bigswitch import BigSwitch
from repro.fabric.ports import PortSet, port_loads


def test_portset_scalar_broadcast():
    ps = PortSet(3, 2.0)
    assert np.allclose(ps.capacity, [2.0, 2.0, 2.0])


def test_portset_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        PortSet(2, 0.0)
    with pytest.raises(ConfigurationError):
        PortSet(2, [1.0, -1.0])
    with pytest.raises(ConfigurationError):
        PortSet(0, 1.0)


def test_portset_capacity_is_readonly():
    ps = PortSet(2, 1.0)
    with pytest.raises(ValueError):
        ps.capacity[0] = 5.0


def test_portset_remaining_is_writable_copy():
    ps = PortSet(2, 1.0)
    rem = ps.remaining()
    rem[0] = 0.0
    assert ps.capacity[0] == 1.0


def test_port_loads():
    loads = port_loads(np.array([0, 0, 2]), np.array([1.0, 2.0, 5.0]), 4)
    assert np.allclose(loads, [3.0, 0.0, 5.0, 0.0])


def test_bigswitch_asymmetric():
    sw = BigSwitch(num_ports=2, bandwidth=1.0, egress_bandwidth=3.0, num_egress_ports=5)
    assert sw.num_ingress == 2
    assert sw.num_egress == 5
    assert np.allclose(sw.egress.capacity, 3.0)


def test_feasibility_accepts_valid():
    sw = BigSwitch(3, 1.0)
    sw.check_feasible(np.array([0, 1]), np.array([1, 2]), np.array([0.5, 1.0]))


def test_feasibility_rejects_ingress_oversubscription():
    sw = BigSwitch(3, 1.0)
    with pytest.raises(SchedulingError, match="ingress port 0"):
        sw.check_feasible(np.array([0, 0]), np.array([1, 2]), np.array([0.6, 0.6]))


def test_feasibility_rejects_egress_oversubscription():
    sw = BigSwitch(3, 1.0)
    with pytest.raises(SchedulingError, match="egress port 2"):
        sw.check_feasible(np.array([0, 1]), np.array([2, 2]), np.array([0.6, 0.6]))


def test_feasibility_names_the_ingress_violator():
    """Port 1 carries the larger absolute excess but is within
    ``FEASIBILITY_RTOL`` of its capacity; port 0 is the violator."""
    sw = BigSwitch(2, [1.0, 1e10], egress_bandwidth=1e11)
    with pytest.raises(SchedulingError, match="ingress port 0 oversubscribed"):
        sw.check_feasible(
            np.array([0, 1]), np.array([0, 1]), np.array([1.1, 1e10 + 5e3])
        )


def test_feasibility_names_the_egress_violator():
    sw = BigSwitch(2, 1e11, egress_bandwidth=[1e10, 1.0])
    with pytest.raises(SchedulingError, match="egress port 1 oversubscribed"):
        sw.check_feasible(
            np.array([0, 1]), np.array([0, 1]), np.array([1e10 + 5e3, 1.1])
        )


def test_feasibility_rejects_negative_rates():
    sw = BigSwitch(3, 1.0)
    with pytest.raises(SchedulingError, match="negative"):
        sw.check_feasible(np.array([0]), np.array([1]), np.array([-0.1]))


def test_flow_link_cap_is_min_of_both_ends():
    sw = BigSwitch(num_ports=2, bandwidth=[1.0, 4.0], egress_bandwidth=[2.0, 3.0])
    caps = sw.flow_link_cap(np.array([0, 1]), np.array([1, 0]))
    assert np.allclose(caps, [1.0, 2.0])


def test_validate_endpoints():
    sw = BigSwitch(2, 1.0)
    with pytest.raises(ConfigurationError):
        sw.validate_endpoints(np.array([2]), np.array([0]))
    with pytest.raises(ConfigurationError):
        sw.validate_endpoints(np.array([0]), np.array([5]))
