"""Bitwise oracles for the pieces of an engine step on small active sets.

* Small fills (``rate_allocation._fill_small``) settle on Python lists
  and write back only the capacities a grant changed.  They must equal
  the general loop, ``_fill_in_order``, bit for bit in rates and in the
  final capacities: on 1–8 flows with demands, and without demands on
  up to ``_SMALL_BACKFILL`` flows (where the vectorized path only drops
  flows with no headroom before the same loop, which is kept below as
  the oracle).
* ``BigSwitch.check_feasible`` computes its per-port limits once, when
  the fabric is built.  It must raise on the same inputs, with the same
  message naming the same violator, as the version that multiplies the
  capacities per call (kept below), on per-port capacities.
* ``maxmin_fair`` runs its rounds on lists for a few flows and on
  arrays beyond; the two round loops must agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import rate_allocation as ra
from repro.errors import SchedulingError
from repro.fabric.bigswitch import FEASIBILITY_RTOL, BigSwitch, worst_violator
from repro.fabric.twotier import TwoTierFabric
from tests.test_maxmin_oracle import maxmin_cases

N_PORTS = 6

demand_values = st.one_of(
    st.sampled_from([0.0, -1.0, math.inf]),
    st.floats(min_value=-5.0, max_value=50.0, allow_nan=False),
)


@st.composite
def fills(draw, max_flows=8, with_demands=True):
    """A fill: flows on a 6-port big switch or a 3x2 two-tier fabric
    (whose rack dimensions exempt intra-rack flows with group -1), an
    ``order`` that may repeat flows, and optional demands."""
    n = draw(st.integers(1, 12))
    src = np.array(draw(st.lists(st.integers(0, N_PORTS - 1), min_size=n,
                                 max_size=n)), dtype=np.intp)
    dst = np.array(draw(st.lists(st.integers(0, N_PORTS - 1), min_size=n,
                                 max_size=n)), dtype=np.intp)
    caps = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
    rem_in = np.array(draw(st.lists(caps, min_size=N_PORTS,
                                    max_size=N_PORTS)))
    rem_out = np.array(draw(st.lists(caps, min_size=N_PORTS,
                                     max_size=N_PORTS)))
    extra = []
    if draw(st.booleans()):
        fabric = TwoTierFabric(3, 2, 10.0, draw(st.floats(1.0, 30.0)))
        extra = fabric.fresh_extra(src, dst)
    m = draw(st.integers(1, max_flows))
    order = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                   max_size=m)), dtype=np.intp)
    demands = None
    if with_demands and draw(st.booleans()):
        demands = np.array(draw(st.lists(demand_values, min_size=n,
                                         max_size=n)))
    return src, dst, rem_in, rem_out, extra, order, demands


def _dims(case):
    src, dst, rem_in, rem_out, extra, _, _ = case
    return ra.build_dims(
        src, dst, rem_in.copy(), rem_out.copy(),
        [(groups, caps.copy()) for groups, caps in extra],
    )


def _want(case):
    order, demands = case[5], case[6]
    if demands is None:
        return [math.inf] * len(order)
    return demands[order].tolist()


def _assert_bitwise(a_rates, a_dims, b_rates, b_dims):
    assert a_rates.tobytes() == b_rates.tobytes()
    for (_, a_caps), (_, b_caps) in zip(a_dims, b_dims):
        assert a_caps.tobytes() == b_caps.tobytes()


@settings(max_examples=300, deadline=None)
@given(fills())
@example((
    np.array([0, 0, 1]), np.array([1, 1, 0]), np.full(N_PORTS, 5.0),
    np.full(N_PORTS, 5.0), [], np.array([0, 0, 2, 0]),
    np.array([3.0, math.inf, -2.0]),
))
def test_small_fill_equals_fill_in_order(case):
    order = case[5]
    new_dims, old_dims = _dims(case), _dims(case)
    new, old = np.zeros(len(case[0])), np.zeros(len(case[0]))
    ra._fill_small(new, new_dims, order, _want(case))
    ra._fill_in_order(
        old, old_dims, order, _want(case),
        [np.asarray(groups)[order] for groups, _ in old_dims],
    )
    _assert_bitwise(new, new_dims, old, old_dims)


def _backfill_oracle(order, dims, out):
    """The vectorized demand-free fill: drop flows without headroom
    now, then walk the rest with ``_fill_in_order``."""
    ogroups, members, safe = ra.gather_groups(order, dims)
    room = np.full(len(order), np.inf)
    for (_, caps), member, sg in zip(dims, members, safe):
        np.minimum(room, caps[sg], where=member, out=room)
    pos = (room > 0.0).nonzero()[0]
    if pos.size:
        ra._fill_in_order(
            out, dims, order[pos], [math.inf] * pos.size,
            [og[pos] for og in ogroups],
        )


@settings(max_examples=300, deadline=None)
@given(fills(max_flows=ra._SMALL_BACKFILL, with_demands=False))
def test_demand_free_fill_equals_vectorized_prefilter(case):
    order = case[5]
    new_dims, old_dims = _dims(case), _dims(case)
    new, old = np.zeros(len(case[0])), np.zeros(len(case[0]))
    ra.priority_fill(order, new_dims, out=new)
    _backfill_oracle(order, old_dims, old)
    _assert_bitwise(new, new_dims, old, old_dims)


# ------------------------------------------------------------ feasibility
def _feasibility_oracle(fabric, src, dst, rates):
    """``BigSwitch.check_feasible`` with the limits computed per call."""
    if len(rates) == 0:
        return
    if rates.min() < 0:
        raise SchedulingError("negative rate in allocation")
    for side, ports, caps in (
        ("ingress", src, fabric.ingress.capacity),
        ("egress", dst, fabric.egress.capacity),
    ):
        load = np.bincount(ports, weights=rates, minlength=len(caps))
        over = load > caps * (1 + FEASIBILITY_RTOL)
        if np.count_nonzero(over):
            p = worst_violator(load, caps, over)
            raise SchedulingError(
                f"{side} port {p} oversubscribed: "
                f"{load[p]:.6g} > {caps[p]:.6g} B/s"
            )


def _outcome(check, *args):
    try:
        check(*args)
    except SchedulingError as exc:
        return str(exc)
    return None


rate_values = st.one_of(
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    st.sampled_from([0.0, 10.0, 10.0 * (1 + FEASIBILITY_RTOL), -0.5]),
)


capacity_values = st.one_of(
    st.floats(1.0, 20.0), st.sampled_from([10.0, 10.0 * (1 + FEASIBILITY_RTOL)])
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), rate_values),
             max_size=10),
    st.lists(capacity_values, min_size=4, max_size=4),
    st.lists(capacity_values, min_size=5, max_size=5),
)
def test_cached_limits_raise_like_per_call_limits(flows, cap_in, cap_out):
    """The limits ``BigSwitch`` computes once, when it is built, raise
    exactly as limits computed per call do, on per-port capacities."""
    fabric = BigSwitch(4, cap_in, egress_bandwidth=cap_out,
                       num_egress_ports=5)
    src = np.array([f[0] for f in flows], dtype=np.intp)
    dst = np.array([f[1] for f in flows], dtype=np.intp)
    rates = np.array([f[2] for f in flows], dtype=np.float64)
    for _ in range(2):  # a second check reuses the same limits
        assert _outcome(fabric.check_feasible, src, dst, rates) == _outcome(
            _feasibility_oracle, fabric, src, dst, rates
        )


@pytest.mark.parametrize("side", ["ingress", "egress"])
def test_feasibility_error_names_the_violating_side(side):
    fabric = BigSwitch(3, 10.0)
    # Ingress loads 8, 7, 5 fit; egress port 2 carries 11.
    src = np.array([0, 1, 2, 0])
    dst = np.array([2, 2, 0, 1])
    rates = np.array([4.0, 7.0, 5.0, 4.0])
    if side == "ingress":
        src, dst = dst, src
    with pytest.raises(SchedulingError) as exc:
        fabric.check_feasible(src, dst, rates)
    assert str(exc.value) == _outcome(
        _feasibility_oracle, fabric, src, dst, rates
    )
    assert str(exc.value).startswith(f"{side} port ")


# ----------------------------------------------------------- max-min fair
@settings(max_examples=300, deadline=None)
@given(maxmin_cases())
def test_maxmin_rounds_on_lists_equal_rounds_on_arrays(case):
    """``maxmin_fair`` runs its rounds on lists for a few flows and on
    arrays beyond; ``tests/test_maxmin_oracle.py`` holds the public
    function to the oracle, and this holds the two round loops to each
    other on the same cases, rates and capacities bit for bit."""
    src, dst, rem_in, rem_out, weights, demands, active, extra = case
    outs = []
    saved = ra._SMALL_MAXMIN
    try:
        for threshold in (len(src), 0):  # lists, then arrays
            ra._SMALL_MAXMIN = threshold
            caps = [rem_in.copy(), rem_out.copy()]
            ext = None if extra is None else [(g, c.copy()) for g, c in extra]
            with np.errstate(all="ignore"):
                rates = ra.maxmin_fair(
                    src, dst, *caps, weights=weights, demands=demands,
                    active=active, extra=ext,
                )
            caps += [c for _, c in ext or []]
            outs.append((rates, caps))
    finally:
        ra._SMALL_MAXMIN = saved
    (a_rates, a_caps), (b_rates, b_caps) = outs
    assert a_rates.tobytes() == b_rates.tobytes()
    for a, b in zip(a_caps, b_caps):
        assert a.tobytes() == b.tobytes()
