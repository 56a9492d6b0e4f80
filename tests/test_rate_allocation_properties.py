"""Property-based tests for the rate-allocation primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rate_allocation as ra

N_PORTS = 5


@st.composite
def flow_sets(draw, max_flows=20):
    n = draw(st.integers(1, max_flows))
    src = draw(
        st.lists(st.integers(0, N_PORTS - 1), min_size=n, max_size=n).map(np.array)
    )
    dst = draw(
        st.lists(st.integers(0, N_PORTS - 1), min_size=n, max_size=n).map(np.array)
    )
    caps_in = draw(
        st.lists(
            st.floats(0.1, 10.0, allow_nan=False), min_size=N_PORTS, max_size=N_PORTS
        ).map(np.array)
    )
    caps_out = draw(
        st.lists(
            st.floats(0.1, 10.0, allow_nan=False), min_size=N_PORTS, max_size=N_PORTS
        ).map(np.array)
    )
    return src, dst, caps_in, caps_out


def _feasible(src, dst, rates, caps_in, caps_out):
    li = np.bincount(src, weights=rates, minlength=N_PORTS)
    lo = np.bincount(dst, weights=rates, minlength=N_PORTS)
    return np.all(li <= caps_in * (1 + 1e-6)) and np.all(lo <= caps_out * (1 + 1e-6))


@given(flow_sets())
@settings(max_examples=200, deadline=None)
def test_maxmin_is_feasible_and_nonnegative(fs):
    src, dst, ci, co = fs
    rates = ra.maxmin_fair(src, dst, ci.copy(), co.copy())
    assert np.all(rates >= 0)
    assert _feasible(src, dst, rates, ci, co)


@given(flow_sets())
@settings(max_examples=200, deadline=None)
def test_maxmin_is_work_conserving(fs):
    """Every flow is bottlenecked: it touches a saturated port."""
    src, dst, ci, co = fs
    rates = ra.maxmin_fair(src, dst, ci.copy(), co.copy())
    li = np.bincount(src, weights=rates, minlength=N_PORTS)
    lo = np.bincount(dst, weights=rates, minlength=N_PORTS)
    in_sat = li >= ci * (1 - 1e-6)
    out_sat = lo >= co * (1 - 1e-6)
    for i in range(len(src)):
        assert in_sat[src[i]] or out_sat[dst[i]], (
            f"flow {i} has rate {rates[i]} but neither port is saturated"
        )


@given(flow_sets())
@settings(max_examples=200, deadline=None)
def test_greedy_priority_feasible_and_head_flow_unthrottled(fs):
    src, dst, ci, co = fs
    order = np.arange(len(src))
    rates = ra.greedy_priority(order, src, dst, ci.copy(), co.copy())
    assert np.all(rates >= 0)
    assert _feasible(src, dst, rates, ci, co)
    # The highest-priority flow always gets its full end-to-end capacity.
    assert rates[0] == min(ci[src[0]], co[dst[0]])


@given(flow_sets(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_madd_feasible_and_coflows_finish_together(fs, n_coflows):
    src, dst, ci, co = fs
    n = len(src)
    vol = np.linspace(1.0, 5.0, n)
    groups = [np.arange(i, n, n_coflows) for i in range(n_coflows)]
    rates = ra.madd(groups, src, dst, vol, ci.copy(), co.copy(), backfill=False)
    assert np.all(rates >= 0)
    assert _feasible(src, dst, rates, ci, co)
    # Inside one coflow, every flow that got a rate finishes at the same time.
    for g in groups:
        g = g[(rates[g] > 0)]
        if len(g) >= 2:
            finish = vol[g] / rates[g]
            assert np.allclose(finish, finish[0], rtol=1e-6)


@given(flow_sets())
@settings(max_examples=150, deadline=None)
def test_maxmin_weighted_dominance(fs):
    """A flow with twice the weight never gets a lower rate than its twin."""
    src, dst, ci, co = fs
    n = len(src)
    if n < 2:
        return
    # Make flows 0 and 1 identical endpoints, weight 2 vs 1.
    src = src.copy(); dst = dst.copy()
    src[1], dst[1] = src[0], dst[0]
    w = np.ones(n); w[0] = 2.0
    rates = ra.maxmin_fair(src, dst, ci.copy(), co.copy(), weights=w)
    assert rates[0] >= rates[1] - 1e-9


# -- the fill loop with exempt groups ----------------------------------------

#: Multiples of 1/8: sums of these are exact in float64 in any order, so
#: the bulk grant's one summed capacity update equals the loop's running
#: one and the whole fill can be compared bit for bit.
eighths = st.integers(0, 64).map(lambda k: k / 8)


@st.composite
def exempt_instances(draw):
    """2- or 3-dimension fills with at least one exempt (−1) flow in
    every dimension, demands of 0, positive or ``inf`` (or none:
    backfill) and an order that may repeat flows."""
    n_dims = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 24))
    dims = []
    for _ in range(n_dims):
        k = draw(st.integers(1, 4))
        groups = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
        groups[draw(st.integers(0, n - 1))] = -1
        caps = draw(st.lists(eighths, min_size=k, max_size=k))
        dims.append((np.array(groups, dtype=np.intp), np.array(caps)))
    demand = st.one_of(st.just(0.0), eighths, st.just(float("inf")))
    demands = draw(
        st.one_of(st.none(), st.lists(demand, min_size=n, max_size=n).map(np.array))
    )
    order = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return n, dims, demands, np.array(order, dtype=np.intp)


def _docstring_loop(n, dims, order, demands):
    """``priority_fill``'s documented semantics, flow by flow."""
    dims = [(groups, caps.copy()) for groups, caps in dims]
    rates = np.zeros(n)
    for i in order:
        r = ra.flow_headroom(i, dims)
        if demands is not None:
            r = min(r, demands[i])
        if r <= 0.0:
            continue
        rates[i] += r
        ra.consume(i, r, dims)
    return rates, [caps for _, caps in dims]


@given(exempt_instances())
@settings(max_examples=400, deadline=None)
def test_fill_with_exempt_groups_is_the_docstring_loop(inst):
    n, dims, demands, order = inst
    want_rates, want_caps = _docstring_loop(n, dims, order, demands)
    got_dims = [(groups, caps.copy()) for groups, caps in dims]
    rates = ra.priority_fill(order, got_dims, demands=demands, n=n)
    assert np.array_equal(rates, want_rates)
    for (_, caps), want in zip(got_dims, want_caps):
        assert np.array_equal(caps, want)
