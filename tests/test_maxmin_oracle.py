"""Max-min fair rates, bit for bit against the progressive-filling oracle.

``rate_allocation.maxmin_fair`` builds its loop invariants (member masks,
member groups, in-bounds group indices) once per call.  The version it
replaced, which rebuilt them every round, is kept below as the oracle:
rates and the final capacities must be ``np.array_equal`` to it on big-
switch cases (two dimensions) and TwoTier-style cases (three or four
dimensions with exempt ``-1`` groups), with unit or size weights (zeros
included), ``active`` masks, and demands that are absent, positive or
zero.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import rate_allocation as ra
from repro.core.rate_allocation import _EPS, build_dims
from repro.errors import ConfigurationError


def _maxmin_oracle(src, dst, rem_in, rem_out, weights=None, demands=None,
                   active=None, extra=None):
    """Progressive filling with per-round masks and group gathers."""
    n = len(src)
    rates = np.zeros(n, dtype=np.float64)
    if n == 0:
        return rates
    dims = build_dims(src, dst, rem_in, rem_out, extra)
    if weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64).copy()
        if np.any(w < 0):
            raise ConfigurationError("weights must be non-negative")
    live = np.ones(n, dtype=bool) if active is None else active.copy()
    live &= w > 0
    if demands is not None:
        live &= demands > 0

    while live.any():
        w_live = np.where(live, w, 0.0)
        lam_flow = np.full(n, np.inf)
        for groups, caps in dims:
            member = groups >= 0
            gsum = np.bincount(
                groups[member], weights=w_live[member], minlength=len(caps)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = np.where(gsum > 0, caps / gsum, np.inf)
            lam_flow[member] = np.minimum(lam_flow[member], lam[groups[member]])
        if demands is not None:
            with np.errstate(divide="ignore"):
                lam_demand = np.where(live, (demands - rates) / w, np.inf)
            lam_flow = np.minimum(lam_flow, lam_demand)
        lam_flow = np.where(live, lam_flow, np.inf)
        lam_star = lam_flow.min()
        if not np.isfinite(lam_star) or lam_star < 0:
            break
        inc = np.where(live, w * lam_star, 0.0)
        rates += inc
        newly_frozen = live & (lam_flow <= lam_star * (1 + 1e-9) + _EPS)
        for groups, caps in dims:
            member = groups >= 0
            caps -= np.bincount(
                groups[member], weights=inc[member], minlength=len(caps)
            )
            np.clip(caps, 0.0, None, out=caps)
            sat = caps <= _EPS * (1 + caps)
            newly_frozen |= live & member & sat[np.clip(groups, 0, None)]
        if not newly_frozen.any():
            break
        live &= ~newly_frozen
    return rates


_CAP = st.floats(0.0, 10.0, allow_nan=False)


@st.composite
def maxmin_cases(draw):
    n = draw(st.integers(1, 24))
    ports = draw(st.integers(1, 6))
    ints = lambda lo, hi: draw(  # noqa: E731
        st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    )
    src = np.array(ints(0, ports - 1), dtype=np.intp)
    dst = np.array(ints(0, ports - 1), dtype=np.intp)
    caps = lambda k: np.array(  # noqa: E731
        draw(st.lists(_CAP, min_size=k, max_size=k)), dtype=np.float64
    )
    rem_in, rem_out = caps(ports), caps(ports)
    # TwoTier-style rack dimensions: 1-2 extra dims, -1 = exempt.
    extra = None
    n_extra = draw(st.sampled_from([0, 0, 1, 2]))
    if n_extra:
        racks = draw(st.integers(1, 3))
        extra = [
            (np.array(ints(-1, racks - 1), dtype=np.intp), caps(racks))
            for _ in range(n_extra)
        ]
    sizes = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e6]),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    )
    weights = draw(st.sampled_from([None, sizes]))
    active = draw(st.sampled_from([
        None, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    ]))
    kind = draw(st.sampled_from(["none", "positive", "zeros"]))
    demands = None
    if kind != "none":
        lo = 0.0 if kind == "zeros" else 0.01
        demands = np.array(
            draw(st.lists(st.floats(lo, 5.0, allow_nan=False),
                          min_size=n, max_size=n)),
            dtype=np.float64,
        )
        if kind == "zeros":
            demands[:: 2] = 0.0
    return src, dst, rem_in, rem_out, weights, demands, active, extra


def _copy_extra(extra):
    return None if extra is None else [(g, c.copy()) for g, c in extra]


#: Ingress 0 is left within ``_EPS`` of empty by the first round without
#: binding it (its flow's growth limit exceeds the round's by more than
#: the freeze tolerance), so only the saturation test freezes that flow,
#: and only when it reads the capacities after the round's update.
SATURATED_WITHIN_EPS = (
    np.array([0, 1]), np.array([0, 1]),
    np.array([1e-4 + 5e-13, 1e-3]), np.array([1.0, 1.0]),
    np.array([0.1, 1.0]), None, None, None,
)


@given(maxmin_cases())
@example(SATURATED_WITHIN_EPS)
@settings(max_examples=500, deadline=None)
def test_maxmin_fair_equals_the_oracle_bitwise(case):
    src, dst, rem_in, rem_out, weights, demands, active, extra = case
    got_in, got_out = rem_in.copy(), rem_out.copy()
    got_extra = _copy_extra(extra)
    want_in, want_out = rem_in.copy(), rem_out.copy()
    want_extra = _copy_extra(extra)
    with np.errstate(all="ignore"):
        want = _maxmin_oracle(
            src, dst, want_in, want_out, weights=weights, demands=demands,
            active=active, extra=want_extra,
        )
    got = ra.maxmin_fair(
        src, dst, got_in, got_out, weights=weights, demands=demands,
        active=active, extra=got_extra,
    )
    assert np.array_equal(got, want)
    assert np.array_equal(got_in, want_in)
    assert np.array_equal(got_out, want_out)
    for (_, g), (_, w) in zip(got_extra or [], want_extra or []):
        assert np.array_equal(g, w)


def test_oracle_case_with_exempt_groups_and_zero_demands():
    src = np.array([0, 1, 1, 2])
    dst = np.array([1, 0, 2, 2])
    extra = [(np.array([-1, 0, 0, -1]), np.array([1.5]))]
    demands = np.array([0.0, 2.0, 0.25, 1.0])
    weights = np.array([1.0, 0.0, 2.0, 1.0])
    args = (src, dst)
    caps = lambda: (np.full(3, 1.0), np.full(3, 2.0))  # noqa: E731
    a_in, a_out = caps()
    b_in, b_out = caps()
    a_extra, b_extra = _copy_extra(extra), _copy_extra(extra)
    got = ra.maxmin_fair(*args, a_in, a_out, weights=weights, demands=demands,
                         extra=a_extra)
    with np.errstate(all="ignore"):
        want = _maxmin_oracle(*args, b_in, b_out, weights=weights,
                              demands=demands, extra=b_extra)
    assert np.array_equal(got, want)
    assert np.array_equal(a_in, b_in) and np.array_equal(a_out, b_out)
    assert np.array_equal(a_extra[0][1], b_extra[0][1])
