"""The priority fill and the policies built on it match the scalar loop.

:func:`repro.core.rate_allocation.priority_fill` runs the flow-by-flow
loop on its contended remainder, after two vectorized shortcuts: the bulk
grant of uncontended flows (demand-capped fills) and the zero-headroom
prefilter (backfill).  Its rates must equal the scalar loop's to 1e-9 —
not just be feasible.  This module keeps its own copy of the scalar loop
as the oracle, so the production code can keep evolving without the
oracle silently following it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rate_allocation as ra

N_PORTS = 5
N_RACKS = 2
TOL = 1e-9


def scalar_priority_fill(order, dims, demands=None, out=None, n=None):
    """The pre-vectorization sequential loop, verbatim."""
    if out is None:
        if n is None:
            n = max((len(groups) for groups, _ in dims), default=0)
        out = np.zeros(n, dtype=np.float64)
    for i in order:
        r = ra.flow_headroom(i, dims)
        if demands is not None:
            r = min(r, float(demands[i]))
        if r <= 0.0:
            continue
        out[i] += r
        ra.consume(i, r, dims)
    return out


@st.composite
def fabrics(draw, max_flows=24):
    """Random fabric: big-switch ports plus optional rack-uplink dims."""
    n = draw(st.integers(1, max_flows))
    ints = st.integers(0, N_PORTS - 1)
    src = np.array(draw(st.lists(ints, min_size=n, max_size=n)))
    dst = np.array(draw(st.lists(ints, min_size=n, max_size=n)))
    caps = st.floats(0.05, 10.0, allow_nan=False)
    ci = np.array(draw(st.lists(caps, min_size=N_PORTS, max_size=N_PORTS)))
    co = np.array(draw(st.lists(caps, min_size=N_PORTS, max_size=N_PORTS)))
    extra = None
    if draw(st.booleans()):
        # Rack uplink dimension with exempt (-1) flows mixed in.
        groups = np.array(
            draw(
                st.lists(
                    st.integers(-1, N_RACKS - 1), min_size=n, max_size=n
                )
            )
        )
        ecaps = np.array(
            draw(st.lists(caps, min_size=N_RACKS, max_size=N_RACKS))
        )
        extra = [(groups, ecaps)]
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    demands = np.array(
        draw(
            st.lists(
                st.floats(0.0, 5.0, allow_nan=False), min_size=n, max_size=n
            )
        )
    )
    return src, dst, ci, co, extra, perm, demands


def _copy_extra(extra):
    if extra is None:
        return None
    return [(g, c.copy()) for g, c in extra]


@given(fabrics())
@settings(max_examples=150, deadline=None)
def test_greedy_priority_matches_scalar(fab):
    src, dst, ci, co, extra, perm, _ = fab
    dims_ref = ra.build_dims(src, dst, ci.copy(), co.copy(), _copy_extra(extra))
    expected = scalar_priority_fill(perm, dims_ref, n=len(src))
    got = ra.greedy_priority(
        perm, src, dst, ci.copy(), co.copy(), extra=_copy_extra(extra)
    )
    np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


@given(fabrics())
@settings(max_examples=150, deadline=None)
def test_minimal_rate_fill_matches_scalar(fab):
    """priority_fill with per-flow demand caps (FVDF's minimal pass)."""
    src, dst, ci, co, extra, perm, demands = fab
    dims_ref = ra.build_dims(src, dst, ci.copy(), co.copy(), _copy_extra(extra))
    expected = scalar_priority_fill(perm, dims_ref, demands=demands, n=len(src))
    dims = ra.build_dims(src, dst, ci.copy(), co.copy(), _copy_extra(extra))
    got = ra.priority_fill(perm, dims, demands=demands, n=len(src))
    np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


@given(fabrics())
@settings(max_examples=100, deadline=None)
def test_minimal_then_backfill_matches_scalar(fab):
    """The FVDF allocate shape: demand-capped fill, then backfill into
    the same rates array against the same mutated capacities."""
    src, dst, ci, co, extra, perm, demands = fab
    dims_ref = ra.build_dims(src, dst, ci.copy(), co.copy(), _copy_extra(extra))
    expected = scalar_priority_fill(perm, dims_ref, demands=demands, n=len(src))
    scalar_priority_fill(perm, dims_ref, out=expected)
    dims = ra.build_dims(src, dst, ci.copy(), co.copy(), _copy_extra(extra))
    gathers = ra.gather_groups(perm, dims)
    got = ra.priority_fill(
        perm, dims, demands=demands, n=len(src), gathers=gathers
    )
    ra.priority_fill(perm, dims, out=got, gathers=gathers)
    np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


@given(fabrics(), st.data())
@settings(max_examples=100, deadline=None)
def test_madd_matches_scalar_backfill(fab, data):
    """madd's vectorized backfill equals MADD pass + scalar backfill."""
    src, dst, ci, co, extra, perm, vol = fab
    n = len(src)
    k = data.draw(st.integers(1, max(1, n)))
    bounds = sorted(
        data.draw(
            st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)
        )
    )
    groups = [
        perm[a:b] for a, b in zip([0] + bounds, bounds + [n]) if b > a
    ]
    # Reference: MADD minimal pass (shared), then the scalar greedy
    # backfill the pre-vectorization implementation ran.  Capacities are
    # consumed exactly the way madd's pass does (per-group bincount with
    # a clip at zero).
    ref = ra.madd(
        groups, src, dst, vol, ci.copy(), co.copy(),
        backfill=False, extra=_copy_extra(extra),
    )
    dims_ref = ra.build_dims(src, dst, ci.copy(), co.copy(), _copy_extra(extra))
    for idx in groups:
        r = ref[idx]
        if not (r > 0).any():
            continue
        for g, caps in dims_ref:
            member = g[idx] >= 0
            caps -= np.bincount(
                g[idx][member], weights=r[member], minlength=len(caps)
            )
            np.clip(caps, 0.0, None, out=caps)
    flat = (
        np.concatenate([g for g in groups])
        if groups
        else np.empty(0, dtype=np.intp)
    )
    flat = flat[vol[flat] > 0]
    scalar_priority_fill(flat, dims_ref, out=ref)
    got = ra.madd(
        groups, src, dst, vol, ci.copy(), co.copy(),
        backfill=True, extra=_copy_extra(extra),
    )
    np.testing.assert_allclose(got, ref, atol=TOL, rtol=0)
