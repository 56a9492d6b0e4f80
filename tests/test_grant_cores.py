"""Core grants without a per-flow step.

``CompressionEngine.grant_cores`` resolves compression wishes against
per-node core budgets with array operations.  The per-flow walk it
replaced is kept below as the oracle: the grant must equal it on every
``want`` mask, node assignment, budget (zero included) and priority —
none, a permutation, or an order that repeats a flow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.engine import CompressionEngine


def _grant_loop(want, src, free_cores, priority=None):
    """The per-flow walk: each wanting flow, in priority order, takes a
    core while its node has one left."""
    granted = np.zeros(len(want), dtype=bool)
    budget = np.asarray(free_cores, dtype=np.int64).copy()
    order = priority if priority is not None else np.arange(len(want))
    for i in order:
        if not want[i]:
            continue
        node = src[i]
        if budget[node] > 0:
            granted[i] = True
            budget[node] -= 1
    return granted


@st.composite
def grant_cases(draw):
    n = draw(st.integers(0, 40))
    nodes = draw(st.integers(1, 6))
    want = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    src = np.array(
        draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    free = np.array(
        draw(st.lists(st.integers(0, 4), min_size=nodes, max_size=nodes)),
        dtype=np.int64,
    )
    kind = draw(st.sampled_from(["none", "perm", "repeat"]))
    if kind == "none" or n == 0:
        priority = None
    else:
        perm = draw(st.permutations(range(n)))
        if kind == "repeat":
            dup = draw(st.sampled_from(perm))
            at = draw(st.integers(0, n))
            perm = perm[:at] + [dup] + perm[at:]
        priority = np.array(perm, dtype=np.intp)
    return want, src, free, priority


@given(grant_cases())
@settings(max_examples=400, deadline=None)
def test_grant_equals_the_per_flow_walk(case):
    want, src, free, priority = case
    got = CompressionEngine().grant_cores(want, src, free, priority=priority)
    assert got.dtype == bool
    assert np.array_equal(got, _grant_loop(want, src, free, priority))
    # One core per granted flow, never beyond a node's budget.
    assert (np.bincount(src[got], minlength=len(free)) <= free).all()


@pytest.mark.parametrize("priority", [None, [3, 2, 1, 0], [1, 1, 0, 2, 3]])
def test_grant_examples(priority):
    want = np.array([True, True, False, True])
    src = np.array([0, 0, 1, 0])
    free = np.array([2, 5])
    order = None if priority is None else np.array(priority)
    got = CompressionEngine().grant_cores(want, src, free, priority=order)
    assert np.array_equal(got, _grant_loop(want, src, free, order))
