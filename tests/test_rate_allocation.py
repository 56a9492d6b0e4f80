"""Rate-allocation primitives: greedy priority, max-min, MADD."""

import numpy as np
import pytest

from repro.core import rate_allocation as ra


def caps(n, c=1.0):
    return np.full(n, c)


class TestGreedyPriority:
    def test_respects_order(self):
        src = np.array([0, 0])
        dst = np.array([0, 0])
        rates = ra.greedy_priority(np.array([1, 0]), src, dst, caps(1), caps(1))
        assert np.allclose(rates, [0.0, 1.0])

    def test_non_conflicting_flows_all_served(self):
        src = np.array([0, 1, 2])
        dst = np.array([0, 1, 2])
        rates = ra.greedy_priority(np.arange(3), src, dst, caps(3), caps(3))
        assert np.allclose(rates, 1.0)

    def test_demand_caps_rate(self):
        src, dst = np.array([0, 1]), np.array([0, 0])
        rates = ra.greedy_priority(
            np.array([0, 1]), src, dst, caps(2), caps(1),
            demands=np.array([0.25, np.inf]),
        )
        assert np.allclose(rates, [0.25, 0.75])

    def test_min_of_both_ports(self):
        # flow 0 shares ingress with flow 1 and egress with flow 2
        src, dst = np.array([0, 0, 1]), np.array([0, 1, 0])
        rates = ra.greedy_priority(np.array([1, 2, 0]), src, dst, caps(2), caps(2))
        assert np.allclose(rates, [0.0, 1.0, 1.0])


class TestMaxminFair:
    def test_equal_split_on_shared_port(self):
        src, dst = np.array([0, 0]), np.array([0, 1])
        rates = ra.maxmin_fair(src, dst, caps(1), caps(2))
        assert np.allclose(rates, [0.5, 0.5])

    def test_weighted_split(self):
        src, dst = np.array([0, 0]), np.array([0, 1])
        rates = ra.maxmin_fair(src, dst, caps(1), caps(2), weights=np.array([2.0, 1.0]))
        assert np.allclose(rates, [2 / 3, 1 / 3])

    def test_unbottlenecked_flow_gets_full_rate(self):
        # flows 0,1 share ingress 0; flow 2 is alone.
        src, dst = np.array([0, 0, 1]), np.array([0, 1, 2])
        rates = ra.maxmin_fair(src, dst, caps(2), caps(3))
        assert np.allclose(rates, [0.5, 0.5, 1.0])

    def test_water_filling_redistributes(self):
        # Classic: flow A limited to 0.2 by demand; B and C share the rest.
        src, dst = np.array([0, 0, 0]), np.array([0, 1, 2])
        rates = ra.maxmin_fair(
            src, dst, caps(1), caps(3), demands=np.array([0.2, np.inf, np.inf])
        )
        assert np.allclose(rates, [0.2, 0.4, 0.4])

    def test_empty(self):
        rates = ra.maxmin_fair(
            np.array([], dtype=int), np.array([], dtype=int), caps(1), caps(1)
        )
        assert len(rates) == 0

    def test_zero_weight_flow_excluded(self):
        src, dst = np.array([0, 0]), np.array([0, 1])
        rates = ra.maxmin_fair(src, dst, caps(1), caps(2), weights=np.array([0.0, 1.0]))
        assert np.allclose(rates, [0.0, 1.0])

    def test_fig4_wss_rates(self):
        """The WSS rates of the motivating example (DESIGN.md derivation)."""
        # e0: f1 (w=4) vs f4 (w=2); e2: f3 (w=2) vs f5 (w=3); f2 alone.
        src = np.array([0, 1, 2, 0, 2])
        dst = np.array([0, 1, 2, 0, 2])
        w = np.array([4.0, 4.0, 2.0, 2.0, 3.0])
        rates = ra.maxmin_fair(src, dst, caps(3), caps(3), weights=w)
        assert np.allclose(rates, [2 / 3, 1.0, 2 / 5, 1 / 3, 3 / 5])


class TestMadd:
    def test_single_coflow_finishes_together(self):
        # Two flows of one coflow: 4 bytes and 2 bytes, disjoint ports.
        src, dst = np.array([0, 1]), np.array([0, 1])
        vol = np.array([4.0, 2.0])
        rates = ra.madd([np.array([0, 1])], src, dst, vol, caps(2), caps(2), backfill=False)
        # bottleneck is 4 s; the 2-byte flow gets exactly 0.5 B/s.
        assert np.allclose(rates, [1.0, 0.5])
        assert np.allclose(vol / rates, [4.0, 4.0])

    def test_backfill_uses_leftover(self):
        src, dst = np.array([0, 1]), np.array([0, 1])
        vol = np.array([4.0, 2.0])
        rates = ra.madd([np.array([0, 1])], src, dst, vol, caps(2), caps(2), backfill=True)
        assert np.allclose(rates, [1.0, 1.0])

    def test_second_coflow_gets_leftover(self):
        # coflow A: one 2-byte flow on port 0 (Γ=2, rate 1);
        # coflow B shares port 0 -> nothing left without backfill.
        src, dst = np.array([0, 0]), np.array([0, 1])
        vol = np.array([2.0, 2.0])
        rates = ra.madd(
            [np.array([0]), np.array([1])], src, dst, vol, caps(1), caps(2),
            backfill=False,
        )
        assert np.allclose(rates, [1.0, 0.0])

    def test_skips_empty_and_drained(self):
        src, dst = np.array([0]), np.array([0])
        rates = ra.madd(
            [np.array([], dtype=int), np.array([0])],
            src, dst, np.array([0.0]), caps(1), caps(1),
        )
        assert np.allclose(rates, [0.0])


class TestCoflowGamma:
    def test_bottleneck_port(self):
        src, dst = np.array([0, 0]), np.array([0, 1])
        gamma = ra.coflow_gamma(np.array([3.0, 3.0]), src, dst, caps(1, 2.0), caps(2, 1.0))
        # ingress 0 carries 6 bytes at 2 B/s = 3 s; each egress 3 bytes at 1 B/s.
        assert gamma == pytest.approx(3.0)

    def test_infinite_when_no_capacity(self):
        src, dst = np.array([0]), np.array([0])
        gamma = ra.coflow_gamma(np.array([1.0]), src, dst, np.array([0.0]), caps(1))
        assert gamma == float("inf")


class TestMaxminExemptFlows:
    def test_exempt_flow_survives_saturated_constraint_zero(self):
        """A flow with group -1 in an extra dimension must not freeze
        when that dimension's constraint 0 saturates.

        Exempt lanes are clipped to index 0 purely to keep the fancy
        index in bounds (np.clip(groups, 0, None)); the member mask must
        discard them before the saturation gather, otherwise a saturated
        constraint 0 freezes every exempt flow alongside its real
        members.
        """
        src = np.array([0, 1])
        dst = np.array([0, 1])
        extra = [(np.array([-1, 0]), np.array([0.5]))]
        rates = ra.maxmin_fair(
            src, dst, caps(2, 10.0), caps(2, 10.0), extra=extra
        )
        # Flow 1 saturates the extra constraint at 0.5 and freezes; flow 0
        # is exempt from it and keeps filling to its port limit.
        assert rates[1] == pytest.approx(0.5)
        assert rates[0] == pytest.approx(10.0)


# -- contended fill: zero-headroom prefilter and the shard plan -------------


def _fill(src, dst, ci, co, perm, demands, tail):
    """One ``priority_fill`` with the scalar-tail crossover pinned at
    ``tail``; returns the rates and the final capacities."""
    dims = ra.build_dims(src, dst, ci.copy(), co.copy(), None)
    old = ra._SCALAR_TAIL
    ra._SCALAR_TAIL = tail
    try:
        rates = ra.priority_fill(perm, dims, demands=demands, n=len(src))
    finally:
        ra._SCALAR_TAIL = old
    return rates, [c for _, c in dims]


def test_backfill_zero_headroom_prefilter():
    """Backfill against drained dimensions, on the vectorized rounds:
    the prefilter must grant nothing through dead groups and match the
    flow-by-flow loop bitwise."""
    n = 12
    rng = np.random.default_rng(7)
    src = rng.integers(0, 5, size=n)
    dst = rng.integers(0, 5, size=n)
    ci = np.array([0.0, 3.0, 0.0, 2.0, 1.0])  # two ingress ports drained
    co = np.array([1.0, 0.0, 2.0, 0.0, 3.0])  # two egress ports drained
    perm = np.arange(n, dtype=np.intp)
    rates, got_caps = _fill(src, dst, ci, co, perm, None, tail=0)
    ref = np.zeros(n)
    ref_dims = ra.build_dims(src, dst, ci.copy(), co.copy(), None)
    for i in perm:
        r = ra.flow_headroom(i, ref_dims)
        if r > 0.0:
            ref[i] += r
            ra.consume(i, r, ref_dims)
    assert np.array_equal(rates, ref)
    for got, (_, want) in zip(got_caps, ref_dims):
        assert np.array_equal(got, want)
    drained = (ci == 0.0)[src] | (co == 0.0)[dst]
    assert not rates[drained].any()


def _component_pool(n_comp=6, flows_per=40, seed=3):
    """Block-diagonal fabric: component c only touches its own 2 ports."""
    rng = np.random.default_rng(seed)
    n = n_comp * flows_per
    src = np.repeat(2 * np.arange(n_comp), flows_per)
    dst = src + 1
    ci = np.full(2 * n_comp, 4.0)
    co = np.full(2 * n_comp, 3.0)
    perm = rng.permutation(n).astype(np.intp)
    demands = rng.uniform(0.1, 2.0, size=n)
    return src, dst, ci, co, perm, demands


def _fused_rows(order, dims):
    """The fused (entry, group) rows the contended fill builds, sorted by
    fused group id."""
    rows_l, rowg_l, goff = [], [], 0
    for groups, caps_d in dims:
        idx = np.flatnonzero(groups[order] >= 0)
        rows_l.append(idx)
        rowg_l.append(groups[order][idx] + goff)
        goff += len(caps_d)
    rows = np.concatenate(rows_l)
    rowg = np.concatenate(rowg_l)
    srt = np.argsort(rowg, kind="stable")
    return rows[srt].astype(np.intp), rowg[srt]


def test_multi_shard_plan_matches_single_shard():
    """Lowering the shard floor activates the component decomposition;
    grants and capacities must match the single-shard plan bitwise."""
    from repro.core.kernels import fill

    src, dst, ci, co, perm, demands = _component_pool()
    ref_rates, ref_caps = _fill(src, dst, ci, co, perm, demands, tail=0)

    old_floor = fill.MIN_SHARD_ENTRIES
    fill.MIN_SHARD_ENTRIES = 8
    try:
        # The plan must actually split now — otherwise this test is vacuous.
        dims = ra.build_dims(src, dst, ci.copy(), co.copy(), None)
        rows, rowg = _fused_rows(perm, dims)
        plan = fill._plan_shards(rows, rowg, perm.size, ci.size + co.size)
        assert plan is not None and plan[1].size - 1 > 1
        rates, got_caps = _fill(src, dst, ci, co, perm, demands, tail=0)
    finally:
        fill.MIN_SHARD_ENTRIES = old_floor
    assert np.array_equal(rates, ref_rates)
    for got, want in zip(got_caps, ref_caps):
        assert np.array_equal(got, want)


def test_label_components_block_diagonal():
    from repro.core.kernels import partition

    src, dst, ci, co, perm, _ = _component_pool(n_comp=4, flows_per=16)
    dims = ra.build_dims(src, dst, ci.copy(), co.copy(), None)
    rows, rowg = _fused_rows(perm, dims)
    comp = partition.label_components(rows, rowg, perm.size, ci.size + co.size)
    assert comp is not None
    # Entries in the same block share a label; across blocks they differ.
    blocks = src[perm] // 2
    for b in range(4):
        assert np.unique(comp[blocks == b]).size == 1
    assert np.unique(comp).size == 4
