"""Columnar coflow ranking of the coflow-ordered baselines.

SEBF, SCF, NCF, LCF and coflow-FIFO rank coflows with one
``coflow_keys(view)`` array.  The per-coflow definitions they replaced
are kept below as the oracle: the keys must match them bit for bit, and
the allocation must equal a greedy fill over the old
``sorted(view.coflows, key=(key, arrival, id))`` order — on hypothesis
views (big switch and two-tier fabric) and on every decision of real
engine runs, where the engine supplies the per-coflow columns.
"""

from typing import Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rate_allocation as ra
from repro.core.coflow import Coflow
from repro.core.events import EventKind, ScheduleTrigger
from repro.core.flow import Flow
from repro.core.scheduler import CoflowState, SchedulerView, segment_sums
from repro.core.simulator import SliceSimulator
from repro.fabric.bigswitch import BigSwitch
from repro.fabric.twotier import TwoTierFabric
from repro.schedulers import SEBF, make_scheduler
from repro.traces.distributions import ConstantSize
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import mbps


# ------------------------------------------------ the per-coflow oracle
def _fifo_key(view, cs):
    return cs.coflow.arrival


def _sebf_key(view, cs):
    idx = cs.flow_idx
    extra = [(groups[idx], caps) for groups, caps in view.fresh_extra()]
    return ra.coflow_gamma(
        view.volume[idx],
        view.src[idx],
        view.dst[idx],
        view.fabric.ingress.capacity,
        view.fabric.egress.capacity,
        extra=extra,
    )


def _scf_key(view, cs):
    return float(view.volume[cs.flow_idx].sum())


def _ncf_key(view, cs):
    return float(cs.coflow.width)


def _lcf_key(view, cs):
    sets = {}
    for other in view.coflows:
        idx = other.flow_idx
        eps: Set[Tuple[str, int]] = set()
        eps.update(("in", int(p)) for p in view.src[idx])
        eps.update(("out", int(p)) for p in view.dst[idx])
        sets[other.coflow_id] = eps
    mine = sets[cs.coflow_id]
    return float(sum(
        len(mine & other) for cid, other in sets.items()
        if cid != cs.coflow_id
    ))


ORACLES = {
    "coflow-fifo": _fifo_key,
    "sebf": _sebf_key,
    "scf": _scf_key,
    "ncf": _ncf_key,
    "lcf": _lcf_key,
}


def _oracle_rates(scheduler, view, key):
    ordered = sorted(
        view.coflows,
        key=lambda cs: (key(view, cs), cs.coflow.arrival, cs.coflow_id),
    )
    rem_in, rem_out = view.fresh_capacity()
    extra = view.fresh_extra()
    if scheduler.rate_policy == "madd":
        return ra.madd(
            [cs.flow_idx for cs in ordered], view.src, view.dst, view.volume,
            rem_in, rem_out, extra=extra,
        )
    order = np.concatenate([cs.flow_idx for cs in ordered])
    return ra.greedy_priority(
        order, view.src, view.dst, rem_in, rem_out, extra=extra
    )


def assert_matches_oracle(scheduler, view, schedule=None):
    key = ORACLES[scheduler.name]
    old = np.array([key(view, cs) for cs in view.coflows], dtype=np.float64)
    new = scheduler.coflow_keys(view)
    assert new.dtype == np.float64
    assert np.array_equal(new, old), (new, old)
    rates = (schedule or scheduler.schedule)(view).rates
    assert np.array_equal(rates, _oracle_rates(scheduler, view, key))


# ------------------------------------------------------ hypothesis views
VOLUMES = st.sampled_from([0.1, 0.2, 0.3, 1.0 / 3.0, 1.0, 2.0, 7.5e5, 1e6])
CAPS = st.sampled_from([0.5, 1.0, 2.0, 3.0])


@st.composite
def views(draw, two_tier=False):
    if two_tier:
        racks, hosts = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        fabric = TwoTierFabric(
            racks, hosts,
            np.array(draw(st.lists(CAPS, min_size=racks * hosts,
                                   max_size=racks * hosts))),
            np.array(draw(st.lists(CAPS, min_size=racks, max_size=racks))),
        )
    else:
        ports = draw(st.integers(1, 5))
        fabric = BigSwitch(
            ports, np.array(draw(st.lists(CAPS, min_size=ports,
                                          max_size=ports))),
        )
    n_ports = fabric.num_ingress
    # Per coflow: active flows (possibly none) and already finished ones,
    # so the static width differs from the active count.
    shapes = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3),
                  st.sampled_from([0.0, 0.5, 1.0])),
        min_size=1, max_size=7,
    ))
    n = sum(active for active, _, _ in shapes)
    pos = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    src = np.array(draw(st.lists(st.integers(0, n_ports - 1),
                                 min_size=n, max_size=n)), dtype=np.intp)
    dst = np.array(draw(st.lists(st.integers(0, n_ports - 1),
                                 min_size=n, max_size=n)), dtype=np.intp)
    vol = np.array(draw(st.lists(VOLUMES, min_size=n, max_size=n)))
    states, coflow_of, k = [], np.zeros(n, dtype=np.int64), 0
    for active, finished, arrival in shapes:
        idx = pos[k : k + active]
        k += active
        flows = [Flow(int(src[i]), int(dst[i]), 1.0) for i in idx]
        flows += [Flow(0, 0, 1.0) for _ in range(finished + (not flows))]
        cf = Coflow(flows, arrival=arrival)
        coflow_of[idx] = cf.coflow_id
        states.append(CoflowState(coflow=cf, flow_idx=idx))
    return SchedulerView(
        time=0.0, slice_len=0.01,
        trigger=ScheduleTrigger({EventKind.ARRIVAL}),
        fabric=fabric, flow_ids=np.arange(n), src=src, dst=dst,
        raw=vol, comp=np.zeros(n), xi=np.ones(n), size=vol.copy(),
        arrival=np.zeros(n), coflow_ids=coflow_of,
        compressible=np.zeros(n, dtype=bool), coflows=states,
        free_cores=np.zeros(n_ports, dtype=np.int64), compression=None,
    )


@pytest.mark.parametrize("name", sorted(ORACLES))
@given(view=views())
@settings(max_examples=60, deadline=None)
def test_keys_match_per_coflow_definitions(name, view):
    assert_matches_oracle(make_scheduler(name), view)


@given(view=views(two_tier=True))
@settings(max_examples=60, deadline=None)
def test_sebf_keys_match_on_two_tier_fabric(view):
    assert_matches_oracle(make_scheduler("sebf"), view)


@given(view=views(two_tier=True))
@settings(max_examples=30, deadline=None)
def test_madd_order_matches(view):
    assert_matches_oracle(SEBF(rate_policy="madd"), view)


@pytest.mark.parametrize("starts", [[0], [0, 0], [0, 0, 0], [0, 0, 2, 2]])
def test_segment_sums_of_empty_segments(starts):
    """Empty segments sum to ``0.0`` like an empty slice's ``.sum()``,
    also when every segment is empty."""
    col = np.array([0.1, 0.2])[: starts[-1]]
    starts = np.array(starts, dtype=np.intp)
    (sums,) = segment_sums((col,), np.diff(starts))
    assert sums.dtype == np.float64
    expect = [col[a:b].sum() for a, b in zip(starts[:-1], starts[1:])]
    assert sums.tolist() == expect


@pytest.mark.parametrize("w", range(1, 20))
def test_segment_sums_at_each_width(w):
    """Both paths and the width-8 boundary between them: a batch whose
    widest segments are ``w`` wide, with one segment of each narrower
    width."""
    rng = np.random.default_rng(w)
    width = np.array([w, w, *range(w)], dtype=np.intp)
    n = int(width.sum())
    col = rng.random(n) * rng.choice([1e-3, 1.0, 1e6], n)
    first = np.cumsum(width) - width
    (sums,) = segment_sums((col,), width)
    assert sums.tolist() == [col[a : a + k].sum() for a, k in zip(first, width)]


@given(
    widths=st.lists(st.integers(0, 40), max_size=12),
    gaps=st.lists(st.integers(0, 3), min_size=12, max_size=12),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_segment_sums_match_slice_sums(widths, gaps, data):
    """Bit for bit each slice's own ``.sum()``, at every width, for
    back-to-back segments and for segments with gaps between them."""
    width = np.array(widths, dtype=np.intp)
    spaced = width + np.array(gaps[: len(width)], dtype=np.intp)
    first = np.cumsum(spaced) - spaced
    n = int(spaced.sum())
    col = np.array(data.draw(st.lists(VOLUMES, min_size=n, max_size=n)))
    (sums,) = segment_sums((col,), width, first)
    assert sums.tolist() == [col[a : a + w].sum() for a, w in zip(first, width)]
    tiled = np.concatenate([col[a : a + w] for a, w in zip(first, width)] + [[]])
    (sums,) = segment_sums((tiled,), width)
    assert sums.tolist() == [col[a : a + w].sum() for a, w in zip(first, width)]


# ------------------------------------------------------------ engine runs
@pytest.mark.parametrize("fabric", ["bigswitch", "twotier"])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_engine_views_match_oracle(name, fabric):
    """Every decision of a run: the engine-supplied per-coflow columns
    equal the ones the states give, and keys and rates match the oracle."""
    if fabric == "twotier":
        net = TwoTierFabric(2, 3, mbps(100), mbps(150))
    else:
        net = BigSwitch(6, mbps(100))
    scheduler = make_scheduler(name)
    sim = SliceSimulator(net, scheduler, slice_len=0.01)
    cfg = WorkloadConfig(
        num_coflows=25, num_ports=6, size_dist=ConstantSize(4e5),
        width=(1, 8), arrival_rate=30.0,
    )
    sim.submit_many(generate_workload(cfg, np.random.default_rng(3)))
    schedule = scheduler.schedule
    seen = []

    def checked(view):
        ids, arrival, width = view.coflow_columns()
        assert ids.tolist() == [cs.coflow_id for cs in view.coflows]
        assert arrival.tolist() == [cs.coflow.arrival for cs in view.coflows]
        assert width.tolist() == [cs.coflow.width for cs in view.coflows]
        assert_matches_oracle(scheduler, view, schedule)
        seen.append(len(view.coflows))
        return schedule(view)

    scheduler.schedule = checked
    sim.run()
    assert max(seen) > 2
