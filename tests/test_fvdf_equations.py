"""Direct numeric checks of the paper's equations (Eq. 1–3, 7, 8).

These bypass the engine: a hand-built SchedulerView pins the exact
arithmetic of the core contribution.
"""

import numpy as np
import pytest

from repro.compression.codecs import Codec
from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.events import EventKind, ScheduleTrigger
from repro.core.flow import Flow
from repro.core.fvdf import (
    coflow_gamma,
    compression_strategy,
    expected_fct,
    upgrade,
)
from repro.core.scheduler import CoflowState, SchedulerView
from repro.fabric.bigswitch import BigSwitch


def make_view(
    raw, comp, xi, src=None, dst=None, bandwidth=1.0, slice_len=0.1,
    compressible=None, free_cores=None, engine=None, coflow_groups=None,
):
    n = len(raw)
    raw = np.asarray(raw, dtype=np.float64)
    comp = np.asarray(comp, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    src = np.zeros(n, dtype=np.intp) if src is None else np.asarray(src, dtype=np.intp)
    dst = np.zeros(n, dtype=np.intp) if dst is None else np.asarray(dst, dtype=np.intp)
    fabric = BigSwitch(int(max(src.max(), dst.max())) + 1, bandwidth)
    groups = coflow_groups or [list(range(n))]
    states = []
    for g in groups:
        cof = Coflow([Flow(int(src[i]), int(dst[i]), float(raw[i] + comp[i]) or 1.0)
                      for i in g])
        states.append(CoflowState(coflow=cof, flow_idx=np.asarray(g, dtype=np.intp)))
    return SchedulerView(
        time=0.0,
        slice_len=slice_len,
        trigger=ScheduleTrigger({EventKind.ARRIVAL}),
        fabric=fabric,
        flow_ids=np.arange(n),
        src=src,
        dst=dst,
        raw=raw,
        comp=comp,
        xi=xi,
        size=raw + comp,
        arrival=np.zeros(n),
        coflow_ids=np.asarray(
            [states[k].coflow_id for k, g in enumerate(groups) for _ in g]
        ),
        compressible=(np.ones(n, dtype=bool) if compressible is None
                      else np.asarray(compressible, dtype=bool)),
        coflows=states,
        free_cores=(np.full(fabric.num_ingress, 4) if free_cores is None
                    else np.asarray(free_cores)),
        compression=engine,
    )


def engine(speed, ratio):
    return CompressionEngine(
        Codec("eq", speed=speed, decompression_speed=4 * speed, ratio=ratio),
        size_dependent=False,
    )


class TestEq7:
    def test_without_compression(self):
        """β=0: Γ_F = δ + (V − B·δ)/B = V/B exactly."""
        view = make_view(raw=[10.0], comp=[0.0], xi=[0.5], bandwidth=2.0,
                         slice_len=0.1)
        gamma = expected_fct(view, beta=np.array([False]))
        assert gamma[0] == pytest.approx(10.0 / 2.0)

    def test_with_compression(self):
        """β=1: one slice of Δc = R(1−ξ)δ disposal, remainder at B."""
        eng = engine(speed=8.0, ratio=0.25)
        view = make_view(raw=[10.0], comp=[0.0], xi=[0.25], bandwidth=2.0,
                         slice_len=0.1, engine=eng)
        gamma = expected_fct(view, beta=np.array([True]))
        # Δc = 8·0.75·0.1 = 0.6 ;  Γ = 0.1 + (10 − 0.6)/2 = 4.8
        assert gamma[0] == pytest.approx(4.8)

    def test_disposal_never_negative(self):
        """A flow smaller than one slice's disposal clamps at zero."""
        view = make_view(raw=[0.05], comp=[0.0], xi=[0.5], bandwidth=2.0,
                         slice_len=0.1)
        gamma = expected_fct(view, beta=np.array([False]))
        assert gamma[0] == pytest.approx(0.1)  # just the slice itself


class TestEq8:
    def test_max_over_members(self):
        view = make_view(
            raw=[4.0, 9.0, 2.0], comp=[0.0, 0.0, 0.0], xi=[0.5] * 3,
            src=[0, 1, 2], dst=[0, 1, 2], bandwidth=1.0, slice_len=0.1,
        )
        g = coflow_gamma(view, beta=np.zeros(3, dtype=bool))
        assert g[0] == pytest.approx(9.0)  # slowest flow dominates

    def test_per_coflow_groups(self):
        view = make_view(
            raw=[4.0, 9.0], comp=[0.0, 0.0], xi=[0.5, 0.5],
            src=[0, 1], dst=[0, 1], bandwidth=1.0,
            coflow_groups=[[0], [1]],
        )
        g = coflow_gamma(view, beta=np.zeros(2, dtype=bool))
        assert g[0] == pytest.approx(4.0)
        assert g[1] == pytest.approx(9.0)


class TestEq3Strategy:
    def test_enabled_exactly_when_disposal_beats_link(self):
        eng = engine(speed=4.0, ratio=0.5)  # disposal 2.0
        for bandwidth, expect in [(1.0, True), (3.0, False)]:
            view = make_view(raw=[10.0], comp=[0.0], xi=[0.5],
                             bandwidth=bandwidth, engine=eng)
            beta = compression_strategy(view)
            assert bool(beta[0]) is expect, bandwidth

    def test_respects_compressible_flag(self):
        eng = engine(speed=100.0, ratio=0.5)
        view = make_view(raw=[10.0], comp=[0.0], xi=[0.5],
                         compressible=[False], engine=eng)
        assert not compression_strategy(view).any()

    def test_respects_core_budget(self):
        eng = engine(speed=100.0, ratio=0.5)
        view = make_view(raw=[10.0, 10.0], comp=[0.0, 0.0], xi=[0.5, 0.5],
                         src=[0, 0], dst=[0, 0], free_cores=[1],
                         engine=eng)
        beta = compression_strategy(view)
        assert beta.sum() == 1

    def test_sub_slice_volume_guard(self):
        """Δt would already finish the flow: never compress (DESIGN.md)."""
        eng = engine(speed=100.0, ratio=0.5)
        view = make_view(raw=[0.05], comp=[0.0], xi=[0.5], bandwidth=1.0,
                         slice_len=0.1, engine=eng)
        assert not compression_strategy(view).any()

    def test_raw_exhausted_flow_not_compressed(self):
        eng = engine(speed=100.0, ratio=0.5)
        view = make_view(raw=[0.0], comp=[5.0], xi=[0.5], engine=eng)
        assert not compression_strategy(view).any()


class TestUpgrade:
    """Pseudocode 3's Upgrade on the view's priority columns."""

    @staticmethod
    def two_coflows():
        return make_view(raw=[1.0, 1.0], comp=[0.0, 0.0], xi=[0.5, 0.5],
                         src=[0, 1], dst=[0, 1],
                         coflow_groups=[[0], [1]])

    def test_multiplies_priority_classes(self):
        view = self.two_coflows()
        upgrade(view, logbase=1.2)
        p = upgrade(view, logbase=1.2)
        slots, prio, served = view.priority_columns()
        assert p.tolist() == [1.0 * 1.2 * 1.2] * 2
        assert prio[slots].tolist() == p.tolist()
        assert served.all()  # upgrade never touches the served flags

    def test_ages_only_the_waiting(self):
        view = self.two_coflows()
        p = upgrade(view, logbase=1.2, waiting=np.array([False, True]))
        assert p.tolist() == [1.0, 1.2]

    def test_writes_through_the_slots(self):
        """The grouping's coflows are rows ``slots`` of the columns (an
        engine's slot columns); other rows stay as they were."""
        view = self.two_coflows()
        prio = np.array([3.0, 5.0, 7.0])
        view.priority_table = (
            np.array([2, 0]), prio, np.ones(3, dtype=bool)
        )
        p = upgrade(view, logbase=2.0, waiting=np.array([True, False]))
        assert p.tolist() == [14.0, 3.0]
        assert prio.tolist() == [3.0, 5.0, 14.0]
