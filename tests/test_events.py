"""Event kinds and the arrival calendars (columnar + legacy heap)."""

import numpy as np

from repro.core.coflow import Coflow
from repro.core.events import (
    ArrivalCalendar,
    EventKind,
    HeapCalendar,
    ScheduleTrigger,
)
from repro.core.flow import Flow


def cf(arrival):
    return Coflow([Flow(0, 0, 1.0)], arrival=arrival)


class TestScheduleTrigger:
    def test_preemption_points(self):
        assert ScheduleTrigger({EventKind.ARRIVAL}).is_preemption_point
        assert ScheduleTrigger({EventKind.COMPLETION}).is_preemption_point
        assert not ScheduleTrigger({EventKind.RAW_EXHAUSTED}).is_preemption_point
        assert not ScheduleTrigger({EventKind.START}).is_preemption_point
        assert not ScheduleTrigger().is_preemption_point

    def test_flags(self):
        t = ScheduleTrigger({EventKind.ARRIVAL, EventKind.COMPLETION})
        assert t.has_arrival and t.has_completion


class TestArrivalCalendar:
    def test_orders_by_time(self):
        cal = ArrivalCalendar()
        cal.push(5.0, 0)  # slot 0 arrives late
        cal.push(1.0, 1)  # slot 1 arrives early
        assert cal.peek_time() == 1.0
        assert cal.pop_due(1.0).tolist() == [1]
        assert cal.pop_due(10.0).tolist() == [0]

    def test_stable_for_ties(self):
        cal = ArrivalCalendar()
        cal.push(2.0, 7)
        cal.push(2.0, 3)
        assert cal.pop_due(2.0).tolist() == [7, 3]

    def test_stable_for_ties_across_merges(self):
        # first batch merged (forced by a pop), second batch staged later:
        # insertion order must survive the merge of tied times.
        cal = ArrivalCalendar()
        cal.push(2.0, 7)
        assert cal.pop_due(1.0).size == 0  # forces a merge of [7]
        cal.push(2.0, 3)
        cal.push(1.0, 5)
        assert cal.pop_due(2.0).tolist() == [5, 7, 3]

    def test_batch_push_out_of_order(self):
        cal = ArrivalCalendar()
        cal.push_batch(np.array([3.0, 1.0, 2.0]), np.array([0, 1, 2]))
        assert len(cal) == 3
        assert cal.peek_time() == 1.0
        assert cal.pop_due(3.0).tolist() == [1, 2, 0]

    def test_pop_due_partial(self):
        cal = ArrivalCalendar()
        for slot, t in enumerate((1.0, 2.0, 3.0)):
            cal.push(t, slot)
        assert cal.pop_due(2.0).size == 2
        assert len(cal) == 1
        assert cal.peek_time() == 3.0

    def test_empty(self):
        cal = ArrivalCalendar()
        assert cal.peek_time() is None
        assert cal.pop_due(100.0).size == 0
        assert len(cal) == 0

    def test_discard(self):
        cal = ArrivalCalendar()
        cal.push(1.0, 0)
        cal.push(2.0, 1)
        cal.discard(0)
        assert len(cal) == 1
        assert cal.peek_time() == 2.0
        assert cal.pop_due(10.0).tolist() == [1]

    def test_discard_staged_entry(self):
        cal = ArrivalCalendar()
        cal.push(1.0, 0)
        assert cal.pop_due(0.5).size == 0  # merge slot 0
        cal.push(2.0, 1)  # staged
        cal.discard(1)
        assert len(cal) == 1
        assert cal.pop_due(10.0).tolist() == [0]

    def test_remap(self):
        cal = ArrivalCalendar()
        cal.push_batch(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 2]))
        # drain evicted slot 1: slot 2 becomes slot 1, slot 1 dropped
        cal.remap(np.array([0, -1, 1]))
        assert len(cal) == 2
        assert cal.pop_due(10.0).tolist() == [0, 1]

    def test_export_import_round_trip(self):
        cal = ArrivalCalendar()
        cal.push_batch(np.array([2.0, 2.0, 1.0]), np.array([4, 9, 2]))
        cal.discard(9)
        times, seqs, slots = cal.export_entries()
        other = ArrivalCalendar()
        other.import_entries(times, seqs, slots)
        assert len(other) == len(cal) == 2
        assert other.pop_due(10.0).tolist() == cal.pop_due(10.0).tolist()
        # a fresh push after import must not collide with imported seqs
        other.push(2.0, 13)
        assert other.pop_due(10.0).tolist() == [13]


class TestHeapCalendar:
    def test_orders_by_time(self):
        cal = HeapCalendar()
        late, early = cf(5.0), cf(1.0)
        cal.push(late)
        cal.push(early)
        assert cal.peek_time() == 1.0
        assert cal.pop_due(1.0) == [early]
        assert cal.pop_due(10.0) == [late]

    def test_stable_for_ties(self):
        cal = HeapCalendar()
        a, b = cf(2.0), cf(2.0)
        cal.push(a)
        cal.push(b)
        assert cal.pop_due(2.0) == [a, b]

    def test_pop_due_partial(self):
        cal = HeapCalendar()
        for t in (1.0, 2.0, 3.0):
            cal.push(cf(t))
        assert len(cal.pop_due(2.0)) == 2
        assert len(cal) == 1
        assert cal.peek_time() == 3.0

    def test_empty(self):
        cal = HeapCalendar()
        assert cal.peek_time() is None
        assert cal.pop_due(100.0) == []
        assert len(cal) == 0

    def test_prune_head(self):
        cal = HeapCalendar()
        a, b = cf(1.0), cf(2.0)
        cal.push(a)
        cal.push(b)
        cal.prune_head(lambda c: c is a)
        assert cal.peek_time() == 2.0
