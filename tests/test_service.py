"""The streaming scheduler service: sources, driver, checkpoints, cache.

The service regime (:mod:`repro.service`) must be as deterministic as the
batch engine it wraps:

* arrival sources replay identically from a spec, and resume from a
  saved cursor — including with a lookahead coflow buffered — exactly
  where they left off;
* the driver's drain cadence partitions results without changing them,
  backpressure restamps late admissions to "now", and engine memory is
  bounded by the in-flight backlog, not the stream length;
* block admission (columnar ``pop_block`` → ``submit_block``) matches
  the per-object loop it replaced, kept here as
  :class:`ObjectAdmissionDriver`, id draws included;
* a JSONL dump of a synthetic stream replays bit-identically through
  the block parser;
* a mid-stream checkpoint restores to a bit-identical continuation, and
  carries no observability state.
"""

import json
import math
import os
import pickle
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExperimentSetup
from repro.core.coflow import coflow_id_watermark
from repro.core.flow import flow_id_watermark
from repro.core.ingest import CoflowBlock
from repro.core.results import ResultStore, concat_stores
from repro.core.simulator import SliceSimulator, _time_eps
from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.fabric.bigswitch import BigSwitch
from repro.obs import Observability
from repro.schedulers import make_scheduler
from repro.service import (
    JsonlSource,
    SourceSpec,
    StreamDriver,
    coflow_from_json,
    coflow_to_json,
    load_checkpoint,
    restore_driver,
    serve,
)
from repro.traces.distributions import ConstantSize
from repro.units import KB, mbps

SETUP = ExperimentSetup(num_ports=4, bandwidth=mbps(100), slice_len=0.01)

#: Columns that identify a flow's outcome independently of global ids.
FLOW_CONTENT = (
    "src", "dst", "size", "arrival", "start", "finish", "finish_phys",
    "bytes_sent", "comp_in", "comp_out",
)
CF_CONTENT = (
    "cf_arrival", "cf_finish", "cf_finish_phys", "cf_size", "cf_width",
    "cf_bytes_sent",
)


def _spec(**kw):
    kw.setdefault("rate", 40.0)
    kw.setdefault("num_ports", 4)
    kw.setdefault("width", (1, 3))
    kw.setdefault("size_dist", ConstantSize(200 * KB))
    kw.setdefault("seed", 5)
    kw.setdefault("limit", 30)
    return SourceSpec(**kw)


def _driver(spec=None, *, policy="fvdf-flow", cls=StreamDriver, obs=None,
            **kw):
    spec = spec or _spec()
    sim = SETUP.build_simulator(make_scheduler(policy), obs=obs)
    kw.setdefault("tick", 0.2)
    return cls(sim, spec.build(), setup=SETUP, source_spec=spec, **kw)


class ObjectAdmissionDriver(StreamDriver):
    """The per-object admission loop block admission replaced: peek and
    pop one :class:`~repro.core.coflow.Coflow` at a time, restamp it in
    place, and ``submit_many`` the batch.  The oracle of
    :class:`TestBlockAdmission`."""

    def _admit(self, horizon, max_flows):
        sim = self.sim
        budget = self.max_in_flight - self.in_flight
        if max_flows is not None:
            budget = min(budget, max_flows - self.stats.flows_submitted)
        batch = []
        n_flows = 0
        while n_flows < budget:
            t = self.source.peek()
            if t is None or t > horizon:
                break
            cf = self.source.pop()
            if cf.arrival < sim.now - _time_eps(sim.now):
                cf.arrival = sim.now
                for f in cf.flows:
                    f.arrival = sim.now
                self.stats.restamped += 1
            batch.append(cf)
            n_flows += len(cf)
        if batch:
            sim.submit_many(batch)
            self.stats.coflows_submitted += len(batch)
            self.stats.flows_submitted += n_flows
        return len(batch)


def _drain_all(source):
    out = []
    while source.peek() is not None:
        out.append(source.pop())
    return out


def _content(store, cols=FLOW_CONTENT):
    return [np.asarray(getattr(store, c)) for c in cols]


def _assert_same_content(a, b, cols=FLOW_CONTENT):
    for name, xa, xb in zip(cols, _content(a, cols), _content(b, cols)):
        assert np.array_equal(xa, xb), f"column {name} differs"


# ------------------------------------------------------------ sources
class TestSyntheticSource:
    def test_replay_is_deterministic(self):
        a = _drain_all(_spec().build())
        b = _drain_all(_spec().build())
        assert len(a) == len(b) == 30
        assert [c.arrival for c in a] == [c.arrival for c in b]
        assert [len(c.flows) for c in a] == [len(c.flows) for c in b]
        assert [f.size for c in a for f in c.flows] == [
            f.size for c in b for f in c.flows
        ]

    @pytest.mark.parametrize("mode", ["steady", "bursty", "diurnal"])
    def test_modes_yield_nondecreasing_bounded_streams(self, mode):
        coflows = _drain_all(_spec(mode=mode, limit=200).build())
        assert len(coflows) == 200
        arrivals = [c.arrival for c in coflows]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert all(1 <= len(c.flows) <= 3 for c in coflows)
        assert all(
            0 <= f.src < 4 and 0 <= f.dst < 4
            for c in coflows for f in c.flows
        )

    def test_bursty_is_burstier_than_steady(self):
        gaps = lambda cs: np.diff([c.arrival for c in cs])  # noqa: E731
        steady = gaps(_drain_all(_spec(mode="steady", limit=400).build()))
        bursty = gaps(_drain_all(_spec(
            mode="bursty", burst_factor=16.0, burst_fraction=0.1, limit=400,
        ).build()))
        # Same mean rate regime, much heavier gap dispersion under bursts.
        assert np.std(bursty) / np.mean(bursty) > np.std(steady) / np.mean(steady)

    def test_seek_resumes_identically(self):
        whole = _drain_all(_spec(limit=40).build())
        src = _spec(limit=40).build()
        first = [src.pop() for _ in range(17)]
        cursor = src.state()
        resumed = _spec(limit=40).build()
        resumed.seek(cursor)
        rest = _drain_all(resumed)
        combined = first + rest
        assert [c.arrival for c in combined] == [c.arrival for c in whole]
        assert [f.size for c in combined for f in c.flows] == [
            f.size for c in whole for f in c.flows
        ]

    def test_state_points_before_buffered_lookahead(self):
        # peek() buffers the next coflow; state() must still describe the
        # cursor *before* it, so a resume regenerates the peeked coflow.
        src = _spec(limit=10).build()
        src.pop()
        peeked = src.peek()  # buffers coflow #2
        cursor = src.state()
        resumed = _spec(limit=10).build()
        resumed.seek(cursor)
        assert resumed.peek() == peeked
        assert [c.arrival for c in _drain_all(resumed)] == [
            c.arrival for c in _drain_all(src)
        ]

    def test_seek_with_buffered_coflow_is_refused(self):
        src = _spec().build()
        src.peek()
        with pytest.raises(ReproError):
            src.seek({"kind": "synthetic"})

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            _spec(rate=0.0)
        with pytest.raises(ReproError):
            _spec(mode="lumpy")
        with pytest.raises(ReproError):
            SourceSpec(kind="jsonl")  # jsonl requires a path


class TestJsonlSource:
    def _write(self, tmp_path, coflows):
        path = tmp_path / "arrivals.jsonl"
        with path.open("w") as fh:
            for cf in coflows:
                fh.write(json.dumps(coflow_to_json(cf)) + "\n\n")
        return path

    def test_coflow_json_roundtrip(self):
        [cf] = _drain_all(_spec(limit=1, compressible_fraction=0.5).build())
        cf.label = "job-7"
        again = coflow_from_json(json.loads(json.dumps(coflow_to_json(cf))))
        assert again.arrival == cf.arrival
        assert again.label == cf.label
        assert [
            (f.src, f.dst, f.size, f.compressible) for f in again.flows
        ] == [(f.src, f.dst, f.size, f.compressible) for f in cf.flows]

    def test_file_replay_matches_origin(self, tmp_path):
        coflows = _drain_all(_spec(limit=12).build())
        src = JsonlSource(str(self._write(tmp_path, coflows)))
        replayed = _drain_all(src)
        assert [c.arrival for c in replayed] == [c.arrival for c in coflows]
        assert [f.size for c in replayed for f in c.flows] == [
            f.size for c in coflows for f in c.flows
        ]

    def test_decreasing_arrivals_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = [
            {"arrival": 1.0, "flows": [{"src": 0, "dst": 1, "size": 10.0}]},
            {"arrival": 0.5, "flows": [{"src": 0, "dst": 1, "size": 10.0}]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        src = JsonlSource(str(path))
        src.pop()
        with pytest.raises(ReproError):
            src.peek()

    @pytest.mark.parametrize(
        "bad, raised_by",
        [
            ({"arrival": 2.0, "flows": [{"src": 0, "dst": 1, "size": "big"}]},
             "pop"),
            ({"arrival": 0.5, "flows": [{"src": 0, "dst": 1, "size": 10.0}]},
             "peek"),
            ([2.0, [0, 1, 10.0]], "peek"),
        ],
        ids=["malformed", "decreasing", "not-an-object"],
    )
    def test_error_names_physical_line(self, tmp_path, bad, raised_by):
        """Blank lines count: the bad record is physical line 4.  Reading
        a line (peek) checks its JSON and arrival; its other fields are
        checked when it is popped."""
        good = {"arrival": 1.0, "flows": [{"src": 0, "dst": 1, "size": 10.0}]}
        path = tmp_path / "blanks.jsonl"
        path.write_text(json.dumps(good) + "\n\n\n" + json.dumps(bad) + "\n")
        with pytest.raises(ReproError, match="line 4 "):
            JsonlSource(str(path)).pop_block(1e9)
        src = JsonlSource(str(path))
        src.pop()
        with pytest.raises(ReproError, match="line 4 "):
            getattr(src, raised_by)()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"arrival": 2.0, "flows": []},
             "a coflow must contain at least one flow"),
            ({"arrival": 2.0, "flows": [{"src": 0, "dst": 1, "size": -5.0}]},
             "flow size must be positive, got -5.0"),
            ({"arrival": 2.0, "flows": [{"src": 0, "dst": -1, "size": 1.0}]},
             "ports must be non-negative"),
            ({"arrival": 2.0, "flows": [
                {"src": 0, "dst": 1, "size": 1.0, "ratio_override": 1.5}]},
             r"ratio_override must lie in \(0, 1\), got 1.5"),
            ({"arrival": 2.0, "flows": [
                {"src": 0, "dst": 1, "size": 1.0, "ratio_override": -1.0}]},
             r"ratio_override must lie in \(0, 1\), got -1.0"),
            ({"arrival": 2.0, "deadline": 0.0,
              "flows": [{"src": 0, "dst": 1, "size": 1.0}]},
             "deadline must be positive, got 0.0"),
            ({"arrival": -1.0, "flows": [{"src": 0, "dst": 1, "size": 1.0}]},
             "arrival must be >= 0"),
            ({"arrival": 2.0, "flows": [
                {"src": 0, "dst": 1, "size": float("nan")}]},
             "flow size must be finite, got nan"),
            ({"arrival": 2.0, "flows": [
                {"src": 0, "dst": 1, "size": float("inf")}]},
             "flow size must be finite, got inf"),
            ({"arrival": float("nan"),
              "flows": [{"src": 0, "dst": 1, "size": 1.0}]},
             "arrival must be finite, got nan"),
            ({"arrival": float("inf"),
              "flows": [{"src": 0, "dst": 1, "size": 1.0}]},
             "arrival must be finite, got inf"),
            ({"arrival": 2.0, "deadline": "soon",
              "flows": [{"src": 0, "dst": 1, "size": 1.0}]},
             "deadline must be a number or null, got 'soon'"),
        ],
        ids=["empty", "size", "port", "ratio", "no-override", "deadline",
             "arrival", "nan-size", "inf-size", "nan-arrival", "inf-arrival",
             "deadline-type"],
    )
    @pytest.mark.parametrize("path_kind", ["pop_block", "pop"])
    def test_invariant_error_names_physical_line(
        self, tmp_path, bad, message, path_kind
    ):
        """A line that parses but breaks a Flow/Coflow invariant fails
        with the invariant's message and its physical line, on the block
        path and on pop/peek alike."""
        good = {"arrival": 1.0, "flows": [{"src": 0, "dst": 1, "size": 10.0}]}
        lines = [good, bad] if bad["arrival"] >= 1.0 else [bad, good]
        path = tmp_path / "invariant.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        lineno = 1 + lines.index(bad) * 2
        if lineno > 1:
            path.write_text(
                json.dumps(lines[0]) + "\n\n" + json.dumps(lines[1]) + "\n"
            )
            lineno = 3
        src = JsonlSource(str(path))
        with pytest.raises(ReproError, match=f"line {lineno} .*{message}"):
            if path_kind == "pop_block":
                src.pop_block(1e9)
            else:
                while src.pop() is not None:
                    pass

    @pytest.mark.parametrize(
        "flow, coflow, message",
        [
            ({"src": 1.7}, {}, "src must be an integer, got 1.7"),
            ({"dst": True}, {}, "dst must be an integer, got True"),
            ({"size": True}, {}, "size must be a number, got True"),
            ({"size": "10"}, {}, "size must be a number, got '10'"),
            ({"compressible": "no"}, {},
             "compressible must be a boolean, got 'no'"),
            ({"compressible": 0}, {}, "compressible must be a boolean, got 0"),
            ({"ratio_override": False}, {},
             "ratio_override must be a number or null, got False"),
            ({}, {"arrival": True}, "arrival must be a number, got True"),
            ({}, {"arrival": None}, "arrival must be a number, got None"),
            ({}, {"deadline": True}, "deadline must be a number or null, got True"),
            ({}, {"label": 5}, "label must be a string, got 5"),
            ({"src": 2**63}, {}, f"src out of range, got {2**63}"),
            ({"dst": 2**64}, {},
             "dst must be an integer, got 1.8446744073709552e+19"),
            ({"src": -(2**63) - 1}, {},
             "src must be an integer, got -9.223372036854776e+18"),
            ({"size": 10**400}, {}, f"size out of range, got {10**400}"),
            ({}, {"arrival": 10**400}, f"arrival out of range, got {10**400}"),
            ({}, {"deadline": 10**400},
             f"deadline out of range, got {10**400}"),
        ],
        ids=["float-src", "bool-dst", "bool-size", "str-size",
             "str-compressible", "int-compressible", "bool-override",
             "bool-arrival", "null-arrival", "bool-deadline", "int-label",
             "int64-overflow-src", "uint64-overflow-dst",
             "int64-underflow-src", "double-overflow-size",
             "double-overflow-arrival", "double-overflow-deadline"],
    )
    @pytest.mark.parametrize("path_kind", ["pop_block", "pop"])
    def test_field_types_are_strict(
        self, tmp_path, flow, coflow, message, path_kind
    ):
        """A field of a JSON type it does not accept fails with its line,
        not coerced: ``"src": 1.7`` is not port 1, ``"size": true`` not a
        1-byte flow, ``"compressible": "no"`` not compressible.  So does
        an integer its column cannot hold: a port beyond int64 (one
        beyond uint64 decodes as a float), a number or deadline beyond a
        double."""
        good = {"arrival": 1.0, "flows": [{"src": 0, "dst": 1, "size": 10.0}]}
        bad = {"arrival": 2.0, **coflow,
               "flows": [{"src": 0, "dst": 1, "size": 10.0},
                         {"src": 0, "dst": 1, "size": 10.0, **flow}]}
        path = tmp_path / "types.jsonl"
        path.write_text(
            json.dumps(good) + "\n" + json.dumps(good) + "\n\n"
            + json.dumps(bad) + "\n" + json.dumps(bad) + "\n"
        )
        src = JsonlSource(str(path))
        with pytest.raises(ReproError, match=f"line 4 .*{re.escape(message)}"):
            if path_kind == "pop_block":
                src.pop_block(1e9)
            else:
                while src.pop() is not None:
                    pass

    @pytest.mark.parametrize("path_kind", ["pop_block", "pop"])
    def test_first_bad_line_wins_over_a_later_parse_error(
        self, tmp_path, path_kind
    ):
        """A bad type on line 2 is reported before line 3's broken JSON."""
        path = tmp_path / "two-errors.jsonl"
        path.write_text(
            json.dumps({"arrival": 1.0,
                        "flows": [{"src": 0, "dst": 1, "size": 10.0}]}) + "\n"
            + json.dumps({"arrival": 1.0,
                          "flows": [{"src": 0, "dst": 1, "size": True}]})
            + "\n{not json\n"
        )
        src = JsonlSource(str(path))
        with pytest.raises(ReproError, match="line 2 .*size must be a number"):
            if path_kind == "pop_block":
                src.pop_block(1e9)
            else:
                while src.pop() is not None:
                    pass

    @pytest.mark.parametrize("path_kind", ["pop_block", "pop"])
    def test_integer_numbers_are_accepted(self, tmp_path, path_kind):
        """JSON integers are numbers: an int size, arrival, override and
        deadline read as their float values."""
        rec = {"arrival": 1, "deadline": 3, "label": "ints",
               "flows": [{"src": 0, "dst": 1, "size": 10},
                         {"src": 1, "dst": 0, "size": 2.5,
                          "ratio_override": 0.5}]}
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        src = JsonlSource(str(path))
        if path_kind == "pop_block":
            block = src.pop_block(1e9)
            assert block.size.tolist() == [10.0, 2.5]
            assert block.arrival.tolist() == [1.0]
            assert block.override.tolist() == [-1.0, 0.5]
            assert block.deadline == [3]
        else:
            cf = src.pop()
            assert [f.size for f in cf.flows] == [10.0, 2.5]
            assert [f.ratio_override for f in cf.flows] == [None, 0.5]
            assert (cf.arrival, cf.deadline) == (1.0, 3)

    def test_seek_skips_consumed_lines(self, tmp_path):
        coflows = _drain_all(_spec(limit=10).build())
        path = str(self._write(tmp_path, coflows))
        src = JsonlSource(path)
        for _ in range(4):
            src.pop()
        cursor = src.state()
        resumed = JsonlSource(path)
        resumed.seek(cursor)
        assert [c.arrival for c in _drain_all(resumed)] == [
            c.arrival for c in coflows[4:]
        ]


# ------------------------------------------------------------- driver
class TestStreamDriver:
    def test_stream_completes_and_counts_balance(self):
        d = _driver()
        stats = d.run()
        assert stats.coflows_submitted == stats.coflows_done == 30
        assert stats.flows_submitted == stats.flows_done
        assert d.in_flight == 0
        assert not d.sim.pending
        assert stats.avg_fct > 0 and stats.avg_cct >= stats.avg_fct / 10

    def test_drain_cadence_partitions_without_changing_results(self):
        stores = []
        for drain_every in (1, 3):
            d = _driver(drain_every=drain_every)
            d.run()
            stores.append(d.result_store())
        assert stores[0].flow_id.size == stores[1].flow_id.size
        _assert_same_content(stores[0], stores[1])
        _assert_same_content(stores[0], stores[1], CF_CONTENT)

    @pytest.mark.parametrize("policy", ["fvdf-flow", "sebf"])
    def test_drains_keep_the_cached_grouping(self, policy):
        """Draining every tick renumbers the cached grouping instead of
        rebuilding it: one full regroup (the first decision) in the whole
        stream, and the results of a run that regroups at every decision,
        bit for bit."""
        spec = _spec(limit=60, size_dist=ConstantSize(600 * KB))
        fast = _driver(spec, policy=policy)
        regroups = []
        full_regroup = fast.sim._regroup

        def counted():
            regroups.append(fast.sim.now)
            full_regroup()

        fast.sim._regroup = counted
        fast.run()
        slow = _driver(spec, policy=policy)
        slow.sim.force_regroup = True
        slow.run()
        stats = fast.stats
        assert stats.drains > 5
        assert stats.peak_live_rows < stats.flows_submitted  # rows evicted
        assert len(regroups) == 1
        assert fast.stats.flows_done == slow.stats.flows_done
        for cols in (FLOW_CONTENT, CF_CONTENT):
            _assert_same_content(
                fast.result_store(), slow.result_store(), cols
            )

    def test_arrival_gap_longer_than_tick_stays_live(self, tmp_path):
        # Nothing in flight and the next arrival several ticks away: the
        # service must keep advancing its horizon across the idle gap
        # (regression: an idle ``sim.run(until=...)`` used to leave ``now``
        # frozen, so the driver ticked forever without making progress).
        path = tmp_path / "gap.jsonl"
        rows = [
            {"arrival": 0.0, "flows": [{"src": 0, "dst": 1, "size": 10.0}]},
            {"arrival": 5.0, "flows": [{"src": 1, "dst": 0, "size": 10.0}]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
        d = StreamDriver(sim, JsonlSource(str(path)), tick=0.2, setup=SETUP)
        stats = d.run(max_ticks=100)  # gap needs ~25 ticks; bound the test
        assert stats.coflows_done == 2
        assert sim.now >= 5.0

    @pytest.mark.parametrize("arrival", ["Infinity", "NaN", "-1"])
    def test_bad_arrival_line_stops_the_stream(self, tmp_path, arrival):
        """A line whose arrival is infinite, NaN or negative fails the
        run naming its line; it does not sit in the lookahead past every
        horizon while the driver ticks on."""
        flows = '"flows": [{"src": 0, "dst": 1, "size": 10.0}]'
        path = tmp_path / "bad-arrival.jsonl"
        path.write_text(
            f'{{"arrival": 0.0, {flows}}}\n{{"arrival": 0.1, {flows}}}\n'
            f'{{"arrival": {arrival}, {flows}}}\n'
        )
        sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
        d = StreamDriver(sim, JsonlSource(str(path)), tick=0.2, setup=SETUP)
        with pytest.raises(ReproError, match="line 3 .*arrival must be"):
            d.run(max_ticks=50)

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_port_beyond_the_fabric_names_its_line(self, tmp_path, side):
        """A port the fabric lacks is known only at admission; the error
        still names the path and physical line of its coflow."""
        good = {"arrival": 0.0, "flows": [{"src": 0, "dst": 1, "size": 10.0}]}
        bad = {"arrival": 0.1, "flows": [
            {"src": 0, "dst": 1, "size": 10.0},
            {"src": 1, "dst": 2, "size": 10.0, side: SETUP.num_ports + 3}]}
        path = tmp_path / "ports.jsonl"
        path.write_text(
            json.dumps(good) + "\n\n" + json.dumps(good) + "\n"
            + json.dumps(bad) + "\n"
        )
        sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
        d = StreamDriver(sim, JsonlSource(str(path)), tick=0.2, setup=SETUP)
        message = (f"line 4 of {re.escape(str(path))}: flow {side} "
                   f"{SETUP.num_ports + 3} out of range for fabric of "
                   f"{SETUP.num_ports} ports")
        with pytest.raises(ReproError, match=message):
            d.run(max_ticks=50)
        assert d.stats.coflows_submitted == 0  # the block was refused whole

    def test_port_beyond_the_fabric_from_a_synthetic_source(self):
        """A source that reads no lines raises the block's own error."""
        d = _driver(_spec(num_ports=SETUP.num_ports + 8, seed=1))
        with pytest.raises(ReproError, match="out of range for fabric of 4"):
            d.run(max_ticks=50)

    def test_backpressure_restamps_late_admissions(self):
        # A 2-flow in-flight bound on a 60-coflow burst forces most
        # arrivals to wait; they must be restamped to admission time.
        d = _driver(_spec(rate=5000.0, width=(1, 1), limit=60),
                    max_in_flight=2)
        stats = d.run()
        assert stats.restamped > 0
        assert stats.flows_done == 60
        store = d.result_store()
        assert np.all(np.asarray(store.start) >= np.asarray(store.arrival))

    def test_memory_stays_backlog_bounded(self):
        d = _driver(_spec(rate=200.0, limit=300), max_in_flight=20)
        stats = d.run()
        assert stats.flows_done == stats.flows_submitted
        assert stats.peak_live_rows <= 4 * 20  # slack for whole-slot drain
        assert stats.peak_in_flight <= 20 + 3  # one coflow may overshoot

    def test_spill_dir_writes_loadable_shards(self, tmp_path):
        d = _driver(spill_dir=tmp_path, keep_shards=False, drain_every=2)
        stats = d.run()
        assert d.shard_paths and all(p.exists() for p in d.shard_paths)
        loaded = concat_stores(
            [ResultStore.load_npz(p) for p in d.shard_paths]
        )
        assert loaded.flow_id.size == stats.flows_done
        with pytest.raises(ReproError):
            d.result_store()  # spilled runs hold no in-memory shards

    def test_max_ticks_pauses_and_resumes(self):
        whole = _driver()
        whole.run()
        paused = _driver()
        paused.run(max_ticks=3)
        assert paused.stats.ticks == 3
        paused.run()
        _assert_same_content(whole.result_store(), paused.result_store())


# ----------------------------------------------- block-columnar admission
class TestBlockAdmission:
    """Block admission (columnar pop_block → submit_block) must be
    bit-identical to :class:`ObjectAdmissionDriver`'s pop-one-object loop
    — including the global flow/coflow id draws, which both paths make in
    the same order."""

    def _run_pair(self, spec=None, source_path=None, **kw):
        from repro.core.flow import flow_id_watermark

        outs = []
        for cls in (StreamDriver, ObjectAdmissionDriver):
            base = flow_id_watermark()
            if source_path is not None:
                sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
                d = cls(
                    sim, JsonlSource(str(source_path)), tick=0.2,
                    setup=SETUP, **kw
                )
            else:
                d = _driver(spec, cls=cls, **kw)
            stats = d.run()
            outs.append((d, stats, base))
        return outs

    def _assert_identical(self, outs):
        (da, sa, base_a), (db, sb, base_b) = outs
        assert sa.coflows_submitted == sb.coflows_submitted
        assert sa.flows_submitted == sb.flows_submitted
        assert sa.restamped == sb.restamped
        assert sa.ticks == sb.ticks
        ra, rb = da.result_store(), db.result_store()
        _assert_same_content(ra, rb)
        _assert_same_content(ra, rb, CF_CONTENT)
        assert list(ra.cf_label) == list(rb.cf_label)
        # same id draw order: ids differ only by the watermark offset
        assert np.array_equal(
            np.asarray(ra.flow_id) - base_a, np.asarray(rb.flow_id) - base_b
        )

    @pytest.mark.parametrize("mode", ["steady", "bursty"])
    def test_synthetic_equivalence(self, mode):
        self._assert_identical(self._run_pair(_spec(mode=mode)))

    def test_equivalence_under_backpressure_restamps(self):
        outs = self._run_pair(
            _spec(rate=5000.0, width=(1, 1), limit=60), max_in_flight=2
        )
        assert outs[0][1].restamped > 0
        self._assert_identical(outs)

    def test_jsonl_equivalence_with_overrides_and_deadlines(self, tmp_path):
        coflows = _drain_all(_spec(limit=12, compressible_fraction=0.6).build())
        rows = []
        for i, cf in enumerate(coflows):
            rec = coflow_to_json(cf)
            if i % 3 == 0:
                rec["deadline"] = 2.0
                rec["flows"][0]["ratio_override"] = 0.4
            rows.append(rec)
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        self._assert_identical(self._run_pair(source_path=path))

    def test_each_admitted_block_is_checked_once(self, tmp_path, monkeypatch):
        """A JSONL stream checks every block once, where it is built:
        neither ``submit_block`` nor the source checks it again."""
        from repro.core.ingest import CoflowBlock

        coflows = _drain_all(_spec(limit=30).build())
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "".join(json.dumps(coflow_to_json(c)) + "\n" for c in coflows)
        )
        checks = []
        validate = CoflowBlock.validate
        monkeypatch.setattr(
            CoflowBlock, "validate",
            lambda block: checks.append(block) or validate(block),
        )
        sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
        submitted = []
        submit_block = sim.submit_block
        sim.submit_block = lambda block: (
            submitted.append(block), submit_block(block)
        )
        stats = StreamDriver(
            sim, JsonlSource(str(path)), tick=0.2, setup=SETUP
        ).run()
        assert stats.coflows_done == 30
        assert len(submitted) > 1
        assert [id(b) for b in checks] == [id(b) for b in submitted]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_jsonl_pop_block_matches_object_pop(self, data):
        """``pop_block`` builds, column for column and id for id, the
        block a ``peek()``/``pop()`` loop builds from the same stream —
        for a JSONL file and a synthetic source alike, whether a block
        ends on the horizon overshoot, on the flow-budget overshoot or
        with a lookahead already buffered by ``peek()``, and across a
        ``state()``/``seek()`` into a fresh source taken with a lookahead
        buffered; together the blocks hold the whole stream."""
        rows, t = [], 0.0
        for i in range(data.draw(st.integers(1, 12), label="coflows")):
            t += data.draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
            flows = []
            for _ in range(data.draw(st.integers(1, 4))):
                f = {
                    "src": data.draw(st.integers(0, 3)),
                    "dst": data.draw(st.integers(0, 3)),
                    "size": data.draw(st.floats(1.0, 1e6)),
                }
                if data.draw(st.booleans()):
                    f["compressible"] = False
                if data.draw(st.booleans()):
                    f["ratio_override"] = data.draw(st.floats(0.1, 0.9))
                flows.append(f)
            rec = {"arrival": t, "flows": flows}
            if data.draw(st.booleans()):
                rec["deadline"] = data.draw(st.floats(0.5, 5.0))
            if data.draw(st.booleans()):
                rec["label"] = f"job-{i}"
            rows.append(rec)
        cuts = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.05, 0.2, 1.0]),  # horizon step
                    st.sampled_from([None, 1, 2, 5]),  # flow budget
                    st.booleans(),  # peek() first
                ),
                min_size=1,
                max_size=8,
            ),
            label="cuts",
        )
        cuts.append((math.inf, None, False))  # drain the rest
        resume_at = data.draw(st.integers(0, len(cuts) - 1), label="resume")
        spec = _spec(
            limit=data.draw(st.integers(1, 12), label="synthetic coflows"),
            seed=data.draw(st.integers(0, 99), label="seed"),
            compressible_fraction=0.5,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "arrivals.jsonl")
            with open(path, "w") as fh:
                fh.write("".join(json.dumps(r) + "\n" for r in rows))
            for make in (lambda: JsonlSource(path), spec.build):
                (fast, (fb, cb)), (objs, (fb0, cb0)) = (
                    _cut_blocks(make, cuts, resume_at, pop_block)
                    for pop_block in (_pop_block, _pop_objects)
                )
                assert len(fast) == len(objs) == len(cuts)
                for x, y in zip(fast, objs):
                    assert (x is None) == (y is None)
                    if x is None:
                        continue
                    for col in ("arrival", "width", "src", "dst", "size",
                                "compressible", "override"):
                        assert np.array_equal(
                            getattr(x, col), getattr(y, col)
                        ), f"column {col} differs"
                    assert x.label == y.label
                    assert x.deadline == y.deadline
                    assert np.array_equal(x.flow_id - fb, y.flow_id - fb0)
                    assert np.array_equal(x.coflow_id - cb, y.coflow_id - cb0)
                # the cuts and the resume lose and repeat no coflow
                whole = _pop_objects(make(), math.inf, None)
                taken = [x for x in fast if x is not None]
                for col in ("arrival", "size", "override"):
                    assert np.array_equal(
                        np.concatenate([getattr(x, col) for x in taken]),
                        getattr(whole, col),
                    ), f"column {col} differs from the whole stream"


def _pop_block(source, horizon, budget):
    return source.pop_block(horizon, budget)


def _pop_objects(source, horizon, budget):
    """The block ``pop_block`` must build, from ``peek()``/``pop()``
    objects: every coflow due by ``horizon``, the budget checked before
    each."""
    coflows, n_flows = [], 0
    while budget is None or n_flows < budget:
        t = source.peek()
        if t is None or t > horizon:
            break
        coflows.append(source.pop())
        n_flows += len(coflows[-1])
    return CoflowBlock.from_coflows(coflows) if coflows else None


def _cut_blocks(make, cuts, resume_at, pop_block):
    """The blocks ``pop_block`` takes from a source made by ``make`` at
    each ``(horizon step, flow budget, peek first)`` cut; before cut
    ``resume_at`` the source, with its lookahead buffered, is replaced by
    a fresh one seeked to its ``state()``.  Also returns the id
    watermarks at the start."""
    bases = (flow_id_watermark(), coflow_id_watermark())
    source, blocks, horizon = make(), [], 0.0
    for i, (step, budget, peek) in enumerate(cuts):
        if i == resume_at:
            source.peek()
            cursor = source.state()
            source = make()
            source.seek(cursor)
        horizon += step
        if peek:
            source.peek()
        blocks.append(pop_block(source, horizon, budget))
    return blocks, bases


# ---------------------------------------------------------- JSONL replay
class TestJsonlReplay:
    def test_dump_replays_bit_identical(self, tmp_path):
        """A synthetic stream dumped to JSONL with ``coflow_to_json`` and
        replayed through ``JsonlSource``'s block parser produces the
        synthetic run's results bit for bit, backpressure included."""
        spec = _spec(rate=200.0, limit=120, compressible_fraction=0.5)
        synthetic = _driver(spec, max_in_flight=40)
        synthetic.run()
        assert synthetic.stats.restamped > 0

        path = tmp_path / "stream.jsonl"
        path.write_text("".join(
            json.dumps(coflow_to_json(cf)) + "\n"
            for cf in _drain_all(spec.build())
        ))
        sim = SETUP.build_simulator(make_scheduler("fvdf-flow"))
        replay = StreamDriver(
            sim, JsonlSource(str(path)), tick=0.2, max_in_flight=40,
            setup=SETUP,
        )
        stats = replay.run()
        assert stats.coflows_done == 120
        assert stats.flows_done == synthetic.stats.flows_done
        a, b = synthetic.result_store(), replay.result_store()
        _assert_same_content(a, b)
        _assert_same_content(a, b, CF_CONTENT)
        assert list(a.cf_label) == list(b.cf_label)


# -------------------------------------------------------- checkpointing
class TestCheckpoint:
    def test_mid_stream_roundtrip_is_bit_identical(self, tmp_path):
        whole = _driver()
        whole.run()

        first = _driver()
        first.run(max_ticks=4)
        ck = first.checkpoint(tmp_path / "serve.ckpt.npz")
        pre = list(first.shards)

        second = restore_driver(ck)
        second.run()
        combined = concat_stores(pre + second.shards)
        _assert_same_content(whole.result_store(), combined)
        _assert_same_content(
            whole.result_store(), combined, CF_CONTENT
        )
        assert list(whole.result_store().cf_label) == list(
            combined.cf_label
        )

    @pytest.mark.parametrize(
        "fabric_kw, message",
        [
            (dict(num_ports=5, num_egress_ports=4),
             "checkpoint has 4 ingress ports, fabric has 5"),
            (dict(num_egress_ports=5),
             "checkpoint has 4 egress ports, fabric has 5"),
            (dict(bandwidth=[mbps(100)] * 3 + [mbps(50)],
                  egress_bandwidth=mbps(100)),
             f"checkpoint ingress port 3 capacity {mbps(100)} "
             f"!= fabric capacity {mbps(50)}"),
            (dict(egress_bandwidth=[mbps(100), mbps(80)] + [mbps(100)] * 2),
             f"checkpoint egress port 1 capacity {mbps(100)} "
             f"!= fabric capacity {mbps(80)}"),
        ],
        ids=["ingress-ports", "egress-ports", "ingress-capacity",
             "egress-capacity"],
    )
    def test_restore_onto_another_fabric_is_refused(
        self, tmp_path, fabric_kw, message
    ):
        """Port capacities are fixed with the fabric, and the saved
        vectors record it: ``import_state`` onto a fabric with another
        port count or capacity on either side raises, naming the side,
        the saved value and the current value."""
        d = _driver()
        d.run(max_ticks=2)
        state = load_checkpoint(d.checkpoint(tmp_path / "ck.npz"))["state"]

        def sim_on(**kw):
            fabric = BigSwitch(**{"num_ports": 4, "bandwidth": mbps(100), **kw})
            return SliceSimulator(fabric, make_scheduler("fvdf-flow"),
                                  slice_len=SETUP.slice_len)

        sim_on().import_state(state)  # the same fabric restores
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            sim_on(**fabric_kw).import_state(state)

    def test_jsonl_mid_stream_roundtrip_keeps_ids(self, tmp_path):
        """The JSONL twin of the round trip above, ids included: seeking
        the restored source to its cursor draws no ids, so the resumed
        stream draws from the checkpoint's watermark in file order."""
        from repro.core.flow import flow_id_watermark

        coflows = _drain_all(_spec(limit=60).build())
        path = tmp_path / "arrivals.jsonl"
        path.write_text(
            "".join(json.dumps(coflow_to_json(c)) + "\n" for c in coflows)
        )
        spec = SourceSpec(kind="jsonl", path=str(path))
        # file position of each coflow's first flow
        first_flow = np.cumsum([0] + [len(c.flows) for c in coflows])

        base = flow_id_watermark()
        whole = _driver(spec, tick=0.05)
        whole.run()
        whole_pos = np.asarray(whole.result_store().flow_id) - base

        base = flow_id_watermark()
        first = _driver(spec, tick=0.05)
        first.run(max_ticks=4)
        ck = first.checkpoint(tmp_path / "serve.ckpt.npz")
        pre = list(first.shards)
        data = load_checkpoint(ck)
        mark = data["flow_id_watermark"]

        second = restore_driver(ck)
        assert flow_id_watermark() == mark
        second.run()
        combined = concat_stores(pre + second.shards)
        _assert_same_content(whole.result_store(), combined)
        _assert_same_content(whole.result_store(), combined, CF_CONTENT)
        # ids back to file positions: below the mark they count from the
        # first run's base, above it from the cursor's first flow
        ids = np.asarray(combined.flow_id)
        resumed_at = first_flow[data["source_state"]["lines"]]
        pos = np.where(ids < mark, ids - base, ids - mark + resumed_at)
        assert np.array_equal(pos, whole_pos)

    def test_drained_resume_keeps_priority_classes_aligned(self, tmp_path):
        """Drained every tick and resumed mid-stream, a run in which FVDF
        ages coflows ends with the uninterrupted run's aggregates bit for
        bit: P and the served flags stay on their coflows' rows through
        every compaction and the restore."""
        spec = _spec(rate=300.0, limit=90)
        kw = dict(policy="fvdf", drain_every=1, keep_shards=False)

        def aggregates(d):
            st = d.stats
            return (st.flows_done, st.coflows_done, st.fct_sum, st.cct_sum,
                    st.bytes_sent, st.bytes_original, st.restamped,
                    float(d.sim.now))

        obs = Observability(trace=False, metrics=True)
        whole = _driver(spec, obs=obs, **kw)
        whole.run()
        assert obs.metrics.value("fvdf.upgrades") > 0

        first = _driver(spec, **kw)
        first.run(max_ticks=2)
        ck = first.checkpoint(tmp_path / "aged.npz")
        cf_cols = load_checkpoint(ck)["state"]["cf_cols"]
        assert cf_cols["_cf_prio"].max() > 1.0, "nothing aged by the checkpoint"
        assert not cf_cols["_cf_served"].all()
        second = restore_driver(ck, keep_shards=False)
        second.run()
        assert aggregates(second) == aggregates(whole)

    def test_checkpoint_without_served_column_is_refused(self, tmp_path):
        """The served flag is engine state: a checkpoint without it is
        refused naming the column, not restored with a default."""
        d = _driver()
        d.run(max_ticks=4)
        ck = d.checkpoint(tmp_path / "good.npz")
        with np.load(ck, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        path = tmp_path / "no_served.npz"
        np.savez(path, **{k: v for k, v in arrays.items()
                          if k != "cf___cf_served"})
        with pytest.raises(CheckpointError, match="_cf_served"):
            restore_driver(path)

    def test_checkpoint_pickles_no_observability(self, tmp_path):
        """The scheduler's bound obs bundle (registry, flight recorder)
        stays out of the checkpoint blob; restore binds its own, and the
        continuation stays bit-identical."""
        import pickletools

        from repro.obs import Observability

        whole = _driver()
        whole.run()

        first = _driver(obs=Observability(trace=True, metrics=True))
        first.run(max_ticks=4)
        assert len(first.sim.obs.recorder) > 0
        ck = first.checkpoint(tmp_path / "traced.npz")
        pre = list(first.shards)
        with np.load(ck, allow_pickle=False) as data:
            blob = data["__pickle__"].tobytes()
        # Every global a pickle names is spelled as a string opcode
        # argument (GLOBAL's "module name", or the module string pushed
        # before STACK_GLOBAL).
        strings = [
            arg for _, arg, _ in pickletools.genops(blob)
            if isinstance(arg, str)
        ]
        for module in ("repro.obs.recorder", "repro.obs.metrics"):
            assert not any(a.startswith(module) for a in strings), module

        second = restore_driver(ck)
        assert second.sim.scheduler.obs is second.sim.obs
        second.run()
        combined = concat_stores(pre + second.shards)
        _assert_same_content(whole.result_store(), combined)
        _assert_same_content(whole.result_store(), combined, CF_CONTENT)

    def test_checkpoint_carries_driver_and_source_state(self, tmp_path):
        d = _driver()
        d.run(max_ticks=4)
        ck = d.checkpoint(tmp_path / "serve.ckpt.npz")
        data = load_checkpoint(ck)
        assert data["schema"] == "repro-checkpoint-v3"
        assert data["driver_state"]["stats"]["ticks"] == 4
        assert data["source_spec"] == d.source_spec
        assert data["source_state"]["count"] >= 0

    def test_periodic_checkpoints_overwrite_latest(self, tmp_path):
        path = tmp_path / "latest.npz"
        d = _driver(checkpoint_path=path, checkpoint_every_ticks=2)
        stats = d.run()
        assert path.exists()
        assert stats.checkpoints >= 2

    def test_crash_mid_write_keeps_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint write that dies halfway (partial bytes, then an
        exception) onto the path of the last good checkpoint leaves that
        checkpoint intact and resumable bit-identically, and leaves no
        temp file behind."""
        whole = _driver()
        whole.run()

        first = _driver()
        first.run(max_ticks=4)
        path = tmp_path / "latest.npz"
        first.checkpoint(path)
        pre = list(first.shards)
        good = path.read_bytes()
        first.run(max_ticks=2)  # the stream moves on past the checkpoint

        def crash(file, **_arrays):
            if not hasattr(file, "write"):  # a path: write straight onto it
                file = open(file, "wb")
            file.write(b"PK\x03\x04 partial archive")
            file.flush()
            raise OSError("disk failed mid-write")

        monkeypatch.setattr(np, "savez_compressed", crash)
        with pytest.raises(OSError, match="mid-write"):
            first.checkpoint(path)
        monkeypatch.undo()

        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["latest.npz"]
        second = restore_driver(path)
        second.run()
        combined = concat_stores(pre + second.shards)
        _assert_same_content(whole.result_store(), combined)
        _assert_same_content(whole.result_store(), combined, CF_CONTENT)

    def test_restored_stream_counts_continue(self, tmp_path):
        first = _driver()
        first.run(max_ticks=4)
        done_before = first.stats.flows_done
        ck = first.checkpoint(tmp_path / "c.npz")
        second = restore_driver(ck)
        assert second.stats.flows_done == done_before
        stats = second.run()
        assert stats.coflows_done == 30

    def test_truncated_checkpoint_fails_loudly(self, tmp_path):
        """A checkpoint cut short anywhere raises CheckpointError naming
        the path, from load_checkpoint and restore_driver alike."""
        d = _driver()
        d.run(max_ticks=4)
        good = d.checkpoint(tmp_path / "good.npz").read_bytes()
        size = len(good)
        path = tmp_path / "cut.npz"
        for cut in (0, 1, 10, size // 3, size // 2, size - 10, size - 1):
            path.write_bytes(good[:cut])
            for load in (load_checkpoint, restore_driver):
                with pytest.raises(CheckpointError, match="cut.npz"):
                    load(path)

    def test_checkpoint_layout_is_checked_before_unpickling(self, tmp_path):
        d = _driver()
        d.run(max_ticks=4)
        ck = d.checkpoint(tmp_path / "good.npz")
        with np.load(ck, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}

        no_blob = tmp_path / "no_blob.npz"
        np.savez(no_blob, **{k: v for k, v in arrays.items()
                             if k != "__pickle__"})
        with pytest.raises(CheckpointError, match="no_blob.npz.*__pickle__"):
            load_checkpoint(no_blob)

        for prefix in ("flow__", "cf__"):
            key = next(k for k in arrays if k.startswith(prefix))
            ragged = tmp_path / f"ragged_{prefix}.npz"
            np.savez(ragged, **{**arrays, key: arrays[key][:-1]})
            with pytest.raises(CheckpointError, match=f"{prefix}.*unequal"):
                load_checkpoint(ragged)

    def test_checkpoint_counts_and_indexes_are_checked(self, tmp_path):
        """Columns of one consistent length that disagree with the blob's
        ``n``/``n_cf``, and index arrays pointing outside their table,
        raise CheckpointError naming the path."""
        d = _driver(_spec(size_dist=ConstantSize(2000 * KB)))
        d.run(max_ticks=2)
        ck = d.checkpoint(tmp_path / "good.npz")
        with np.load(ck, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        blob = pickle.loads(arrays["__pickle__"].tobytes())
        n, n_cf = blob["n"], blob["n_cf"]
        assert n and n_cf, "no live rows to corrupt"

        def bad(name, drop=None, **changes):
            path = tmp_path / f"{name}.npz"
            np.savez(path, **{
                k: v for k, v in {**arrays, **changes}.items() if k != drop
            })
            return path

        short = {
            k: v[:-1] for k, v in arrays.items() if k.startswith("flow__")
        }
        cases = [
            (bad("short_flows", **short), f"flow__.*the state has {n} rows"),
            (bad("long_cfs", **{
                k: np.concatenate((v, v[-1:]))
                for k, v in arrays.items() if k.startswith("cf__")
            }), f"cf__.*the state has {n_cf} rows"),
            (bad("active", active=np.append(arrays["active"], n)),
             r"active indexes outside \[0, n="),
            (bad("done", done_flows=np.append(arrays["done_flows"], -1)),
             r"done_flows indexes outside \[0, n="),
            (bad("closed", closed_slots=np.append(
                arrays["closed_slots"], n_cf).astype(np.intp)),
             r"closed_slots indexes outside \[0, n_cf="),
            (bad("cal", cal_time=np.array([9.0]), cal_seq=np.array([0]),
                 cal_slot=np.array([n_cf])),
             r"cal_slot indexes outside \[0, n_cf="),
            (bad("no_active", drop="active"), "no active entry"),
        ]
        for path, match in cases:
            with pytest.raises(CheckpointError, match=f"{path.name}.*{match}"):
                load_checkpoint(path)


class TestServe:
    """:func:`repro.service.serve`: the whole ``repro serve`` run."""

    def test_checkpoint_then_resume_to_report(self, tmp_path, capsys):
        whole = serve(_spec(), SETUP, policy="fvdf-flow", tick=0.2)
        ck, rep = tmp_path / "svc.npz", tmp_path / "serve.json"
        capsys.readouterr()
        first = serve(_spec(), SETUP, policy="fvdf-flow", tick=0.2,
                      max_ticks=3, checkpoint=ck)
        assert first.sim.pending and ck.exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("serve — fvdf-flow @ tick 0.2s")
        assert lines[-1] == f"checkpoint (resumable) -> {ck}"
        resumed = serve(resume=ck, report=rep)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"resumed from {ck} at t=0.60s")
        assert lines[-1] == f"report written -> {rep}"
        report = json.loads(rep.read_text())
        assert report["schema"] == "repro-report-v1"
        assert report["window"] is None
        assert report["stream"] == resumed.stats.as_dict()
        for key in ("coflows_done", "flows_done", "fct_sum", "cct_sum",
                    "bytes_sent", "bytes_original"):
            assert getattr(resumed.stats, key) == getattr(whole.stats, key)
        assert whole.stats.coflows_done == 30

    def test_plane_serves_while_running(self, tmp_path, capsys):
        rep = tmp_path / "serve.json"
        driver = serve(_spec(), SETUP, tick=0.2, metrics_port=0, report=rep)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("telemetry plane -> http://127.0.0.1:")
        assert driver._plane is not None and not driver._plane.serving
        assert json.loads(rep.read_text())["window"]["ticks"] > 0

    def test_spill_dir_keeps_no_shards_in_memory(self, tmp_path, capsys):
        driver = serve(_spec(), SETUP, tick=0.2, spill_dir=tmp_path)
        assert driver.shard_paths and not driver.shards
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"{len(driver.shard_paths)} result shards -> {tmp_path}"
