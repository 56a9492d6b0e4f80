"""JSONL lines decode with orjson, and read as ``json.loads`` reads them.

:class:`~repro.service.JsonlSource` decodes each line with
``orjson.loads`` and hands a line orjson refuses to ``json.loads``, so
which lines are accepted and every error's text stay ``json.loads``'.
These tests hold the decoder to that:

* a hypothesis property over lines from ``json.dumps`` of random
  records (finite floats including subnormals and ±0.0, integers in
  ±2⁷⁰, unicode labels): the blocks equal, column for column and bit
  for bit, those of the same source decoding with ``json.loads``, and
  both fail with the same error class on the same line;
* pinned lines orjson refuses but ``json.loads`` reads (``NaN``,
  ``1e400``, a lone surrogate escape) or refuses too (trailing
  ``\\x0b``/``\\xa0``);
* ``coflow_from_json`` reads a record as the source does;
* only a JSONL source imports orjson.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConfigurationError, ReproError
from repro.service import JsonlSource, coflow_from_json

_FLOW_COLUMNS = ("src", "dst", "size", "compressible", "override")

_finite = st.floats(allow_nan=False, allow_infinity=False)
_integer = st.integers(-(2**70), 2**70)
_number = st.one_of(_finite, _integer)
#: A positive number: floats from the least subnormal up, ints to 2⁷⁰.
_positive = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False),
    st.integers(1, 2**70),
)


@st.composite
def _flow(draw, wild):
    """A flow record; a ``wild`` one may hold any number anywhere."""
    port = _integer if wild else st.integers(0, 7)
    flow = {"src": draw(port), "dst": draw(port),
            "size": draw(_number if wild else _positive)}
    if draw(st.booleans()):
        flow["compressible"] = draw(st.booleans())
    if draw(st.booleans()):
        flow["ratio_override"] = draw(st.one_of(
            st.none(), _number if wild else st.floats(
                0.0, 1.0, exclude_min=True, exclude_max=True),
        ))
    return flow


@st.composite
def _lines(draw):
    """JSONL text: records in non-decreasing arrival order, about one
    in eight wild (any number in any numeric field), and blank lines."""
    n = draw(st.integers(1, 12))
    arrivals = sorted(draw(st.lists(
        st.one_of(st.floats(0.0, 1e6), st.integers(0, 2**70),
                  st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308])),
        min_size=n, max_size=n,
    )))
    lines = []
    for arrival in arrivals:
        wild = draw(st.integers(0, 7)) == 0
        rec = {
            "arrival": draw(_number) if wild else arrival,
            "flows": draw(st.lists(_flow(wild), min_size=1, max_size=3)),
        }
        if draw(st.booleans()):
            rec["label"] = draw(st.text(max_size=8))
        if draw(st.booleans()):
            rec["deadline"] = draw(
                st.one_of(st.none(), _number if wild else _positive)
            )
        lines.append(json.dumps(rec, ensure_ascii=draw(st.booleans())))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return "".join(line + "\n" for line in lines)


def _drain(path, horizons):
    """Every block ``pop_block`` gives at ``horizons`` and then at
    infinity, and the error that stopped it as ``(class, line)``."""
    src = JsonlSource(str(path))
    blocks = []
    try:
        for horizon in [*horizons, math.inf]:
            while True:
                block = src.pop_block(horizon, 5)
                if block is None:
                    break
                blocks.append(block)
    except ReproError as exc:
        return blocks, (type(exc), re.search(r"line (\d+) ", str(exc))[1])
    return blocks, None


def _bits(block):
    """A block's columns as bytes: ids relative to the block's first,
    deadlines as doubles with ``None`` kept."""
    cols = {name: getattr(block, name).tobytes() for name in _FLOW_COLUMNS}
    cols["arrival"] = block.arrival.tobytes()
    cols["width"] = block.width.tobytes()
    cols["flow_id"] = (block.flow_id - block.flow_id[0]).tobytes()
    cols["coflow_id"] = (block.coflow_id - block.coflow_id[0]).tobytes()
    cols["label"] = block.label
    cols["deadline"] = [
        None if d is None else np.float64(d).tobytes() for d in block.deadline
    ]
    cols["line"] = list(block.line)
    return cols


@settings(max_examples=150, deadline=None)
@given(text=_lines(),
       horizons=st.lists(st.floats(0.0, 2e6), max_size=3).map(sorted))
def test_blocks_equal_a_json_loads_reader(tmp_path_factory, text, horizons):
    path = tmp_path_factory.mktemp("decoder") / "arrivals.jsonl"
    path.write_text(text, encoding="utf-8")
    blocks, error = _drain(path, horizons)
    with mock.patch.object(orjson, "loads", json.loads):
        reference, reference_error = _drain(path, horizons)
    assert error == reference_error
    assert [_bits(b) for b in blocks] == [_bits(b) for b in reference]


@pytest.mark.parametrize(
    "tail", ["\x0b", "\x0c", "\xa0", " "],
    ids=["vt", "ff", "nbsp", "em-space"],
)
def test_trailing_non_json_whitespace_is_refused(tmp_path, tail):
    """Only JSON's four whitespace characters may follow the object:
    anything else is ``json.loads``' "Extra data", naming the line."""
    good = json.dumps({"arrival": 0.0,
                       "flows": [{"src": 0, "dst": 1, "size": 1.0}]})
    path = tmp_path / "tail.jsonl"
    path.write_text(f"{good} \t\r\n\n{good}{tail}\n", encoding="utf-8")
    src = JsonlSource(str(path))
    src.pop()
    with pytest.raises(ReproError, match="line 3 .*Extra data"):
        src.peek()


@pytest.mark.parametrize(
    "value, message",
    [("NaN", "arrival must be finite, got nan"),
     ("-Infinity", "arrival must be >= 0, got -inf"),
     ("1e400", "arrival must be finite, got inf")],
)
def test_lines_orjson_refuses_reach_the_field_checks(tmp_path, value, message):
    """orjson refuses the ``NaN``/``Infinity`` literals and a number past
    a double; ``json.loads`` reads them, and the arrival check names
    them with their line."""
    path = tmp_path / "literals.jsonl"
    path.write_text(
        f'{{"arrival": {value}, "flows": [{{"src": 0, "dst": 1, "size": 1}}]}}\n'
    )
    with pytest.raises(ReproError, match=f"line 1 .*{re.escape(message)}"):
        JsonlSource(str(path)).peek()


def test_a_lone_surrogate_label_reads_as_json_loads_reads_it(tmp_path):
    path = tmp_path / "surrogate.jsonl"
    path.write_text('{"label": "\\ud800", "flows": '
                    '[{"src": 0, "dst": 1, "size": 1}]}\n')
    assert JsonlSource(str(path)).pop().label == "\ud800"


@pytest.mark.parametrize(
    "rec",
    [
        {"arrival": 1, "label": "a", "deadline": 3,
         "flows": [{"src": 0, "dst": 1, "size": 10},
                   {"src": 1, "dst": 0, "size": 2.5, "ratio_override": 0.5,
                    "compressible": False}]},
        {"flows": [{"src": 0, "dst": 1, "size": "10"}]},
        {"arrival": 0.0, "flows": [{"src": 0, "size": 1.0}]},
        {"arrival": 0.0, "flows": []},
        {"arrival": -1.0, "flows": [{"src": 0, "dst": 1, "size": 1.0}]},
        {"arrival": 0.0, "flows": [{"src": 2**63, "dst": 1, "size": 1.0}]},
        [0.0],
    ],
    ids=["valid", "str-size", "no-dst", "no-flows", "negative-arrival",
         "port-overflow", "not-an-object"],
)
def test_coflow_from_json_reads_as_the_source_reads(tmp_path, rec):
    """``coflow_from_json`` goes through the source's columns: the same
    coflow, or the same error without a line."""
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    try:
        popped = JsonlSource(str(path)).pop()
    except ReproError as exc:
        expected = str(exc).split(": ", 1)[1]
        with pytest.raises(ConfigurationError) as err:
            coflow_from_json(rec)
        assert str(err.value) == f"bad JSONL coflow: {expected}"
        return
    cf = coflow_from_json(rec)
    assert (cf.arrival, cf.label, cf.deadline) == (
        popped.arrival, popped.label, popped.deadline
    )
    assert [
        (f.src, f.dst, f.size, f.compressible, f.ratio_override)
        for f in cf.flows
    ] == [
        (f.src, f.dst, f.size, f.compressible, f.ratio_override)
        for f in popped.flows
    ]


def test_only_reading_a_jsonl_line_imports_orjson(tmp_path):
    """A batch run, and a record built by ``coflow_from_json``, leave
    orjson unloaded; a JSONL source loads it."""
    path = tmp_path / "one.jsonl"
    path.write_text(
        '{"arrival": 0, "flows": [{"src": 0, "dst": 1, "size": 1}]}\n'
    )
    script = f"""
import sys
from repro.analysis import ExperimentSetup
from repro.schedulers import make_scheduler
from repro.service import JsonlSource, coflow_from_json
from repro.units import mbps
setup = ExperimentSetup(num_ports=2, bandwidth=mbps(100), slice_len=0.01)
sim = setup.build_simulator(make_scheduler("fvdf-flow"))
sim.submit_many([coflow_from_json(
    {{"arrival": 0, "flows": [{{"src": 0, "dst": 1, "size": 1e5}}]}})])
sim.run()
before = "orjson" in sys.modules
JsonlSource({str(path)!r}).peek()
print(before, "orjson" in sys.modules)
"""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout.split()
    assert out == ["False", "True"]
