"""The metric vocabulary has one home: the table under *Metrics* in
``docs/observability.md``.

Every instrument name a hook site in ``src/repro`` passes to
``.counter``/``.gauge``/``.histogram`` is a row of that table, every row
is registered by some hook site, and no row copies a ``StreamStats``
field (the telemetry plane renders those as ``repro_stream_<field>``, so
a registry instrument ``stream.<field>`` would declare that family
twice on ``/metrics``).
"""

import ast
import re
from pathlib import Path

from repro.service.driver import StreamStats

ROOT = Path(__file__).resolve().parent.parent
ACCESSORS = {"counter", "gauge", "histogram"}


def _table_names():
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("\n## Metrics\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([\w.]+)`", line.split("|")[1]))
    return names


def _hook_calls():
    """``(path:line, name-or-None)`` for every accessor call in src/repro
    outside the registry itself; None when the name is not a literal."""
    calls = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "metrics.py" and path.parent.name == "obs":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ACCESSORS
                and node.args
            ):
                arg = node.args[0]
                literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                calls.append((where, arg.value if literal else None))
    return calls


def test_every_hook_site_names_a_literal():
    assert [where for where, name in _hook_calls() if name is None] == []


def test_every_registered_name_is_in_the_table():
    table = _table_names()
    missing = sorted(
        f"{where} {name}" for where, name in _hook_calls() if name not in table
    )
    assert missing == []


def test_every_table_row_is_registered():
    registered = {name for _, name in _hook_calls()}
    assert sorted(_table_names() - registered) == []


def test_no_row_copies_a_stream_stats_field():
    fields = {f"stream.{key}" for key in StreamStats().as_dict()}
    assert sorted(_table_names() & fields) == []

