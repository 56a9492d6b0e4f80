"""The trace-record kind vocabulary has one home: the table under
*Trace records* in ``docs/observability.md``.

Every kind the flight recorder decodes from a columnar stream
(``_RECORD_KIND``) and every kind a call site in ``src/repro`` hands to
the per-record ``emit`` (``job_stage``) is a row of that table, and
every row is one of those kinds.
"""

import ast
import re
from pathlib import Path

from repro.obs.recorder import _RECORD_KIND

ROOT = Path(__file__).resolve().parent.parent


def _table_kinds():
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("\n## Trace records\n", 1)[1].split("\n## ", 1)[0]
    kinds = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            kinds.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return kinds


def _emit_calls():
    """``(path:line, kind-or-None)`` for every ``.emit(t, kind, ...)`` call
    in src/repro; None when the kind is not a literal."""
    calls = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and len(node.args) >= 2
            ):
                arg = node.args[1]
                literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                calls.append((where, arg.value if literal else None))
    return calls


def _recorded_kinds():
    return set(_RECORD_KIND.values()) | {kind for _, kind in _emit_calls()}


def test_every_emit_site_names_a_literal():
    assert [where for where, kind in _emit_calls() if kind is None] == []


def test_every_recorded_kind_is_in_the_table():
    assert sorted(_recorded_kinds() - _table_kinds()) == []


def test_every_table_row_is_a_recorded_kind():
    assert sorted(_table_kinds() - _recorded_kinds()) == []
