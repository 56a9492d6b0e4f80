"""DESIGN.md §3's module map names exactly the modules of ``src/repro``."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: A map entry: a module file or a package directory.
ENTRY = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.py|/)")


def _map_block() -> str:
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 3. "):text.index("## 4. ")]
    return section.split("```")[1]


def mapped_modules():
    """The paths the map names, relative to ``src/repro``.

    Indentation nests: two spaces per package level.  A line names
    modules when its first word is a file or a directory; a file line may
    list several files before its description.
    """
    entries, stack = set(), []
    for line in _map_block().splitlines():
        words = line.split()
        if not words or words[0] == "src/repro/" or not ENTRY.fullmatch(words[0]):
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2 - 1
        del stack[depth:]
        prefix = "".join(stack)
        if words[0].endswith("/"):
            stack.append(words[0])
            entries.add(prefix + words[0])
            continue
        for word in words:
            if not ENTRY.fullmatch(word) or word.endswith("/"):
                break
            entries.add(prefix + word)
    return entries


def source_modules():
    """Every module file, with a package named by its directory."""
    out = set()
    for path in PACKAGE.rglob("*.py"):
        rel = path.relative_to(PACKAGE)
        if rel.name == "__init__.py":
            if rel.parent != Path("."):
                out.add(rel.parent.as_posix() + "/")
        else:
            out.add(rel.as_posix())
    return out


def test_every_module_is_in_the_map():
    missing = source_modules() - mapped_modules()
    assert not missing, sorted(missing)


def test_every_mapped_module_exists():
    stale = mapped_modules() - source_modules()
    assert not stale, sorted(stale)


def test_map_parser_reads_nesting_and_file_lists():
    mapped = mapped_modules()
    assert {"cli.py", "core/", "core/kernels/", "core/simulator.py",
            "schedulers/aalo.py", "schedulers/sincronia.py",
            "analysis/export.py", "analysis/report.py"} <= mapped
    assert "kernels/" not in mapped and "simulator.py" not in mapped
