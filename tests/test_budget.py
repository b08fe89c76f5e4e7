"""The package's design budget: src/dirconv stays under 3082 lines, and
every public name is used by the program itself.

New code is paid for by folds elsewhere, so the library does not grow
while it gains speed; a helper that only tests call belongs with them.
"""

import ast
from pathlib import Path

import dirconv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dirconv"
BUDGET = 3082


def test_source_stays_within_the_line_budget():
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines < BUDGET, f"src/dirconv/*.py has {lines} lines; budget {BUDGET}"


def test_every_public_name_is_used_by_the_program():
    """Each name in ``dirconv.__all__`` is read somewhere in the library
    (outside ``__init__.py``), the scripts or the benchmark: as a name, an
    attribute, or a string (the CLI looks ``one`` and ``unit`` up with
    ``getattr``).  A ``def`` or ``class`` line and an import are no use."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert not sorted(set(dirconv.__all__) - used)
