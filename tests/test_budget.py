"""The package's design budget: src/dirconv stays under 3094 lines.

New code is paid for by folds elsewhere, so the library does not grow
while it gains speed.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dirconv"
BUDGET = 3094


def test_source_stays_within_the_line_budget():
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines < BUDGET, f"src/dirconv/*.py has {lines} lines; budget {BUDGET}"
