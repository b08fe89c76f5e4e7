"""Exact-mode CLI documents must not change.

Each ``golden/<name>.spec.json`` is run through ``cli.run``; its
``--format json`` document, with the run-dependent ``timing`` block
removed, must equal ``golden/<name>.json`` byte for byte, refusal
diagnostics included.  After an intended change of output, regenerate
the expected documents with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import json
import pathlib

import pytest

import dirconv.cli as cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
SPECS = sorted(GOLDEN.glob("*.spec.json"))


def expected_path(spec: pathlib.Path) -> pathlib.Path:
    return spec.with_name(spec.name.replace(".spec.json", ".json"))


def document(spec: pathlib.Path):
    """The rendered document without timing, and the exit code."""
    doc, code = cli.run(str(spec))
    doc.pop("timing", None)
    return cli.render(doc, "json") + "\n", code


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.name[:-len(".spec.json")])
def test_document_unchanged(spec):
    text, code = document(spec)
    assert code == (2 if "diagnostic" in json.loads(text) else 0)
    assert text == expected_path(spec).read_text()


def test_every_spec_has_a_document():
    assert SPECS
    assert sorted(GOLDEN.glob("*.json")) == sorted(
        SPECS + [expected_path(s) for s in SPECS])


if __name__ == "__main__":
    for spec in SPECS:
        expected_path(spec).write_text(document(spec)[0])
