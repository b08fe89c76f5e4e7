"""Exact-mode CLI documents must not change.

Each ``golden/<name>.spec.json`` is run through ``cli.run``; its
``--format json`` document, with the run-dependent ``timing`` block
removed, must equal ``golden/<name>.json`` byte for byte, refusal
diagnostics included.  After an intended change of output, regenerate
the expected documents with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.  Each spec run in double mode must give the same
document up to round-off.
"""

import json
import pathlib
from fractions import Fraction

import pytest

import dirconv.cli as cli
from dirconv.scalars import format_rational, format_scalar, parse_rational, parse_scalar

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


def _block_lines(doc):
    """The table line (or the first of its lines) each block of ``doc`` must give."""
    out = [f"dirconv  task={doc['task']}  backend={doc['backend']['kind']}"
           f"(k={doc['backend']['k']})  mode={doc['mode']}",
           f"spec sha256: {doc['spec_sha256']}"]
    if "diagnostic" in doc:
        out.append(f"REFUSED: {doc['diagnostic']}")
    if "root_report" in doc:
        out.append("anchor roots:")
        out += [f"multiplicity={r['multiplicity']} simple={r['simple']}"
                for r in doc["root_report"]["roots"]]
    if "solution" in doc:
        out.append("solution:")
    for sol in doc.get("solutions", ()):
        out.append(f"solution at root {cli._fmt_val(sol['root'])}:")
    for block in ("certificate", "validation", "residual"):
        if block in doc:
            out.append(f"{block}:")
    if "scalar_equation" in doc:
        se = doc["scalar_equation"]
        out.append(f"scalar equation: all_ok={se['all_ok']}  "
                   f"worst_ratio={se['worst_ratio']:.6g}")
    if "series" in doc:
        out.append("series values:")
        out += [f"  s=({', '.join(cli._fmt_val(c) for c in e['s'])}): "
                f"value={cli._fmt_val(e['value'])}" for e in doc["series"]]
    return out


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.name[:-len(".spec.json")])
def test_table_renders_every_block(spec):
    doc = json.loads(expected_path(spec).read_text())
    lines = cli.render(doc, "table").splitlines()
    for want in _block_lines(doc):
        assert any(line.startswith(want) or line.endswith(want) for line in lines), want


def _number(v):
    """A document value read as a complex number, or None: exact scalars
    are strings ("3/8") or {"re", "im"} objects of them, doubles are
    numbers or objects of numbers."""
    if isinstance(v, dict) and v and set(v) <= {"re", "im"}:
        parts = [_number(v.get(c, 0)) for c in ("re", "im")]
        return None if None in parts else parts[0] + 1j * parts[1]
    if isinstance(v, str):
        try:
            return complex(Fraction(v))
        except ValueError:
            return None
    return None if isinstance(v, bool) or not isinstance(v, (int, float)) else complex(v)


def _agree(double, exact, path=""):
    """Assert the double twin of a document agrees with the exact one:
    the same keys, booleans (but a double root is never ``exact``) and
    refusal class, and every number to a relative 1e-12.  The mode and
    the spec hash differ by construction."""
    if (e := _number(exact)) is not None:
        d = _number(double)
        assert d is not None and abs(d - e) <= 1e-12 * abs(e), (path, double, exact)
    elif isinstance(exact, dict):
        assert set(double) == set(exact), path
        for key in exact.keys() - {"mode", "spec_sha256"}:
            if key == "diagnostic":
                assert double[key].split(":")[0] == exact[key].split(":")[0], path
            else:
                _agree(double[key], exact[key], f"{path}.{key}")
    elif isinstance(exact, list):
        assert len(double) == len(exact), path
        for i, (d, e) in enumerate(zip(double, exact)):
            _agree(d, e, f"{path}[{i}]")
    elif isinstance(exact, bool):
        root_flag = path.startswith(".root_report.roots[") and path.endswith("].exact")
        assert double is (False if root_flag else exact), path
    else:
        assert double == exact, path


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.name[:-len(".spec.json")])
def test_double_twin_agrees_with_the_exact_document(spec, tmp_path):
    """The spec run in double mode gives the exact golden document's
    exit code and, up to round-off, its document."""
    raw = json.loads(spec.read_text())
    raw["arithmetic"] = {"mode": "double"}
    twin = tmp_path / spec.name
    twin.write_text(json.dumps(raw))
    doc, code = cli.run(str(twin))
    doc.pop("timing")
    exact = json.loads(expected_path(spec).read_text())
    assert code == (2 if "diagnostic" in exact else 0)
    assert doc["mode"] == "double"
    _agree(doc, exact)


def _scaled_spec(raw, power):
    """The spec with every coefficient value, and every norm bound, times
    2^power: ``unit`` as a table at the zero element, ``one`` as a const,
    a bound as an exact rational string."""
    raw, factor = json.loads(json.dumps(raw)), 2 ** power
    kind, k = raw["semigroup"]["kind"], raw["semigroup"].get("k")
    zero = ([1] * k if kind == "ordinary-dirichlet"
            else [0] * (k or len(raw["semigroup"]["generators"][0])))

    def times(v):
        return format_scalar(parse_scalar(v, True) * factor)

    def scaled(c):
        if c.get("builtin") == "unit":
            return {"table": [[zero, times(1)]]}
        if "builtin" in c:
            return {"const": times(1)}
        if "const" in c:
            return {"const": times(c["const"])}
        if "indicator" in c:
            return {**c, "value": times(c.get("value", 1))}
        return {"table": [[e, times(v)] for e, v in c["table"]]}

    eq = raw["equation"]
    eq["coefficients"] = [scaled(c) for c in eq["coefficients"]]
    if "norm_bounds" in raw["task"]:
        raw["task"]["norm_bounds"] = [format_rational(parse_rational(b) * factor)
                                      for b in raw["task"]["norm_bounds"]]
    return raw


#: the exact equation goldens
EQUATIONS = [s for s in SPECS if json.loads(s.read_text())["task"]["type"]
             not in ("eval", "invert")]
SCALE_TWINS = [pytest.param(s, p, id=f"{s.name[:-len('.spec.json')]}-2^{p}")
               for p in (1010, 1100) for s in EQUATIONS]


@pytest.mark.parametrize("spec, power", SCALE_TWINS)
def test_scale_twin_agrees_with_the_golden(spec, power, tmp_path):
    """2^power T g = 0 is the equation T g = 0: its twin with every value
    times 2^power, past the double range or near its end, runs scaled back
    and gives the golden's exit code, diagnostic class, roots, solutions,
    certificate, validation, series and scalar-equation verdict."""
    twin = tmp_path / spec.name
    twin.write_text(json.dumps(_scaled_spec(json.loads(spec.read_text()), power)))
    doc, code = cli.run(str(twin))
    golden = json.loads(expected_path(spec).read_text())
    assert code == (2 if "diagnostic" in golden else 0)
    if code:
        assert doc["diagnostic"].split(":")[0] == golden["diagnostic"].split(":")[0]
        return
    doc = json.loads(cli.render(doc, "json"))
    for key in ("solution", "solutions", "skipped_roots", "certificate", "validation",
                "series"):
        assert doc.get(key) == golden.get(key), key
    assert doc.get("root_report", {}).get("roots") == golden.get("root_report", {}).get("roots")
    for key in ("all_ok", "worst_ratio"):
        assert doc.get("scalar_equation", {}).get(key) == \
            golden.get("scalar_equation", {}).get(key), key


def test_every_spec_has_a_document():
    assert SPECS
    assert sorted(GOLDEN.glob("*.json")) == sorted(
        SPECS + [expected_path(s) for s in SPECS])


if __name__ == "__main__":
    for spec in SPECS:
        expected_path(spec).write_text(document(spec)[0])
