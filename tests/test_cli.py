import copy
import json
import math
import pathlib
import time
from fractions import Fraction

import pytest

import dirconv as dc
import dirconv.cli as cli
from dirconv import algebra, certificate, series, solver
from dirconv.scalars import format_scalar

from oracles import sieve_mobius

GOLDEN = pathlib.Path(__file__).parent / "golden"

MOBIUS_SPEC = {
    "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 100},
    "arithmetic": {"mode": "exact"},
    "equation": {"coefficients": [{"builtin": "one"}]},
    "task": {"type": "invert"},
}

SQRT_SPEC = {
    "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 50},
    "arithmetic": {"mode": "exact"},
    "equation": {"coefficients": [
        {"const": "-1"},
        {"const": 0},
        {"builtin": "unit"},
    ]},
    "task": {"type": "solve", "root": 1},
}

UNSOLVABLE_SPEC = {
    "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 12},
    "arithmetic": {"mode": "exact"},
    "equation": {"coefficients": [
        {"table": [[[2], "-1"]]},
        {"const": 0},
        {"builtin": "unit"},
    ]},
    "task": {"type": "solve-all"},
}


def write_spec(tmp_path, spec, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


def run_spec(tmp_path, spec):
    return cli.run(write_spec(tmp_path, spec))


def test_invert_matches_sieve(tmp_path):
    doc, code = run_spec(tmp_path, MOBIUS_SPEC)
    assert code == 0
    oracle = sieve_mobius(100)
    values = {row["id"][0]: row["value"] for row in doc["solution"]}
    for n in range(1, 101):
        assert int(values[n]) == oracle[n]
    assert doc["solution"][0]["id"] == [1]
    assert doc["solution"][0]["value"] == "1"


def test_unsolvable_exits_2_with_obstruction(tmp_path):
    doc, code = run_spec(tmp_path, UNSOLVABLE_SPEC)
    assert code == 2
    assert "unsolvable" in doc["diagnostic"]
    assert "-1" in doc["diagnostic"]


def test_empty_coefficients_exit_1(tmp_path):
    bad = copy.deepcopy(MOBIUS_SPEC)
    bad["equation"]["coefficients"] = []
    doc, code = run_spec(tmp_path, bad)
    assert code == 1
    assert doc["field"] == "equation.coefficients"


def test_degree_zero_rejected(tmp_path):
    bad = copy.deepcopy(SQRT_SPEC)
    bad["equation"]["coefficients"] = [{"builtin": "one"}]
    doc, code = run_spec(tmp_path, bad)
    assert code == 1


def test_off_window_table_entry_rejected(tmp_path):
    bad = copy.deepcopy(UNSOLVABLE_SPEC)
    bad["equation"]["coefficients"][0]["table"] = [[[999], "1"]]
    doc, code = run_spec(tmp_path, bad)
    assert code == 1
    assert "coefficients[0]" in doc["field"]


def test_dimension_mismatch_rejected(tmp_path):
    bad = copy.deepcopy(UNSOLVABLE_SPEC)
    bad["equation"]["coefficients"][0]["table"] = [[[2, 2], "1"]]
    doc, code = run_spec(tmp_path, bad)
    assert code == 1


def test_invalid_json_exit_1(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"semigroup": ')
    doc, code = cli.run(str(p))
    assert code == 1
    assert "line" in doc["error"]


def test_solve_document_structure(tmp_path):
    doc, code = run_spec(tmp_path, SQRT_SPEC)
    assert code == 0
    assert doc["residual"]["exact_zero"] is True
    values = {row["id"][0]: row["value"] for row in doc["solution"]}
    assert values[4] == "3/8"
    roots = doc["root_report"]["roots"]
    assert {r["value"] for r in roots} == {"1", "-1"}


def test_json_round_trip_and_reproducibility(tmp_path):
    doc1, _ = run_spec(tmp_path, SQRT_SPEC)
    doc2, _ = run_spec(tmp_path, SQRT_SPEC)
    text1 = cli.render(doc1, "json")
    assert json.loads(text1) == doc1
    d1, d2 = dict(doc1), dict(doc2)
    d1.pop("timing")
    d2.pop("timing")
    assert cli.render(d1, "json") == cli.render(d2, "json")


def test_certify_task_has_seven_field_certificate(tmp_path):
    spec = copy.deepcopy(SQRT_SPEC)
    spec["task"] = {"type": "certify", "root": 1}
    doc, code = run_spec(tmp_path, spec)
    assert code == 0
    cert = doc["certificate"]
    assert set(cert) == {"rho", "m1", "z0", "t_star", "C", "r", "scope"}
    assert doc["validation"]["ok"] is True


def test_eval_task(tmp_path):
    spec = {
        "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 1000},
        "arithmetic": {"mode": "exact"},
        "equation": {"coefficients": [{"builtin": "one"}]},
        "task": {"type": "eval", "points": [2, {"re": 2, "im": 10}]},
    }
    doc, code = run_spec(tmp_path, spec)
    assert code == 0
    import math
    v = doc["series"][0]["value"]
    assert abs(v - math.pi ** 2 / 6) < 1e-3


def test_verify_task(tmp_path, monkeypatch):
    spec = copy.deepcopy(SQRT_SPEC)
    doc0, _ = run_spec(tmp_path, {**spec, "task": {"type": "certify", "root": 1}})
    r = doc0["certificate"]["r"]
    points = [r + 1.0, {"re": r + 2.0, "im": 3.0}]
    spec["task"] = {"type": "verify", "root": 1, "points": points}
    calls = {"evaluate": 0, "tail_bound": 0, "characters": 0}
    for name in calls:
        def counted(*args, _fn=getattr(series, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(series, name, counted)
    passes, validations = [], []

    def counted_terms(g, r, _fn=algebra.weighted_terms):
        passes.append((g, r))
        return _fn(g, r)

    def counted_validate(cert, g, _fn=certificate.validate):
        validations.append(g)
        return _fn(cert, g)

    for module in (algebra, certificate):
        monkeypatch.setattr(module, "weighted_terms", counted_terms)
    monkeypatch.setattr(certificate, "validate", counted_validate)
    doc, code = run_spec(tmp_path, spec)
    # per point one characters pass serves g and the 3 coefficients; the
    # tail bound does not depend on the point and comes from the one
    # validate call that verify_scalar_equation makes
    assert calls == {"evaluate": 0, "tail_bound": 0, "characters": 2}
    assert len(validations) == 1
    monkeypatch.undo()
    assert code == 0
    assert doc["scalar_equation"]["all_ok"] is True

    problem = cli.Problem(spec)
    T = solver.ConvPolynomial(tuple(problem.coefficients))
    g = solver.solve(T, 1)
    cert = certificate.certify(T, 1)
    # weighted passes: one per coefficient norm at rho = 0 in certify,
    # then one over g at r in validate
    assert passes == [(c, 0.0) for c in T.coeffs] + [(g, cert.r)]
    assert len(doc["series"]) == 2
    for entry, p in zip(doc["series"], problem.points()):
        assert entry["value"] == format_scalar(series.evaluate(g, p).value)
        assert entry["tail_bound"] == series.tail_bound(g, cert, p) >= 0

    # with norm bounds (at the window norms: one is 1 on 50 elements) the
    # round-down norm each bound is checked against comes from the same
    # one pass per coefficient
    spec["task"]["norm_bounds"] = [50, 0, 1]
    passes.clear()
    for module in (algebra, certificate):
        monkeypatch.setattr(module, "weighted_terms", counted_terms)
    doc, code = run_spec(tmp_path, spec)
    monkeypatch.undo()
    assert code == 0 and doc["scalar_equation"]["all_ok"] is True
    cert = certificate.certify(T, 1, norm_bounds=[50, 0, 1])
    assert passes == [(c, 0.0) for c in T.coeffs] + [(g, cert.r)]


def test_table_rendering(tmp_path):
    doc, code = run_spec(tmp_path, MOBIUS_SPEC)
    text = cli.render(doc, "table")
    first_rows = [ln for ln in text.splitlines() if ln.strip().startswith("[1]")]
    assert first_rows and first_rows[0].rstrip().endswith("1")
    spec = copy.deepcopy(SQRT_SPEC)
    spec["task"] = {"type": "certify", "root": 1}
    doc2, _ = run_spec(tmp_path, spec)
    text2 = cli.render(doc2, "table")
    assert "certificate:" in text2
    for field in ("rho=", "m1=", "z0=", "t_star=", "C=", "r=", "scope="):
        assert field in text2


def test_main_writes_out_file(tmp_path, capsys):
    spec_path = write_spec(tmp_path, MOBIUS_SPEC)
    out_path = tmp_path / "result.json"
    code = cli.main(["run", spec_path, "--format", "json", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["task"] == "invert"


def test_main_prints_table(tmp_path, capsys):
    spec_path = write_spec(tmp_path, MOBIUS_SPEC)
    code = cli.main(["run", spec_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "dirconv" in out and "solution" in out


def test_rational_generator_spec(tmp_path):
    spec = {
        "semigroup": {"kind": "rational-generators",
                      "generators": [["2"], ["3"]], "size_bound": "8"},
        "arithmetic": {"mode": "exact"},
        "equation": {"coefficients": [
            {"table": [[["2"], "-1"]]},
            {"const": 0},
            {"builtin": "unit"},
        ]},
        "task": {"type": "solve-all"},
    }
    doc, code = run_spec(tmp_path, spec)
    assert code == 2
    assert "unsolvable" in doc["diagnostic"]


def test_obstruction_elements_print_as_rationals(tmp_path):
    spec = {
        "semigroup": {"kind": "rational-generators",
                      "generators": [["1/2", "0"], ["0", "1/3"]], "size_bound": 2},
        "equation": {"coefficients": [
            {"table": [[["0", "0"], "1"], [["1/2", "0"], "1"]]},
            {"const": "-2"},
            {"builtin": "unit"},
        ]},
        "task": {"type": "solve-all"},
    }
    doc, code = run_spec(tmp_path, spec)
    assert code == 2
    assert "; at q = (0, 1/3) the equation forces" in doc["diagnostic"]
    assert "Fraction" not in doc["diagnostic"]


def test_double_mode_spec(tmp_path):
    spec = copy.deepcopy(SQRT_SPEC)
    spec["arithmetic"] = {"mode": "double"}
    doc, code = run_spec(tmp_path, spec)
    assert code == 0
    values = {row["id"][0]: row["value"] for row in doc["solution"]}
    assert values[4] == pytest.approx(0.375)


def test_both_spellings_of_a_real_root_give_one_double_document(tmp_path):
    # g*g - 1/4 - [n = 2] = 0 at g(1) = 1/2, written as a rational and as
    # a complex object with imaginary part 0: both read as the float 0.5
    spec = {
        "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 40},
        "arithmetic": {"mode": "double"},
        "equation": {"coefficients": [
            {"table": [[[1], "-1/4"], [[2], -1]]}, {"const": 0}, {"builtin": "unit"}]},
        "task": {"type": "certify", "root": "1/2"},
    }
    texts = []
    for root in ("1/2", {"re": "1/2", "im": 0}, {"re": 0.5}):
        spec["task"]["root"] = root
        assert cli.Problem(spec).root() == 0.5 and type(cli.Problem(spec).root()) is float
        doc, code = run_spec(tmp_path, spec)
        assert code == 0
        assert doc["solution"][0]["value"] == 0.5
        del doc["timing"], doc["spec_sha256"]
        texts.append(cli.render(doc, "json"))
    assert texts[0] == texts[1] == texts[2]
    assert "-0.0" not in texts[0]


def test_double_invert_is_gated_by_the_anchor_gate(tmp_path, capsys):
    # g * h - unit = 0 at h(0) = 1/g(0) is simple only for |g(0)| > 1e-6
    spec = {
        "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 10},
        "arithmetic": {"mode": "double"},
        "equation": {"coefficients": [{"const": 1e-8}]},
        "task": {"type": "invert"},
    }
    doc, code = run_spec(tmp_path, spec)
    assert code == 2
    assert doc["diagnostic"].startswith("NotInvertible: ")
    assert "simplicity gate" in doc["diagnostic"]
    spec["equation"]["coefficients"][0]["const"] = 1e-5
    doc, code = run_spec(tmp_path, spec)
    assert code == 0
    assert doc["solution"][0]["value"] == format_scalar(1 / 1e-5 + 0j)
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    assert "--tolerance" not in capsys.readouterr().out


INDICATOR_INVERT_SPEC = {
    "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 10},
    "arithmetic": {"mode": "double"},
    "equation": {"coefficients": [{"indicator": [2]}]},
    "task": {"type": "invert"},
}


@pytest.mark.parametrize("tol", [-1, "nan", "inf", "x"])
def test_bad_tolerance_in_the_spec_exits_1(tmp_path, tol):
    """``tolerance`` is not a spec field: any value is refused at its path."""
    spec = copy.deepcopy(INDICATOR_INVERT_SPEC)
    spec["arithmetic"]["tolerance"] = tol
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["field"] == "arithmetic.tolerance"


@pytest.mark.parametrize("arith, field", [
    ("double", "arithmetic"), (["double"], "arithmetic"),
    ({"mode": "double", "precision": 53}, "arithmetic.precision"),
    ({"tolerance": 1e-10, "mode": "double"}, "arithmetic.tolerance"),
])
def test_arithmetic_is_an_object_with_only_a_mode(tmp_path, arith, field):
    spec = copy.deepcopy(INDICATOR_INVERT_SPEC)
    spec["arithmetic"] = arith
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["field"] == field


@pytest.mark.parametrize("key, value", [
    ("k", "x"), ("k", 0), ("k", 10**9), ("max_product", "x"),
])
def test_malformed_semigroup_fields_exit_1_at_their_field(tmp_path, key, value):
    spec = copy.deepcopy(MOBIUS_SPEC)
    spec["semigroup"][key] = value
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["field"] == f"semigroup.{key}"


@pytest.mark.parametrize("key, value", [
    ("rho", "abc"), ("rho", [1]), ("root", "1/0"), ("root", "x"),
    ("norm_bounds", 5), ("norm_bounds", "123"), ("norm_bounds", ["x", 1, 1]),
])
def test_malformed_task_fields_exit_1_at_their_field(tmp_path, key, value):
    with open(GOLDEN / "certify-rho.spec.json") as fh:
        spec = json.load(fh)
    spec["task"][key] = value
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["field"] == f"task.{key}"


def _with(**fields):
    return {**SQRT_SPEC, **fields}


def _coefficients(first):
    return {"coefficients": [first, {"builtin": "unit"}]}


@pytest.mark.parametrize("spec, field", [
    ([SQRT_SPEC], ""),
    (_with(semigroup={"k": 1, "max_product": 50}), "semigroup"),
    (_with(semigroup={"kind": "tree", "k": 1}), "semigroup.kind"),
    (_with(semigroup={"kind": "lattice", "k": 1, "size_bound": 3, "max_elements": 9}),
     "semigroup"),
    (_with(semigroup={"kind": "ordinary-dirichlet", "k": 1, "size_bound": 3}), "semigroup"),
    (_with(semigroup={"kind": "lattice", "k": 1, "max_product": 50}), "semigroup"),
    (_with(arithmetic={"mode": "quad"}), "arithmetic.mode"),
    (_with(equation=_coefficients(5)), "equation.coefficients[0]"),
    (_with(equation=_coefficients({"const": 1, "builtin": "one"})),
     "equation.coefficients[0]"),
    (_with(equation=_coefficients({"builtin": "zeta"})), "equation.coefficients[0]"),
    (_with(equation=_coefficients({"table": [[[2]]]})), "equation.coefficients[0].table[0]"),
    (_with(equation=_coefficients({"table": [[2, "1"]]})),
     "equation.coefficients[0].table[0]"),
    (_with(task={"type": "factor"}), "task.type"),
    (_with(task={"type": "invert"}), "equation.coefficients"),
    (_with(task={"type": "solve"}), "task.root"),
    (_with(equation=_coefficients({"const": "abc"})), "equation.coefficients[0]"),
])
def test_malformed_specs_exit_1_at_their_field(tmp_path, spec, field):
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["field"] == field


@pytest.mark.parametrize("call, message", [
    (lambda spec: cli.run(spec + ".missing"), "No such file"),
    (lambda spec: cli.render(cli.run(spec)[0], "yaml"), "unknown format 'yaml'"),
])
def test_calls_beside_the_spec_are_refused(tmp_path, call, message):
    # run reports in its document; render raises
    try:
        doc, code = call(write_spec(tmp_path, SQRT_SPEC))
    except ValueError as exc:
        doc, code = {"error": str(exc)}, 1
    assert code == 1
    assert message in doc["error"]


def test_a_max_elements_window_gives_the_size_bound_document(tmp_path):
    """The 10 smallest elements of the k = 2 lattice are those of size <= 3."""
    docs = []
    for truncation in ({"max_elements": 10}, {"size_bound": 3}):
        doc, code = run_spec(tmp_path, _with(
            semigroup={"kind": "lattice", "k": 2, **truncation},
            equation={"coefficients": [{"builtin": "one"}, {"const": 0}, {"const": -1}]}))
        assert code == 0
        del doc["spec_sha256"], doc["timing"]
        docs.append(cli.render(doc, "json"))
    assert docs[0] == docs[1]
    assert len(json.loads(docs[0])["solution"]) == 10


@pytest.mark.parametrize("bound", ["nan", math.nan, math.inf, -1.0],
                         ids=["nan", "NaN", "Infinity", "-1.0"])
def test_nan_or_negative_norm_bound_exits_1(tmp_path, bound):
    """A bound is a rational read like ``rho``: NaN and Infinity (as JSON
    constants or strings) are unreadable at their field; a negative one is
    a number that ``build_PQ`` refuses."""
    with open(GOLDEN / "verify-two-points.spec.json") as fh:
        spec = json.load(fh)
    spec["task"]["norm_bounds"] = [bound, 0, 1]
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    if bound == -1.0:
        assert doc["error"].startswith("ValueError: norm bounds must be numbers >= 0")
    else:
        assert doc["field"] == "task.norm_bounds"


def test_point_parts_take_rational_strings(tmp_path):
    spec = {
        "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 100},
        "arithmetic": {"mode": "exact"},
        "equation": {"coefficients": [{"builtin": "one"}]},
        "task": {"type": "eval", "points": [
            "5/2", {"re": "5/2", "im": 0}, {"re": 2.5, "im": "-1/4"}]},
    }
    doc, code = run_spec(tmp_path, spec)
    assert code == 0
    a, b, c = doc["series"]
    assert a["s"] == b["s"] == [2.5] and a["value"] == b["value"]
    assert c["s"] == [{"re": 2.5, "im": -0.25}]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("part", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form", ["bare", "list", "re", "im"])
def test_non_finite_points_exit_1_with_a_json_document(tmp_path, capsys, part, form):
    with open(GOLDEN / "verify-two-points.spec.json") as fh:
        spec = json.load(fh)
    point = {"bare": part, "list": [part], "re": {"re": part, "im": 3},
             "im": {"re": 7, "im": part}}[form]
    spec["task"]["points"] = [6, point]
    path = write_spec(tmp_path, spec)      # json.dumps writes NaN and Infinity
    assert cli.main(["run", path, "--format", "json"]) == 1
    doc = _strict_json(capsys.readouterr().out)
    assert doc["field"] == "task.points[1]"
    assert "finite" in doc["error"]
    spec["task"] = {"type": "eval", "points": [point]}
    spec["equation"]["coefficients"] = [{"builtin": "one"}]
    doc, code = run_spec(tmp_path, spec)
    assert code == 1 and doc["field"] == "task.points[0]"


@pytest.mark.parametrize("part", ["1/0", "1e400", {"re": "1e400"}])
def test_points_beyond_the_double_range_exit_1(tmp_path, part):
    spec = {**MOBIUS_SPEC, "task": {"type": "eval", "points": [part]}}
    doc, code = run_spec(tmp_path, spec)
    assert code == 1 and doc["field"] == "task.points[0]"


@pytest.mark.parametrize("mode, at, value, field", [
    ("double", 0, {"const": math.nan}, "equation.coefficients[0]"),
    ("double", 0, {"const": math.inf}, "equation.coefficients[0]"),
    ("double", 0, {"const": True}, "equation.coefficients[0]"),
    ("double", 1, {"const": {"re": 2, "im": False}}, "equation.coefficients[1]"),
    ("double", 0, {"const": "1e400"}, "equation.coefficients[0]"),
    ("exact", 1, {"indicator": [2], "value": "1/0"}, "equation.coefficients[1]"),
    ("double", 1, {"indicator": [2], "value": "1/0"}, "equation.coefficients[1]"),
    ("double", None, math.nan, "task.root"),
])
def test_every_spec_scalar_is_refused_at_its_field(tmp_path, capsys, mode, at, value, field):
    """Booleans, non-finite doubles and values with no double or no
    rational form exit 1 with an error document, not a refusal or a
    traceback."""
    coefficients = [{"const": "-1"}, {"const": 0}, {"builtin": "unit"}]
    task = {"type": "solve-all"}
    if at is None:
        task = {"type": "solve", "root": value}
    else:
        coefficients[at] = value
    path = write_spec(tmp_path, {**SQRT_SPEC, "arithmetic": {"mode": mode}, "task": task,
                                 "equation": {"coefficients": coefficients}})
    assert cli.main(["run", path, "--format", "json"]) == 1
    doc = _strict_json(capsys.readouterr().out)
    assert doc["field"] == field


def test_too_large_windows_are_refused_before_they_are_built(tmp_path, capsys):
    """A walk past MAX_ELEMENTS ends in a spec error (exit 1), a table
    past MAX_PAIRS in a refusal (exit 2), each within a second."""
    spec = copy.deepcopy(MOBIUS_SPEC)
    spec["semigroup"]["max_product"] = 10 ** 9
    started = time.perf_counter()
    assert cli.main(["run", write_spec(tmp_path, spec), "--format", "json"]) == 1
    assert time.perf_counter() - started < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"] == "semigroup" and "limit of 1000000 elements" in doc["error"]
    spec["semigroup"] = {"kind": "lattice", "k": 1, "size_bound": 10 ** 4}
    started = time.perf_counter()
    doc, code = run_spec(tmp_path, spec)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert doc["diagnostic"].startswith("WindowTooLarge: a table of 25010001 pairs")


def test_certify_with_rho_and_norm_bounds(tmp_path):
    spec = copy.deepcopy(SQRT_SPEC)
    spec["task"] = {"type": "certify", "root": 1, "rho": "1/2",
                    "norm_bounds": [60.0, 0.0, 1.0]}
    doc, code = run_spec(tmp_path, spec)
    assert code == 0
    assert doc["certificate"]["scope"] == "user-bound"
    assert doc["certificate"]["rho"] == "1/2"
    assert doc["certificate"]["r"] >= 0.5


def test_verify_task_refuses_points_below_certified_rate(tmp_path):
    spec = copy.deepcopy(SQRT_SPEC)
    spec["task"] = {"type": "certify", "root": 1}
    r = run_spec(tmp_path, spec)[0]["certificate"]["r"]
    spec["task"] = {"type": "verify", "root": 1, "points": [r + 1.0, 0.25]}
    doc, code = run_spec(tmp_path, spec)
    assert code == 2
    assert doc["diagnostic"] == (
        "OutOfHalfPlane: point ((0.25+0j),) below the certified half-plane "
        f"r = {r}")


def test_refusal_reports_the_parsed_dimension(tmp_path):
    spec = {
        "semigroup": {"kind": "rational-generators",
                      "generators": [["1/2", "0"], ["0", "1/3"]],
                      "size_bound": "2"},
        "arithmetic": {"mode": "exact"},
        "equation": {"coefficients": [
            {"const": 1}, {"const": 0}, {"builtin": "unit"}]},
        "task": {"type": "solve", "root": 5},
    }
    refused, code = run_spec(tmp_path, spec)
    assert code == 2
    assert refused["diagnostic"].startswith("NotASimpleRoot: ")
    spec["equation"]["coefficients"][0] = {"const": -1}
    spec["task"]["root"] = 1
    solved, code = run_spec(tmp_path, spec)
    assert code == 0
    assert refused["backend"] == {"kind": "rational-generators", "k": 2}
    for key in ("backend", "mode", "task"):
        assert refused[key] == solved[key]


@pytest.mark.parametrize("task", [
    {"type": "verify", "root": 1, "points": [[1, 2]]},
    {"type": "verify", "root": 1},
    {"type": "certify", "root": 1, "rho": "x"},
    {"type": "certify", "root": 1, "norm_bounds": ["x", 0, 1]},
])
def test_task_fields_are_read_before_solving(tmp_path, monkeypatch, task):
    calls = []
    real_solve = solver.solve

    def counting_solve(*args):
        calls.append(args)
        return real_solve(*args)

    monkeypatch.setattr(solver, "solve", counting_solve)
    spec = copy.deepcopy(SQRT_SPEC)
    spec["task"] = task
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert "error" in doc
    assert calls == []


def test_rho_beyond_the_double_range_exits_1_without_solving(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "solve", lambda *args: calls.append(args))
    with open(GOLDEN / "certify-rho.spec.json") as fh:
        spec = json.load(fh)
    spec["task"]["rho"] = "1e400"
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["error"].startswith("ValueError: rho lies beyond the double range")
    assert calls == []


def test_value_beyond_the_squared_double_range_gives_a_document(tmp_path):
    """|a_0(2)|^2 = 1e400 lies beyond the double range while |a_0(2)| does
    not: the norm brackets stay finite and certify yields a document."""
    spec = {
        "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 6},
        "arithmetic": {"mode": "exact"},
        "equation": {"coefficients": [
            {"table": [[[1], "-1"], [[2], "1e200"]]}, {"builtin": "unit"}]},
        "task": {"type": "certify", "root": 1},
    }
    doc, code = run_spec(tmp_path, spec)
    assert code in (0, 2)
    if code == 2:
        assert doc["diagnostic"].split(":")[0] in {
            "NoPositiveR", "AllCoefficientsZero", "NotASimpleRoot"}
    else:
        assert doc["validation"]["ok"]
        assert doc["solution"][1]["value"] == "-1" + "0" * 200


LATTICE_CERTIFY_SPEC = {
    "semigroup": {"kind": "lattice", "k": 1, "size_bound": 4},
    "equation": {"coefficients": [{"const": "-1"}, {"const": 0}, {"builtin": "unit"}]},
    "task": {"type": "certify", "root": 1, "rho": "1/2", "norm_bounds": [3, 0, 1]},
}


def _edited(base, *edits):
    """A copy of ``base`` with each (path, value) edit made; an edit whose
    value is ``None`` deletes the field."""
    spec = copy.deepcopy(base)
    for path, value in edits:
        *parents, last = path
        obj = spec
        for key in parents:
            obj = obj[key]
        if value is None:
            del obj[last]
        else:
            obj[last] = copy.deepcopy(value)
    return spec


def _first(base, coefficient):
    return _edited(base, (("equation", "coefficients", 0), coefficient))


GENERATORS = {"kind": "rational-generators", "generators": [["1/2", "0"], ["0", "1/3"]],
              "size_bound": 2}
LATTICE2 = {"kind": "lattice", "k": 2, "size_bound": 4}


@pytest.mark.parametrize("spec, field", [
    (_edited(LATTICE_CERTIFY_SPEC, (("semigroup", "k"), 1.9)), "semigroup.k"),
    (_edited(LATTICE_CERTIFY_SPEC, (("semigroup", "k"), True),
             (("semigroup", "size_bound"), True), (("task", "rho"), True)), "semigroup.k"),
    (_edited(SQRT_SPEC, (("semigroup", "max_product"), 6.9)), "semigroup.max_product"),
    (_edited(LATTICE_CERTIFY_SPEC, (("semigroup", "size_bound"), None),
             (("semigroup", "max_elements"), 2.5)), "semigroup.max_elements"),
    (_edited(LATTICE_CERTIFY_SPEC, (("semigroup", "size_bound"), True)),
     "semigroup.size_bound"),
    (_edited(LATTICE_CERTIFY_SPEC, (("semigroup",), GENERATORS),
             (("semigroup", "generators", 1, 0), True)), "semigroup.generators"),
    (_edited(LATTICE_CERTIFY_SPEC, (("task", "rho"), True)), "task.rho"),
    (_edited(LATTICE_CERTIFY_SPEC, (("task", "norm_bounds"), [True, 0, 1])),
     "task.norm_bounds"),
    (_first(SQRT_SPEC, {"indicator": [1.7]}), "equation.coefficients[0]"),
    (_first(SQRT_SPEC, {"table": [[[True], 2]]}), "equation.coefficients[0].table[0]"),
    (_edited(LATTICE_CERTIFY_SPEC, (("task", "rh0"), 2)), "task.rh0"),
    (_edited(LATTICE_CERTIFY_SPEC, (("semigroup", "size_bond"), 2)), "semigroup.size_bond"),
    (_first(SQRT_SPEC, {"const": "-1", "value": 2}), "equation.coefficients[0].value"),
    # elements of the wrong length or out of range, on either backend
    (_first(_edited(SQRT_SPEC, (("semigroup",), LATTICE2)), {"indicator": [1]}),
     "equation.coefficients[0]"),
    (_first(_edited(SQRT_SPEC, (("semigroup",), LATTICE2)), {"indicator": [1, -1]}),
     "equation.coefficients[0]"),
    (_first(_edited(SQRT_SPEC, (("semigroup",), GENERATORS)), {"table": [[["1/2"], 1]]}),
     "equation.coefficients[0].table[0]"),
    (_first(_edited(SQRT_SPEC, (("semigroup",), GENERATORS)),
            {"table": [[["-1/2", "0"], 1]]}), "equation.coefficients[0].table[0]"),
])
def test_the_spec_reader_refuses_each_value_at_its_field(tmp_path, spec, field):
    """Counts are integers, booleans are no numbers, elements lie in the
    window and every spec object refuses unknown fields."""
    assert run_spec(tmp_path, LATTICE_CERTIFY_SPEC)[1] == 0
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["field"] == field


def test_a_norm_bound_below_the_window_norm_exits_1(tmp_path):
    """||a_0||_{1/2} of const -1 is at least its window part 2.333 on the
    lattice to size 4, so the bound 0 is false and the certificate refused."""
    spec = _edited(LATTICE_CERTIFY_SPEC, (("task", "norm_bounds"), [0, 0, 0]))
    doc, code = run_spec(tmp_path, spec)
    assert code == 1
    assert doc["error"].startswith(
        "ValueError: norm bounds must be numbers >= 0 that the window does not refute: "
        "a_0 has 0.0, below its window norm 2.33")


def test_every_spelling_of_an_element_names_one_element(tmp_path):
    texts = set()
    for element in ([2], ["2"], [2.0]):
        doc, code = run_spec(tmp_path, {
            "semigroup": {"kind": "lattice", "k": 1, "size_bound": 6},
            "equation": {"coefficients": [{"table": [[[0], 1], [element, "1/2"]]}]},
            "task": {"type": "invert"}})
        assert code == 0
        assert doc["solution"][2]["value"] == "-1/2"
        del doc["timing"], doc["spec_sha256"]
        texts.add(cli.render(doc, "json"))
    assert len(texts) == 1


def test_anchor_coefficients_past_the_double_range_are_scaled_or_refused(tmp_path):
    """f = 10^400 + z + 10^400 z^2 has the simple roots near +-i.  The
    equation is held divided by 2^328, which changes neither its roots nor
    its solutions, so solve-all prints both, with a finite residual of the
    scaled equation and its scale.  An anchor root past the double range
    is refused with exit 2, not exit 1."""
    spec = {"semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 6},
            "arithmetic": {"mode": "exact"},
            "equation": {"coefficients": [{"const": "1e400"}, {"const": 1},
                                          {"const": "1e400"}]},
            "task": {"type": "solve-all"}}
    doc, code = run_spec(tmp_path, spec)
    assert code == 0 and doc["equation_scale"] == "2^-328"
    roots = [complex(r["re"], r["im"]) for r in (s["root"] for s in doc["solutions"])]
    assert len(roots) == 2 and all(abs(z * z + 1) < 1e-12 for z in roots)
    assert 0 < doc["residual"]["max_abs"] < 1e-90
    enum = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=6)
    T = dc.ConvPolynomial(tuple(algebra.constant(enum, c) for c in ("1e400", 1, "1e400")))
    assert T.shift == 328
    result = dc.solve_all(T)
    assert len(result) == 2 and all(r.simple for r in result.report.roots)
    for root, g in result:
        assert abs(root.value ** 2 + 1) < 1e-12
        assert g.values[0] == root.value and all(map(math.isfinite, map(abs, g.values)))
        assert all(map(math.isfinite, map(abs, solver.residual(T, g).values)))
    # 1 + 3 z + 10^-400 z^2 has a root near -3 * 10^400, which no double holds
    spec["equation"]["coefficients"] = [{"const": 1}, {"const": 3}, {"const": "1e-400"}]
    doc, code = run_spec(tmp_path, spec)
    assert (code, doc["diagnostic"]) == (2, "MathematicalRefusal: an anchor root lies "
                                            "outside the double range")


@pytest.mark.parametrize("c", ["1", "1e400"])
def test_double_roots_past_the_double_range_leave_existence_undecided(tmp_path, c):
    """c (z^2 - 2)^2 has the double roots +-sqrt 2 whatever c is: the
    obstruction test reads the scaled equation, so 10^400 gives the
    refusal of 1, not an OverflowError."""
    spec = {"semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 6},
            "arithmetic": {"mode": "exact"},
            "equation": {"coefficients": [{"const": f"{4 * Fraction(c)}"}, {"const": 0},
                                          {"const": f"{-4 * Fraction(c)}"}, {"const": 0},
                                          {"const": c}]},
            "task": {"type": "solve-all"}}
    doc, code = run_spec(tmp_path, spec)
    assert (code, doc["diagnostic"]) == (2, "NoSimpleRoots: the anchor polynomial has no "
                                            "simple roots; existence is undecided")


#: -1 + 10^6 delta_1 * g + g * g = 0 in doubles: each step multiplies g by about
#: 10^6, so the sweep overflows and g(x) is NaN from x = 55 on
OVERFLOW_SPEC = {
    "semigroup": {"kind": "lattice", "k": 1, "size_bound": 80},
    "arithmetic": {"mode": "double"},
    "equation": {"coefficients": [
        {"const": "-1"}, {"indicator": [1], "value": "1000000"}, {"builtin": "unit"}]},
    "task": {"type": "certify", "root": "1", "rho": 0},
}

#: the inverse of 1 - 10^200 delta_1 is sum_n 10^(200 n) delta_n: inf from n = 2 on
OVERFLOW_INVERT_SPEC = {
    "semigroup": {"kind": "lattice", "k": 1, "size_bound": 400},
    "arithmetic": {"mode": "double"},
    "equation": {"coefficients": [{"table": [[[0], 1], [[1], -1e200]]}]},
    "task": {"type": "invert"},
}


@pytest.mark.parametrize("spec, where", [
    (OVERFLOW_SPEC, "g_1(55) = nan"),
    ({**OVERFLOW_SPEC, "task": {"type": "solve", "root": "1"}}, "g_1(55) = nan"),
    ({**OVERFLOW_SPEC, "task": {"type": "solve-all"}}, "g_1(55) = nan"),
    ({**OVERFLOW_SPEC, "task": {"type": "verify", "root": "1", "points": [60]}},
     "g_1(55) = nan"),
    (OVERFLOW_INVERT_SPEC, "g_1(2) = inf"),
])
def test_a_double_sweep_that_overflows_is_refused(tmp_path, spec, where):
    """A non-finite value is no value of the solution: the sweep refuses it
    at the first element outside the double range, and the CLI exits 2."""
    doc, code = run_spec(tmp_path, spec)
    assert code == 2
    assert doc["diagnostic"].startswith(f"MathematicalRefusal: {where} lies outside "
                                        "the double range")
    assert "solution" not in doc and "solutions" not in doc


def test_a_system_sweep_that_overflows_is_refused():
    """solve_system runs the same sweep: with g_1 = unit + 10^200 delta_1,
    g_2 = delta_1 * g_1 * g_1 is 10^400 at x = 3.  The identity J^{-1}
    is applied as a matrix to both equations' values, so 0 * inf makes
    g_1(3) NaN too, and the refusal names both unknowns at x = 3."""
    enum = dc.enumerate_semigroup(dc.Lattice(1), size_bound=3)
    unit = algebra.unit(enum, False)
    S = dc.PolySystem(2, [
        [dc.Monomial(-unit, (0, 0)), dc.Monomial(unit, (1, 0)),
         dc.Monomial(algebra.indicator(enum, (1,), -1e200, False), (0, 0))],
        [dc.Monomial(unit, (0, 1)),
         dc.Monomial(algebra.indicator(enum, (1,), -1, False), (2, 0))]], (1, 0))
    with pytest.raises(dc.MathematicalRefusal, match=r"^g_1\(3\) = nan lies outside") as refusal:
        solver.solve_system(S)
    assert str(refusal.value).endswith(", as does g_2(3) = inf: the sweep overflows")


def test_the_sweep_refusal_names_the_first_element_and_each_unknown_there():
    """Two decoupled equations 0.1 g_l + t_l = 0 on Lattice(1) to size 6:
    g_1 = -10 t_1 overflows at 5 and g_2 = -10 t_2 at 1, so the refusal
    names g_2(1), the first element in window order, and only g_2."""
    enum = dc.enumerate_semigroup(dc.Lattice(1), size_bound=6)
    unit = algebra.unit(enum, False)

    def t(at):
        return algebra.from_pairs(enum, [((0,), -0.1), ((at,), -1e308)], False)

    S = dc.PolySystem(2, [[dc.Monomial(unit.scale(0.1), (1, 0)), dc.Monomial(t(5), (0, 0))],
                          [dc.Monomial(unit.scale(0.1), (0, 1)), dc.Monomial(t(1), (0, 0))]],
                      (1, 1))
    with pytest.raises(dc.MathematicalRefusal) as refusal:
        solver.solve_system(S)
    assert str(refusal.value) == ("g_2(1) = inf lies outside the double range: "
                                  "the sweep overflows")


def test_a_double_solve_near_the_top_of_the_range_exits_0(tmp_path):
    """Finite values are kept however large: g = sum_n 10^(100 n) delta_n reaches 1e300."""
    doc, code = run_spec(tmp_path, {
        "semigroup": {"kind": "lattice", "k": 1, "size_bound": 3},
        "arithmetic": {"mode": "double"},
        "equation": {"coefficients": [
            {"indicator": [0], "value": -1}, {"table": [[[0], 1], [[1], "-1e100"]]}]},
        "task": {"type": "solve", "root": 1}})
    assert code == 0
    assert [row["value"] for row in doc["solution"]] == [1.0, 1e100, 1e200, 1e300]
    assert doc["residual"]["max_abs"] == 0.0


@pytest.mark.parametrize("task", [{"type": "certify"}, {"type": "verify", "points": [60]}])
def test_a_nan_partial_sum_fails_validation(task):
    """margin < 0 is False for NaN: a level whose partial sum is NaN must
    fail as an inf one does, not pass with the margins of the levels before.
    The sweep refuses NaN, so the g validated is built by hand: g(0) = z0,
    0 up to x = 54, NaN from x = 55 on."""
    problem = cli.Problem({**OVERFLOW_SPEC, "task": {**OVERFLOW_SPEC["task"], **task}})
    T = solver.ConvPolynomial(tuple(problem.coefficients))
    cert = certificate.certify(T, problem.root(), problem.rho())
    n = len(problem.enum)
    g = algebra.TruncatedFunction(problem.enum, [1.0] + [0.0] * 54 + [math.nan] * (n - 55),
                                  False)
    with pytest.raises(dc.CertificateViolated, match=r"^partial sum nan exceeds t\*"):
        if task["type"] == "certify":
            certificate.validate(cert, g)
        else:
            series.verify_scalar_equation(T, g, problem.points(), cert=cert)


#: -10^308 delta_1 + (unit + 10^308 delta_1) * g + 2 g * g = 0 on {0, 1}, anchor
#: polynomial z + 2 z^2: the solutions at the roots 0 and -1/2 are finite, but
#: Horner's 2 g + a_1 overflows at 1, so the residual at root 0 reads
#: inf * g(0) = inf * 0 = NaN there
NAN_RESIDUAL_SPEC = {
    "semigroup": {"kind": "lattice", "k": 1, "size_bound": 1},
    "arithmetic": {"mode": "double"},
    "equation": {"coefficients": [
        {"indicator": [1], "value": "-1e308"}, {"table": [[[0], 1], [[1], "1e308"]]},
        {"indicator": [0], "value": 2}]},
}


@pytest.mark.parametrize("task", [{"type": "solve", "root": "0"}, {"type": "solve-all"}])
def test_a_nan_residual_reports_max_abs_nan(tmp_path, task):
    """A residual max_abs that is not finite would print a bare NaN, which
    is not JSON: the document is refused at the first element where T g
    leaves the double range, and the CLI exits 2.  solve-all meets the
    root -1/2 first, whose residual is inf there."""
    doc, code = run_spec(tmp_path, {**NAN_RESIDUAL_SPEC, "task": task})
    value = "inf" if task["type"] == "solve-all" else "nan"
    assert code == 2
    assert doc["diagnostic"] == (f"MathematicalRefusal: (T g)(1) = {value} lies outside "
                                 "the double range: the residual overflows")
    assert "residual" not in doc and "solution" not in doc and "solutions" not in doc
    json.loads(cli.render(doc, "json"), parse_constant=_no_constant)


def test_the_library_residual_reports_max_abs_nan():
    """max(0.0, nan, ...) keeps whichever comes first; the library's
    max_abs of the residual at root 0 must report the NaN."""
    problem = cli.Problem({**NAN_RESIDUAL_SPEC, "task": {"type": "solve", "root": "0"}})
    T = solver.ConvPolynomial(tuple(problem.coefficients))
    res = solver.residual(T, solver.solve(T, 0))
    assert math.isnan(res.max_abs())
    assert not res.is_zero()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("spec", [OVERFLOW_SPEC, OVERFLOW_INVERT_SPEC, NAN_RESIDUAL_SPEC,
                                  *sorted(GOLDEN.glob("*.spec.json"))],
                         ids=lambda s: s.name[:-len(".spec.json")] if isinstance(s, pathlib.Path)
                         else None)
def test_every_document_is_json(tmp_path, spec):
    """--format json prints no NaN or Infinity token: each golden document
    and each refusal document (the overflowing sweeps, the NaN residual)
    parses with every such constant refused, in exact and double mode."""
    if isinstance(spec, pathlib.Path):
        spec = json.loads(spec.read_text())
    spec = {"task": {"type": "solve", "root": "0"}, **spec}
    for mode in ("exact", "double"):
        doc, _ = run_spec(tmp_path, {**spec, "arithmetic": {"mode": mode}})
        json.loads(cli.render(doc, "json") if "error" not in doc else json.dumps(doc),
                   parse_constant=_no_constant)
