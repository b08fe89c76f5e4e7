"""Batch front-end: JSON problem specs in, tables or JSON documents out.

A problem spec names a semigroup window, an arithmetic mode, coefficient
functions and one task (solve, solve-all, invert, certify, eval,
verify).  Exit codes: 0 success, 2 mathematical refusal (no simple
roots, not invertible, no certificate, ...) with the diagnostic in the
document, 1 spec or I/O errors.  Output is deterministic for a fixed
spec; the timing block is the only field that varies between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from . import algebra, certificate, series, solver
from .algebra import TruncatedFunction
from .errors import DirconvError, MathematicalRefusal, SpecError
from .rounding import abs_bounds
from .scalars import (format_rational, format_scalar, parse_count,
                      parse_rational, parse_scalar)
from .semigroup import (Lattice, OrdinaryDirichlet, RationalGenerators,
                        enumerate_semigroup)

#: each task's fields beside ``type``
TASKS = {"solve": ("root",), "solve-all": (), "invert": (), "eval": ("points",),
         "certify": ("root", "rho", "norm_bounds"),
         "verify": ("root", "rho", "norm_bounds", "points")}


# ---------------------------------------------------------------------------
# spec reading: one reader, one rule per kind of value

_REQUIRED = object()


class _Spec:
    """A spec object (or list) at ``path``, read one field at a time.

    ``only`` refuses the first field, in spec order, outside the given
    ones.  ``read`` hands a field's value to its parser and refuses a
    malformed value at ``<path>.<field>`` (``<path>[i]`` in a list), a
    missing one at ``path``; a SpecError from the parser names its own field.
    """

    def __init__(self, raw, path, kind=dict):
        if not isinstance(raw, kind):
            raise SpecError(f"must be a JSON {'object' if kind is dict else 'list'}", path)
        self.raw, self.path = raw, path

    def at(self, field):
        if isinstance(field, int):
            return f"{self.path}[{field}]"
        return f"{self.path}.{field}".lstrip(".")

    def only(self, *fields):
        for field in self.raw:
            if field not in fields:
                raise SpecError(f"unknown field {field!r}", self.at(field))
        return self

    def read(self, field, parse, *args, default=_REQUIRED):
        try:
            value = self.raw[field]
        except KeyError:
            if default is _REQUIRED:
                raise SpecError(f"missing required field {field!r}", self.path)
            value = default
        try:
            return parse(value, *args)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise SpecError(str(exc), self.at(field))

    def sub(self, field, kind=dict, default=_REQUIRED):
        """The object (or list) in ``field``, as a reader of its own."""
        return self.read(field, _Spec, self.at(field), kind, default=default)

    def entries(self):
        """The indices of a list that must not be empty."""
        if not self.raw:
            raise SpecError("must be a non-empty list", self.path)
        return range(len(self.raw))


def _choice(raw, names):
    if not (isinstance(raw, str) and raw in names):
        raise ValueError(f"{raw!r} is not one of {', '.join(names)}")
    return raw


def _norm_bounds(raw):
    """The caller's claimed norm levels as rationals, read like ``rho``, or None."""
    if raw is not None and not isinstance(raw, list):
        raise TypeError("norm_bounds must be a list of numbers")
    return None if raw is None else list(map(parse_rational, raw))


def _element(raw, enum):
    """The window's own identity at the coordinates ``raw``: membership
    refuses a wrong length, range or value."""
    if not isinstance(raw, list):
        raise TypeError("an element is a list of per-coordinate entries")
    ident = tuple(map(parse_rational, raw))
    if ident not in enum:
        raise ValueError(f"element {raw!r} lies outside the enumerated window")
    return enum[enum.index_of(ident)].ident


def _point(raw, k):
    many = isinstance(raw, list)
    if many and len(raw) != k:
        raise ValueError(f"point needs {k} components")
    pt = [parse_scalar(v, False) for v in (raw if many else [raw])]
    return tuple(pt) if many else pt[0]


#: each semigroup kind's parameter field and its reading
BACKENDS = {
    "lattice": ("k", lambda k: Lattice(parse_count(k))),
    "ordinary-dirichlet": ("k", lambda k: OrdinaryDirichlet(parse_count(k))),
    "rational-generators": ("generators",
                            lambda gens: RationalGenerators(tuple(map(tuple, gens)))),
}
TRUNCATIONS = ("size_bound", "max_product", "max_elements")


def _truncation(sg, backend):
    given = [field for field in TRUNCATIONS if field in sg.raw]
    if len(given) != 1:
        raise SpecError(
            "give exactly one of size_bound / max_product / max_elements", sg.path)
    field = given[0]
    if field == "max_elements":
        return {field: sg.read(field, parse_count)}
    if (field == "max_product") != (backend.kind == "ordinary-dirichlet"):
        raise SpecError("ordinary-dirichlet windows are truncated by max_product (the "
                        "size bound is then log(max_product)), the others by size_bound",
                        sg.path)
    return {"size_bound": sg.read(field, parse_count if field == "max_product"
                                  else parse_rational)}


def _function(raw, path, enum, exact):
    """A coefficient spec; a malformed value is refused at ``path``, a
    table row at its own field."""
    spec = _Spec(raw, path)
    kinds = [field for field in ("builtin", "const", "indicator", "table") if field in raw]
    if len(kinds) != 1:
        raise ValueError("need exactly one of builtin / const / indicator / table")
    kind = kinds[0]
    spec.only(kind, *["value"] * (kind == "indicator"))
    if kind == "builtin":
        return getattr(algebra, _choice(raw[kind], ("unit", "one")))(enum, exact)
    if kind == "const":
        return algebra.constant(enum, parse_scalar(raw[kind], exact), exact)
    if kind == "indicator":
        return algebra.indicator(enum, _element(raw[kind], enum),
                                 parse_scalar(raw.get("value", 1), exact), exact)
    table = spec.sub(kind, list)
    return algebra.from_pairs(enum, [table.read(row, _table_row, enum, exact)
                                     for row in range(len(table.raw))], exact)


def _table_row(raw, enum, exact):
    if not isinstance(raw, list) or len(raw) != 2:
        raise ValueError("table rows are [element, value] pairs")
    return _element(raw[0], enum), parse_scalar(raw[1], exact)


class Problem:
    """A validated problem spec, ready to run."""

    def __init__(self, raw):
        spec = _Spec(raw, "").only("semigroup", "arithmetic", "equation", "task")
        sg = spec.sub("semigroup")
        field, backend = BACKENDS[sg.read("kind", _choice, BACKENDS)]
        self.backend = sg.only("kind", field, *TRUNCATIONS).read(field, backend)
        truncation = _truncation(sg, self.backend)
        try:
            self.enum = enumerate_semigroup(self.backend, **truncation)
        except DirconvError as exc:
            raise SpecError(str(exc), "semigroup")
        self.exact = spec.sub("arithmetic", default={}).only("mode").read(
            "mode", _choice, ("exact", "double"), default="exact") == "exact"
        coeffs = spec.sub("equation").only("coefficients").sub("coefficients", list)
        self.coefficients = [coeffs.read(i, _function, coeffs.at(i), self.enum, self.exact)
                             for i in coeffs.entries()]
        self.task = spec.sub("task")
        self.task_type = self.task.read("type", _choice, TASKS)
        self.task.only("type", *TASKS[self.task_type])
        self._check_counts()

    def _check_counts(self):
        n = len(self.coefficients)
        if self.task_type in ("solve", "solve-all", "certify", "verify"):
            if n < 2:
                raise SpecError(
                    "equation tasks need coefficients a_0, ..., a_d with d >= 1",
                    "equation.coefficients")
        elif n != 1:
            raise SpecError(f"task {self.task_type!r} takes exactly one function",
                            "equation.coefficients")

    def root(self):
        if "root" not in self.task.raw:
            raise SpecError(f"task {self.task_type!r} needs a root", "task.root")
        return self.task.read("root", parse_scalar, self.exact)

    def points(self):
        points = self.task.sub("points", list, default=[])
        return [points.read(i, _point, self.backend.k) for i in points.entries()]

    def rho(self):
        return self.task.read("rho", parse_rational, default=0)

    def norm_bounds(self):
        return self.task.read("norm_bounds", _norm_bounds, default=None)


# ---------------------------------------------------------------------------
# document assembly


def _element_row(enum, i, value):
    e = enum[i]
    ident = [c if type(c) is int else format_rational(c) for c in e.ident]
    return {"id": ident, "coords": ident, "size": enum.backend.size(e.key),
            "value": format_scalar(value)}


def _function_table(g: TruncatedFunction):
    return [_element_row(g.enum, i, v) for i, v in enumerate(g.values)]


def _root_report_doc(report: solver.RootReport):
    return {"anchor_coefficients": [format_scalar(c) for c in report.f_coeffs],
            "degree": report.degree,
            "roots": [{"value": format_scalar(r.value), "multiplicity": r.multiplicity,
                       "simple": r.simple, "exact": r.exact} for r in report.roots]}


def _certificate_doc(cert: certificate.NormCertificate, backend):
    return {"rho": format_rational(cert.rho), "m1": backend.size(cert.m1),
            "z0": format_scalar(cert.z0), "t_star": cert.t_star, "C": cert.C,
            "r": cert.r, "scope": cert.scope}


def _residual(T, g):
    """Whether T g is exactly 0, and its max_abs, refused when not finite
    at the first element whose |(T g)(x)| leaves the double range."""
    res = solver.residual(T, g)
    if not math.isfinite(top := res.max_abs()):
        x = next(x for x, v in enumerate(res.values) if not math.isfinite(abs_bounds(v)[1]))
        raise MathematicalRefusal(
            f"(T g)({', '.join(map(str, g.enum[x].ident))}) = {res.values[x]} lies "
            "outside the double range: the residual overflows")
    return res.is_zero(), top


def _residual_doc(T, g):
    zero, top = _residual(T, g)
    return {"exact_zero": zero, "max_abs": top}


def _series_row(sv):
    """The point and window value of a SeriesValue or PointCheck row."""
    return {"s": [format_scalar(c) for c in sv.s], "value": format_scalar(sv.value)}


def _header(problem: Problem) -> dict:
    """The fields that result and refusal documents share."""
    return {
        "backend": {"kind": problem.backend.kind, "k": problem.backend.k},
        "mode": "exact" if problem.exact else "double",
        "task": problem.task_type,
    }


def run_problem(problem: Problem) -> dict:
    """Execute the task; returns the result document (without timing)."""
    doc = {**_header(problem), "window_size": len(problem.enum)}
    ttype = problem.task_type
    if ttype == "invert":
        g = algebra.invert(problem.coefficients[0])
        doc["solution"] = _function_table(g)
        return doc

    if ttype == "eval":
        g = problem.coefficients[0]
        doc["series"] = [_series_row(series.evaluate(g, p)) for p in problem.points()]
        return doc

    T = solver.ConvPolynomial(tuple(problem.coefficients))
    if T.shift:   # the anchor coefficients and residuals below are those of 2^-shift T
        doc["equation_scale"] = f"2^-{T.shift}"
    if ttype == "solve":
        g = solver.solve(T, problem.root())
        doc["root_report"] = _root_report_doc(solver.initial_polynomial(T))
        doc["solution"] = _function_table(g)
        doc["residual"] = _residual_doc(T, g)
        return doc

    if ttype == "solve-all":
        result = solver.solve_all(T)
        doc["root_report"] = _root_report_doc(result.report)
        doc["solutions"] = [{
            "root": format_scalar(root.value),
            "table": _function_table(g),
        } for root, g in result.solutions]
        doc["skipped_roots"] = [{
            "root": format_scalar(root.value), "reason": reason,
        } for root, reason in result.skipped]
        residuals = [_residual(T, g) for _, g in result.solutions]
        doc["residual"] = {
            "all_exact_zero": all(zero for zero, _ in residuals),
            "max_abs": max([0.0, *(top for _, top in residuals)]),
        }
        return doc

    # certify and verify: read every task field, then certify, solve, validate
    z0, rho, norm_bounds = problem.root(), problem.rho(), problem.norm_bounds()
    points = problem.points() if ttype == "verify" else None
    cert = certificate.certify(T, z0, rho, norm_bounds)
    g = solver.solve(T, z0)
    if ttype == "certify":
        report = certificate.validate(cert, g)
        doc["root_report"] = _root_report_doc(solver.initial_polynomial(T))
        doc["solution"] = _function_table(g)
    else:
        vr = series.verify_scalar_equation(T, g, points, cert=cert)
        report = vr.validation
        doc["scalar_equation"] = {
            "all_ok": vr.all_ok,
            "worst_ratio": vr.worst_ratio,
            "points": [{
                "s": [format_scalar(c) for c in pc.s],
                "residual": pc.residual,
                "allowance": pc.allowance,
                "ok": pc.ok,
            } for pc in vr.points],
        }
        doc["series"] = [{**_series_row(pc), "tail_bound": pc.tail} for pc in vr.points]
    doc["certificate"] = _certificate_doc(cert, problem.backend)
    doc["validation"] = {"ok": report.ok, "sum_margin": report.sum_margin,
                         "recursive_margin": report.recursive_margin}
    doc["residual"] = _residual_doc(T, g)
    return doc


# ---------------------------------------------------------------------------
# rendering


def render(doc: dict, fmt: str = "table") -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2)
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"dirconv  task={doc.get('task')}  backend={doc['backend']['kind']}"
             f"(k={doc['backend']['k']})  mode={doc.get('mode')}"]
    if "spec_sha256" in doc:
        lines.append(f"spec sha256: {doc['spec_sha256']}")
    if "diagnostic" in doc:
        lines.append(f"REFUSED: {doc['diagnostic']}")
    if "root_report" in doc:
        lines.append("anchor roots:")
        for r in doc["root_report"]["roots"]:
            lines.append(f"  value={_fmt_val(r['value']):<24} "
                         f"multiplicity={r['multiplicity']} simple={r['simple']}")
    if "solution" in doc:
        lines.extend(_render_table(doc["solution"], "solution"))
    if "solutions" in doc:
        for sol in doc["solutions"]:
            lines.extend(_render_table(sol["table"],
                                       f"solution at root {_fmt_val(sol['root'])}"))
    if "certificate" in doc:
        c = doc["certificate"]
        lines.append("certificate:")
        lines.append(f"  rho={c['rho']}  m1={c['m1']:.12g}  z0={_fmt_val(c['z0'])}")
        lines.append(f"  t_star={c['t_star']:.12g}  C={c['C']:.12g}  "
                     f"r={c['r']:.12g}  scope={c['scope']}")
    if "validation" in doc:
        v = doc["validation"]
        lines.append(f"validation: ok={v['ok']}  sum_margin={v['sum_margin']:.6g}"
                     f"  recursive_margin={v['recursive_margin']:.6g}")
    if "residual" in doc:
        r = doc["residual"]
        zero = r.get("exact_zero", r.get("all_exact_zero"))
        lines.append(f"residual: exact_zero={zero}  max_abs={r['max_abs']:.6g}")
    if "scalar_equation" in doc:
        se = doc["scalar_equation"]
        lines.append(f"scalar equation: all_ok={se['all_ok']}  "
                     f"worst_ratio={se['worst_ratio']:.6g}")
    if "series" in doc:
        lines.append("series values:")
        for entry in doc["series"]:
            s = ", ".join(_fmt_val(c) for c in entry["s"])
            tail = (f"  tail<={entry['tail_bound']:.6g}"
                    if "tail_bound" in entry else "")
            lines.append(f"  s=({s}): value={_fmt_val(entry['value'])}{tail}")
    if "timing" in doc:
        lines.append(f"timing: {doc['timing']['seconds']:.3f} s")
    return "\n".join(lines) + "\n"


def _fmt_val(v):
    if isinstance(v, dict):
        return f"{v.get('re', 0)}+{v.get('im', 0)}i"
    return str(v)


def _render_table(rows, title):
    out = [f"{title}:", f"  {'id':<18} {'coords':<18} {'size':<12} value"]
    for row in rows:
        out.append(f"  {str(row['id']):<18} {str(row['coords']):<18} "
                   f"{row['size']:<12.6g} {_fmt_val(row['value'])}")
    return out


# ---------------------------------------------------------------------------
# entry points


def run(spec_path: str):
    """Load, validate and execute a spec file; returns (document, exit_code)."""
    try:
        with open(spec_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        return {"error": str(exc)}, 1
    except json.JSONDecodeError as exc:
        return {"error": f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}"}, 1
    spec_hash = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    try:
        problem = Problem(raw)
        started = time.perf_counter()
        doc = run_problem(problem)
        elapsed = time.perf_counter() - started
        code = 0
    except SpecError as exc:
        return {"error": str(exc), "field": exc.path, "spec_sha256": spec_hash}, 1
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "spec_sha256": spec_hash}, 1
    except MathematicalRefusal as exc:
        # Problem() turns library errors into SpecError, so a refusal
        # always comes from a parsed problem
        doc = {**_header(problem), "diagnostic": _refusal_text(exc)}
        elapsed = 0.0
        code = 2
    except DirconvError as exc:
        return {"error": str(exc), "spec_sha256": spec_hash}, 1
    doc["spec_sha256"] = spec_hash
    doc["timing"] = {"seconds": elapsed}
    return doc, code


def _refusal_text(exc) -> str:
    text = f"{type(exc).__name__}: {exc}"
    for ob in getattr(exc, "obstructions", ()):
        q = ", ".join(map(format_rational, ob.q.ident))
        q = f"({q},)" if len(ob.q.ident) == 1 else f"({q})"
        text += (f"; at q = {q} the equation forces the value "
                 f"{format_scalar(ob.value)} != 0 whatever g(q) is")
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirconv",
        description="solve, certify and evaluate convolution equations on "
                    "discrete semigroup windows")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON problem spec")
    runp.add_argument("spec", help="path to the problem spec (JSON)")
    runp.add_argument("--format", choices=("table", "json"), default="table")
    runp.add_argument("--out", default=None, help="write output to a file")
    args = parser.parse_args(argv)

    doc, code = run(args.spec)
    if "error" in doc:
        sys.stderr.write(f"error: {doc['error']}\n")
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = render(doc, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
