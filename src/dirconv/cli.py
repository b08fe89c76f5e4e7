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
import sys
import time

from . import algebra, certificate, series, solver
from .algebra import TruncatedFunction
from .errors import DirconvError, MathematicalRefusal, SpecError
from .scalars import (format_rational, format_scalar, parse_rational,
                      parse_scalar)
from .semigroup import (Lattice, OrdinaryDirichlet, RationalGenerators,
                        enumerate_semigroup)

TASKS = ("solve", "solve-all", "invert", "certify", "eval", "verify")


# ---------------------------------------------------------------------------
# spec parsing


def _need(obj, key, path):
    if key not in obj:
        raise SpecError(f"missing required field '{key}'", path)
    return obj[key]


def _parse_backend(obj, path):
    kind = _need(obj, "kind", path)
    if kind in ("lattice", "ordinary-dirichlet"):
        backend = Lattice if kind == "lattice" else OrdinaryDirichlet
        return _parsed(f"{path}.k", lambda: backend(int(_need(obj, "k", path))))
    if kind == "rational-generators":
        gens = _need(obj, "generators", path)
        return _parsed(f"{path}.generators",
                       lambda: RationalGenerators(tuple(tuple(g) for g in gens)))
    raise SpecError(f"unknown semigroup kind {kind!r}", f"{path}.kind")


def _parse_truncation(obj, backend, path):
    has_size, has_prod, has_max = (
        key in obj for key in ("size_bound", "max_product", "max_elements"))
    if sum((has_size, has_prod, has_max)) != 1:
        raise SpecError(
            "give exactly one of size_bound / max_product / max_elements", path)
    if has_max:
        return {"max_elements": _parsed(f"{path}.max_elements", int, obj["max_elements"])}
    if backend.kind == "ordinary-dirichlet":
        if not has_prod:
            raise SpecError(
                "ordinary-dirichlet windows are truncated by max_product "
                "(the size bound is then log(max_product))", path)
        return {"size_bound": _parsed(f"{path}.max_product", int, obj["max_product"])}
    if has_prod:
        raise SpecError("max_product only applies to ordinary-dirichlet", path)
    return {"size_bound": _parsed(f"{path}.size_bound", parse_rational,
                                  obj["size_bound"])}


def _parse_function(obj, enum, exact, path):
    if not isinstance(obj, dict):
        raise SpecError("a function spec must be an object", path)
    keys = set(obj) & {"builtin", "const", "indicator", "table"}
    if len(keys) != 1:
        raise SpecError(
            "need exactly one of builtin / const / indicator / table", path)
    kind = keys.pop()
    try:
        if kind == "builtin":
            name = obj["builtin"]
            if name == "unit":
                return algebra.unit(enum, exact)
            if name == "one":
                return algebra.one(enum, exact)
            raise SpecError(f"unknown builtin {name!r}", path)
        if kind == "const":
            return algebra.constant(enum, parse_scalar(obj["const"], exact), exact)
        if kind == "indicator":
            ident = _ident(obj["indicator"], enum, path)
            value = parse_scalar(obj.get("value", 1), exact)
            return algebra.indicator(enum, ident, value, exact)
        pairs = []
        for row, entry in enumerate(obj["table"]):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise SpecError("table rows are [element, value] pairs",
                                f"{path}.table[{row}]")
            ident = _ident(entry[0], enum, f"{path}.table[{row}]")
            pairs.append((ident, parse_scalar(entry[1], exact)))
        return algebra.from_pairs(enum, pairs, exact)
    except SpecError:
        raise
    except (DirconvError, ValueError, TypeError, ArithmeticError) as exc:
        raise SpecError(str(exc), path)


def _ident(raw, enum, path):
    if not isinstance(raw, (list, tuple)):
        raise SpecError("an element is a list of per-coordinate entries", path)
    ident = _parsed(path, enum.backend.validate_ident, raw)
    if ident not in enum:
        raise SpecError(f"element {raw!r} lies outside the enumerated window",
                        path)
    return ident


def _parse_point(raw, k, path):
    many = isinstance(raw, (list, tuple))
    if many and len(raw) != k:
        raise SpecError(f"point needs {k} components", path)
    pt = _parsed(path, lambda: [parse_scalar(v, False)
                                for v in (raw if many else [raw])])
    return tuple(pt) if many else pt[0]


def _parsed(path, parse, *args):
    """parse(*args), with a malformed value refused at ``path``."""
    try:
        return parse(*args)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise SpecError(str(exc), path)


class Problem:
    """A validated problem spec, ready to run."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise SpecError("the spec must be a JSON object")
        sg = _need(raw, "semigroup", "")
        self.backend = _parse_backend(sg, "semigroup")
        trunc = _parse_truncation(sg, self.backend, "semigroup")
        try:
            self.enum = enumerate_semigroup(self.backend, **trunc)
        except DirconvError as exc:
            raise SpecError(str(exc), "semigroup")
        arith = raw.get("arithmetic", {})
        if not isinstance(arith, dict):
            raise SpecError("arithmetic must be an object", "arithmetic")
        for field in arith:
            if field != "mode":
                raise SpecError(f"unknown field {field!r}", f"arithmetic.{field}")
        mode = arith.get("mode", "exact")
        if mode not in ("exact", "double"):
            raise SpecError(f"unknown mode {mode!r}", "arithmetic.mode")
        self.exact = mode == "exact"
        eq = _need(raw, "equation", "")
        coeff_specs = _need(eq, "coefficients", "equation")
        if not isinstance(coeff_specs, list) or not coeff_specs:
            raise SpecError("equation.coefficients must be a non-empty list",
                            "equation.coefficients")
        self.coefficients = [
            _parse_function(c, self.enum, self.exact,
                            f"equation.coefficients[{i}]")
            for i, c in enumerate(coeff_specs)]
        task = _need(raw, "task", "")
        self.task_type = _need(task, "type", "task")
        if self.task_type not in TASKS:
            raise SpecError(f"unknown task {self.task_type!r}", "task.type")
        self.task = task
        self._check_counts()
        self.raw = raw

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
        if "root" not in self.task:
            raise SpecError(f"task {self.task_type!r} needs a root", "task.root")
        return _parsed("task.root", parse_scalar, self.task["root"], self.exact)

    def points(self):
        pts = self.task.get("points")
        if not isinstance(pts, list) or not pts:
            raise SpecError("task needs a non-empty list of points", "task.points")
        return [_parse_point(p, self.backend.k, f"task.points[{i}]")
                for i, p in enumerate(pts)]

    def rho(self):
        return _parsed("task.rho", parse_rational, self.task.get("rho", 0))

    def norm_bounds(self):
        nb = self.task.get("norm_bounds")
        if nb is not None and not isinstance(nb, list):
            raise SpecError("norm_bounds must be a list of numbers", "task.norm_bounds")
        return None if nb is None else _parsed("task.norm_bounds",
                                               lambda: [float(v) for v in nb])


# ---------------------------------------------------------------------------
# document assembly


def _element_row(enum, i, value):
    e = enum[i]
    ident = enum.backend.ident_json(e.ident)
    return {"id": ident, "coords": ident, "size": enum.backend.size(e.key),
            "value": format_scalar(value)}


def _function_table(g: TruncatedFunction):
    return [_element_row(g.enum, i, v) for i, v in enumerate(g.values)]


def _root_report_doc(report: solver.RootReport):
    return {
        "anchor_coefficients": [format_scalar(c) for c in report.f_coeffs],
        "degree": report.degree,
        "roots": [{
            "value": format_scalar(r.value),
            "multiplicity": r.multiplicity,
            "simple": r.simple,
            "exact": r.exact,
        } for r in report.roots],
    }


def _certificate_doc(cert: certificate.NormCertificate, backend):
    return {
        "rho": format_rational(cert.rho),
        "m1": backend.size(cert.m1),
        "z0": format_scalar(cert.z0),
        "t_star": cert.t_star,
        "C": cert.C,
        "r": cert.r,
        "scope": cert.scope,
    }


def _residual_doc(T, g):
    res = solver.residual(T, g)
    return {"exact_zero": res.is_zero(), "max_abs": res.max_abs()}


def _series_doc(values):
    """Entries for SeriesValue or PointCheck rows; ``tail`` may be None."""
    out = []
    for sv in values:
        entry = {
            "s": [format_scalar(c) for c in sv.s],
            "value": format_scalar(sv.value),
        }
        if sv.tail is not None:
            entry["tail_bound"] = sv.tail
        out.append(entry)
    return out


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
        values = [series.evaluate(g, p) for p in problem.points()]
        doc["series"] = _series_doc(values)
        return doc

    T = solver.ConvPolynomial(tuple(problem.coefficients))
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
        residuals = [solver.residual(T, g) for _, g in result.solutions]
        doc["residual"] = {
            "all_exact_zero": all(res.is_zero() for res in residuals),
            "max_abs": max((res.max_abs() for res in residuals), default=0.0),
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
        doc["series"] = _series_doc(vr.points)
    doc["certificate"] = _certificate_doc(cert, problem.backend)
    doc["validation"] = {
        "ok": report.ok,
        "sum_margin": report.sum_margin,
        "recursive_margin": report.recursive_margin,
    }
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


def run(spec_path: str, threads: int = 1):
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
    if threads < 1:
        return {"error": "--threads must be >= 1"}, 1
    try:
        problem = Problem(raw)
        started = time.perf_counter()
        doc = run_problem(problem)
        elapsed = time.perf_counter() - started
        code = 0
    except SpecError as exc:
        return {"error": str(exc), "field": exc.path, "spec_sha256": spec_hash}, 1
    except (ValueError, TypeError, KeyError) as exc:
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
    runp.add_argument("--threads", type=int, default=1,
                      help="worker threads (results are identical for any value)")
    args = parser.parse_args(argv)

    doc, code = run(args.spec, threads=args.threads)
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
