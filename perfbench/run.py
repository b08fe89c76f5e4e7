#!/usr/bin/env python3
"""dirconv benchmark: one workload, one fresh process, checked outputs.

    python3 perfbench/run.py --workload dirichlet-exact --seed 1 --trace 0

A round hands every generated input of the workload to dirconv, the way
its users do: ``cli.run`` on a spec file followed by ``cli.render``, or,
for square systems (no CLI task), the library calls ``solve_system``,
``system_residual`` and ``evaluate``.  Rounds repeat until ``--seconds``
is spent (at least three rounds); each output is checked after its
timed section, against exact solves on a small sub-window and a
double-precision reference over the full window that a separate process
computes once per run.

``--trace 0`` reports the end-to-end metrics: the median round time
``time_to_result_s``, the median of several fresh-process set-ups
``setup_s`` and this process's peak RSS ``peak_rss_mb``.  Both times
are scaled to a fixed host speed by probes of the host taken during
them (``hostspeed.py``); the wall times are kept in the record.
``--trace 1`` alternates traced and untraced rounds and reports the
per-module metrics of ``BENCHMARK.json``.  The last line of standard output is the
JSON result; the full record, spans included, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402  (benchmark modules next to this file)
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

MIN_ROUNDS = 3
MAX_MEASURE_S = 100.0     # keeps a run well inside its 180 s limit
SETUP_PROBES = 5
SETUP_HOST_PROBES = 3     # host probes just before and just after each set-up


def import_dirconv():
    """dirconv from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dirconv
        import dirconv.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dirconv from {src}: {exc}")
    if Path(dirconv.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: dirconv imported from {dirconv.__file__}, "
                         f"not from {src}")
    return dirconv


# ---------------------------------------------------------------------------
# fresh processes: set-up time and the full-window reference


def probe(workload: str, seed: int):
    import_dirconv()
    ops = inputs.generate(workload, seed)
    print(json.dumps({"t": time.time(), "sha256": [op["sha256"] for op in ops]}))


def reference(workload: str, seed: int):
    """Double-precision solves over each operation's full window, as JSON.

    One entry per operation: ``null`` for ``invert`` (checked against
    the Moebius sieve), else the window's digest and size and one
    solution per seeded root, each a list of values per unknown in the
    order of the sorted element keys.
    """
    out = []
    for op in inputs.generate(workload, seed):
        if op["name"] == "invert":
            out.append(None)
            continue
        window, sols = checks.solutions(op, num=float)
        order = sorted(range(len(window)), key=window.keys.__getitem__)
        out.append({"digest": checks.digest(window.keys[i] for i in order),
                    "size": len(window),
                    "solutions": [[[g[i] for i in order] for g in sol] for sol in sols]})
    print(json.dumps(out))


def _child(mode: str, workload: str, seed: int):
    """Runs this file with ``mode`` in a fresh process; its last output line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), mode,
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, want_hashes) -> tuple:
    """Seconds from starting a fresh process until its inputs exist.

    Returns the wall seconds and the seconds at the reference host
    speed, from host probes taken just before and just after.
    """
    host = [hostspeed.probe() for _ in range(SETUP_HOST_PROBES)]
    t0 = time.time()
    reply = _child("--probe", workload, seed)
    wall = reply["t"] - t0
    host += [hostspeed.probe() for _ in range(SETUP_HOST_PROBES)]
    if reply["sha256"] != want_hashes:
        raise SystemExit("perfbench: a fresh process generated different input bytes "
                         "for the same seed")
    return wall, hostspeed.adjust(wall, host)


def load_reference(workload: str, seed: int) -> list:
    """The full-window reference, computed in its own process.

    A separate process, and values kept by position in flat arrays
    rather than by element key, keep the reference out of this
    process's peak RSS, which is a metric.
    """
    refs = _child("--reference", workload, seed)
    for ref in refs:
        if ref is not None:
            ref["solutions"] = [[array("d", g) for g in sol] for sol in ref["solutions"]]
    return refs


# ---------------------------------------------------------------------------
# one operation


class Capture:
    """Keeps what dirconv computed in the current operation for the checks.

    Wraps ``cli.run_problem`` (to see the parsed problem: window and
    coefficient tables) and ``solver.solve`` (to see the solved window
    function of a ``verify`` task, which its document does not list).
    """

    def __init__(self, dc):
        self.problem = None
        self.solved = []
        cli, solver = dc.cli, dc.solver
        run_problem, solve = cli.run_problem, solver.solve

        def capture_problem(problem):
            self.problem = problem
            return run_problem(problem)

        def capture_solve(T, z0):
            g = solve(T, z0)
            self.solved.append(g)
            return g

        cli.run_problem = capture_problem
        solver.solve = capture_solve

    def reset(self):
        self.problem = None
        self.solved = []


class Workload:
    def __init__(self, dc, ops, paths, refs):
        self.dc = dc
        self.ops = ops
        self.paths = paths
        self.refs = refs
        self.capture = Capture(dc)

    def run_op(self, i):
        """Run operation i; returns (seconds, host sampler, outcome).

        The seconds are the timed part only, without the ``spent`` time
        that the sampler's host probes took during it.
        """
        with hostspeed.Sampler() as host:
            t0 = time.perf_counter()
            outcome = self._op(self.ops[i], self.paths[i])
            seconds = time.perf_counter() - t0
        return seconds - host.spent, host, outcome

    def _op(self, op, path):
        cli = self.dc.cli
        if op["kind"] == "cli":
            doc, code = cli.run(str(path))
            if "error" not in doc:
                cli.render(doc)
            return {"doc": doc, "code": code}
        try:
            return self._system(op["spec"])
        except self.dc.DirconvError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def _system(self, spec):
        dc = self.dc
        algebra, scalars, semigroup = dc.algebra, dc.scalars, dc.semigroup
        solver, series = dc.solver, dc.series
        sg = spec["semigroup"]
        enum = semigroup.enumerate_semigroup(
            dc.Lattice(sg["k"]), size_bound=scalars.parse_rational(sg["size_bound"]))

        def coeff(c):
            if "builtin" in c:   # unit or one
                return getattr(algebra, c["builtin"])(enum, False)
            return algebra.constant(enum, scalars.parse_scalar(c["const"], False), False)

        equations = [[solver.Monomial(coeff(t["coeff"]), tuple(t["exponents"]))
                      for t in eq] for eq in spec["equations"]]
        z0 = [scalars.parse_scalar(z, False) for z in spec["base_point"]]
        S = solver.PolySystem(spec["unknowns"], equations, z0)
        gs = solver.solve_system(S)
        res = solver.system_residual(S, gs)
        points = [tuple(complex(p["re"], p["im"]) for p in pt) for pt in spec["points"]]
        values = [[series.evaluate(g, p).value for p in points] for g in gs]
        return {"enum": enum, "system": S, "solution": gs, "residual": res,
                "points": points, "values": values}

    # -- checks and counters, outside the timed section ---------------------

    def check_op(self, i, outcome) -> list:
        op, ref = self.ops[i], self.refs[i]
        if "error" in outcome:
            return [f"{op['name']}: {outcome['error']}"]
        if op["kind"] == "system":
            return _check_system(op, outcome, ref)
        doc, code = outcome["doc"], outcome["code"]
        if code != 0:
            why = doc.get("error") or doc.get("diagnostic")
            return [f"{op['name']}: exit code {code}: {why}"]
        if op["name"] == "invert":
            return _check_mobius(doc, op["expect"]["mobius_up_to"])
        if op["name"] == "verify":
            return _check_verify(op, doc, self.capture, ref)
        return _check_solve_all(op, doc, ref)

    def counters(self, i, outcome) -> dict:
        op = self.ops[i]
        if op["kind"] == "system":
            enum = outcome["enum"]
            coeffs = [t.coeff for eq in outcome["system"].equations for t in eq]
        else:
            problem = self.capture.problem
            enum = problem.enum
            # the sweep multiplies a_j(u) for j >= 1; inversion multiplies g(u)
            coeffs = problem.coefficients[1:] or problem.coefficients
        first = Counter(u for pairs in enum.decomp for u, _ in pairs)
        pairs = sum(first.values())
        zeros = sum(first[u] for c in coeffs for u, v in enumerate(c.values) if not v)
        roots = (outcome["doc"].get("root_report", {}).get("roots", [])
                 if op["kind"] == "cli" else [])
        bits = 0
        for g in self.capture.solved:
            if g.exact:
                for v in g.values:
                    for part in (v.re, v.im) if hasattr(v, "re") else (v,):
                        bits = max(bits, Fraction(part).denominator.bit_length())
        return {
            "solver.max_denominator_bits": bits,
            "semigroup.elements": len(enum),
            "semigroup.pairs": pairs,
            "semigroup.levels": len(enum.levels),
            "roots.simple_roots": sum(1 for r in roots if r["simple"]),
            "zero_products": zeros,
            "products": pairs * len(coeffs),
        }


# ---------------------------------------------------------------------------
# checks per operation kind


def _doc_values(rows) -> dict:
    return {checks.key(r["id"]): checks.scalar_from_doc(r["value"]) for r in rows}


def _window_values(g) -> dict:
    return {checks.key(e.ident): v for e, v in zip(g.enum.elements, g.values)}


def _check_window(ref, k, unknown, got, what) -> list:
    """dirconv's values on its whole window against reference solution k."""
    keys = sorted(got)   # no key function: sorting allocates no per-element keys
    if len(keys) != ref["size"] or checks.digest(keys) != ref["digest"]:
        return [f"{what}: the {len(keys)} output elements are not the "
                f"{ref['size']} elements of the window"]
    return checks.compare_values(keys, ref["solutions"][k][unknown], got,
                                 f"{what} (full window)", False)


def _check_residual(what, max_abs, values, degree) -> list:
    """Double-mode round-off in a degree-d residual is of the size of max |g|^d."""
    scale = max(1.0, max(abs(complex(v)) for v in values)) ** degree
    if not max_abs <= 1e-9 * scale:
        return [f"{what}: residual max |F| = {max_abs} exceeds 1e-9 * {scale:.6g}"]
    return []


def _check_mobius(doc, n) -> list:
    mu = checks.mobius(n)
    rows = doc["solution"]
    if len(rows) != n:
        return [f"invert: {len(rows)} rows, expected {n}"]
    bad = [r["id"] for r in rows if Fraction(r["value"]) != mu[r["id"][0]]]
    return [f"invert: Moebius values differ at {bad[:5]}"] if bad else []


def _check_verify(op, doc, capture, ref) -> list:
    exact = doc["mode"] == "exact"
    fails = []
    if not doc["validation"]["ok"]:
        fails.append("verify: validation not ok")
    if not doc["scalar_equation"]["all_ok"]:
        fails.append("verify: scalar equation not ok at every point")
    if not capture.solved:
        return fails + ["verify: no solved function seen"]
    g = capture.solved[-1]
    if exact and not doc["residual"]["exact_zero"]:
        fails.append("verify: exact residual is not zero")
    if not exact:
        degree = len(op["spec"]["equation"]["coefficients"]) - 1
        fails += _check_residual("verify", doc["residual"]["max_abs"], g.values, degree)
    got = _window_values(g)
    window, [want] = checks.solutions(op, op["expect"]["sub_window"])
    fails += checks.compare_values(window.keys, want[0], got, "verify", exact)
    return fails + _check_window(ref, 0, 0, got, "verify")


def _check_solve_all(op, doc, ref) -> list:
    want_roots = [Fraction(r) for r in op["expect"]["roots"]]
    sols = doc["solutions"]
    fails = []
    if doc["skipped_roots"] or len(sols) != len(want_roots):
        fails.append(f"solve-all: {len(sols)} solutions, {len(doc['skipped_roots'])} "
                     f"skipped; expected {len(want_roots)} solutions")
    got_roots = sorted((checks.scalar_from_doc(s["root"]) for s in sols),
                       key=lambda z: z.real)
    for got, want in zip(got_roots, want_roots):
        if not abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want))):
            fails.append(f"solve-all: root {got} differs from seeded {want}")
    window, wants = checks.solutions(op, op["expect"]["sub_window"])
    values = []
    for s in sols:
        root = checks.scalar_from_doc(s["root"])
        k = min(range(len(want_roots)), key=lambda i: abs(root - float(want_roots[i])))
        got = _doc_values(s["table"])
        values += got.values()
        what = f"solve-all at {want_roots[k]}"
        fails += checks.compare_values(window.keys, wants[k][0], got, what, False)
        fails += _check_window(ref, k, 0, got, what)
    degree = len(op["spec"]["equation"]["coefficients"]) - 1
    return fails + _check_residual("solve-all", doc["residual"]["max_abs"], values or [0],
                                   degree)


def _check_system(op, out, ref) -> list:
    window, [want] = checks.solutions(op, op["expect"]["sub_window"])
    fails = []
    # the equations are quadratic with coefficients of size at most 2, so
    # round-off in the residual scales with the largest |g|^2 (measured
    # below 1e-17 of it)
    worst = max(r.max_abs() for r in out["residual"])
    fails += _check_residual("system_residual", worst,
                             [v for g in out["solution"] for v in g.values], 2)
    for l, g in enumerate(out["solution"]):
        got = _window_values(g)
        what = f"solve_system g{l + 1}"
        fails += checks.compare_values(window.keys, want[l], got, what, False)
        fails += _check_window(ref, 0, l, got, what)
        idents = [e.ident for e in g.enum.elements]
        for p, value in zip(out["points"], out["values"][l]):
            total, scale = checks.series_sum(idents, g.values, p)
            if not abs(value - total) <= 1e-9 * max(1.0, scale):
                fails.append(f"evaluate g{l + 1} at {p}: {value} != {total}")
    return fails


# ---------------------------------------------------------------------------
# rounds and metrics


def high_percentile(samples) -> str:
    """The highest percentile with at least ten samples beyond it, or "-"."""
    xs = sorted(samples)
    n = len(xs)
    return f"p{100 * (n - 10) // n}={xs[n - 11]:.4f}" if n >= 11 else "-"


def percentile_line(samples) -> str:
    return (f"n={len(samples)} median={statistics.median(samples):.4f} "
            f"high percentile {high_percentile(samples)}")


def per_layer(window_pairs, summary, round_s, spans_in_round) -> dict:
    def incl(name):
        return summary.get(name, {}).get("inclusive_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    sweep_self = self_s("solver.solve") + self_s("solver.solve_system")
    sweep_pairs = window_pairs * (calls("solver.solve") + calls("solver.solve_system"))
    rss = max((s.get("rss_growth_kb", 0) for s in spans_in_round), default=0)
    return {
        "semigroup.enumerate_s": incl("semigroup.enumerate"),
        "semigroup.decomp_s": incl("semigroup.decomp"),
        "semigroup.decomp_rss_mb": rss / 1024,
        "algebra.convolve_s": incl("algebra.convolve"),
        "algebra.convolve_calls": calls("algebra.convolve"),
        "algebra.invert_s": incl("algebra.invert"),
        "solver.solve_s": incl("solver.solve"),
        "solver.solve_system_s": incl("solver.solve_system"),
        "solver.residual_s": incl("solver.residual") + incl("solver.system_residual"),
        "solver.sweeps": calls("solver.solve") + calls("solver.solve_system"),
        "solver.sweep_pairs_per_s": sweep_pairs / sweep_self if sweep_self else 0.0,
        "roots.find_s": incl("roots.find"),
        "certificate.certify_s": incl("certificate.certify"),
        "certificate.validate_s": incl("certificate.validate"),
        "series.verify_s": incl("series.verify"),
        "series.evaluate_s": incl("series.evaluate"),
        "series.evaluate_calls": calls("series.evaluate"),
        "series.tail_bound_s": incl("series.tail_bound"),
        "cli.parse_s": self_s("cli.parse"),
        "cli.document_s": self_s("cli.run_problem"),
        "cli.render_s": incl("cli.render"),
        "trace.uncovered_s": round_s - spans.top_level_s(spans_in_round),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.reference:
        reference(args.workload, args.seed)
        return 0

    load_before = os.getloadavg()
    dc = import_dirconv()
    ops = inputs.generate(args.workload, args.seed)
    expected = json.loads((HERE / "workloads.json").read_text())[
        "workloads"][args.workload]["counters"]
    (OUT / "inputs").mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        p = OUT / "inputs" / f"{args.workload}-{args.seed}-{i}-{op['name']}.json"
        p.write_bytes(op["bytes"])
        paths.append(p)
    hashes = [op["sha256"] for op in ops]
    setups, failures = [], []    # setups: (wall, adjusted) seconds

    work = Workload(dc, ops, paths, load_reference(args.workload, args.seed))
    tracer = spans.Tracer(dc) if args.trace else None
    rounds = []          # per round: seconds, traced flag, layer metrics
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        # set-up probes are spread over the run, one before each round, so
        # that they sample the host's slow and fast phases like the rounds
        setups.append(measure_setup(args.workload, args.seed, hashes))
        traced = tracer is not None and len(rounds) % 2 == 0
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        round_s, probe_s, host, counts = 0.0, 0.0, [], {}
        for i in range(len(ops)):
            work.capture.reset()
            # start every operation from a collected heap, outside the timing
            gc.collect()
            if traced:
                tracer.run_id = f"{len(rounds)}.{i}"
            seconds, sampler, outcome = work.run_op(i)
            round_s += seconds
            probe_s += sampler.spent
            host += sampler.samples
            attempted += 1
            op_failures = work.check_op(i, outcome)
            if op_failures:
                failed += 1
                failures += op_failures
            else:
                _merge(counts, work.counters(i, outcome))
            # drop this output before the next operation so it does not
            # add to that operation's peak RSS
            work.capture.reset()
            outcome = None
        if traced:
            tracer.uninstall()
        entry = {"seconds": round_s, "adjusted_s": hostspeed.adjust(round_s, host),
                 "host_probe_s": statistics.fmean(host), "host_probes": len(host),
                 "traced": traced, "counts": dict(counts)}
        if traced:
            in_round = tracer.spans[first_span:]
            entry["spans"] = spans.summarize(in_round)
            # spans include the host probes that ran inside them
            entry["layers"] = per_layer(counts.get("semigroup.pairs", 0),
                                        entry["spans"], round_s + probe_s, in_round)
        rounds.append(entry)
        elapsed = time.perf_counter() - started
        last = elapsed / len(rounds)
        if len(rounds) >= MIN_ROUNDS and (elapsed + last > args.seconds
                                          or elapsed > MAX_MEASURE_S):
            break

    while len(setups) < SETUP_PROBES:
        setups.append(measure_setup(args.workload, args.seed, hashes))
    work_counters = _work_counters(rounds[0]["counts"])
    if not failed and any(_work_counters(r["counts"]) != work_counters for r in rounds):
        raise SystemExit("perfbench: work counters changed between rounds; "
                         "no timings reported")
    if not failed and work_counters != expected:
        print(json.dumps({"counters": work_counters, "expected": expected}),
              file=sys.stderr)
        raise SystemExit("perfbench: work counters differ from perfbench/workloads.json; "
                         "this run did different work, so no timings are reported")

    untraced = [r["adjusted_s"] for r in rounds if not r["traced"]]
    untraced_wall = [r["seconds"] for r in rounds if not r["traced"]]
    setup_samples = [adjusted for _, adjusted in setups]
    setup_wall = [wall for wall, _ in setups]
    host_samples = [r["host_probe_s"] for r in rounds]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        layers = {name: statistics.median(r["layers"][name] for r in traced_rounds)
                  for name in traced_rounds[0]["layers"]}
        layers["semigroup.decomp_rss_mb"] = max(
            r["layers"]["semigroup.decomp_rss_mb"] for r in traced_rounds)
        layers["trace.overhead_s"] = (
            statistics.median(r["adjusted_s"] for r in traced_rounds)
            - statistics.median(untraced))
        layers.update({k: work_counters[k] for k in
                       ("semigroup.elements", "semigroup.pairs", "semigroup.levels",
                        "roots.simple_roots", "solver.zero_product_share")})
        layers["solver.max_denominator_bits"] = max(
            r["counts"].get("solver.max_denominator_bits", 0) for r in rounds)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = {"time_to_result_s": statistics.median(untraced),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "inputs": [{"name": op["name"], "sha256": op["sha256"]} for op in ops],
        "counters": work_counters,
        "time_to_result_s_samples": untraced,
        "time_to_result_wall_s_samples": untraced_wall,
        "setup_s_samples": setup_samples,
        "setup_wall_s_samples": setup_wall,
        "host_probe_s_samples": host_samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "rounds": [{k: v for k, v in r.items() if k != "counts"} for r in rounds],
        "metrics": metrics,
    }
    if tracer:
        record["spans"] = tracer.spans
        record["stage_shares"] = _stage_shares([r for r in rounds if r["traced"]])
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"python {env['python']}, nproc {env['nproc']}, "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    for op in record["inputs"]:
        print(f"  input {op['name']}: sha256 {op['sha256']}")
    print(f"  time_to_result_s (s at reference host speed): {percentile_line(untraced)}")
    print(f"  setup_s (s at reference host speed): {percentile_line(setup_samples)}")
    print(f"  wall time_to_result_s: {percentile_line(untraced_wall)}")
    print(f"  wall setup_s: {percentile_line(setup_wall)}")
    print(f"  host probe, mean per round (reference {hostspeed.PROBE_REF_S} s): "
          f"{percentile_line(host_samples)}")
    print(f"  failed_share: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for msg in failures[:10]:
        print(f"  FAILED {msg}")
    if tracer:
        print("  self time per span, median over traced rounds, and its share of the round:")
        traced_s = statistics.median(r["seconds"] for r in rounds if r["traced"])
        for name, share in record["stage_shares"].items():
            print(f"    {name:<24} {share * traced_s:8.4f} s {100 * share:6.1f} %")
    print(f"  record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _stage_shares(traced_rounds) -> dict:
    """Median self time per span over the median traced round time."""
    round_s = statistics.median(r["seconds"] for r in traced_rounds)
    names = sorted({n for r in traced_rounds for n in r["spans"]})
    shares = {n: statistics.median(r["spans"].get(n, {}).get("self_s", 0.0)
                                   for r in traced_rounds) / round_s for n in names}
    shares["uncovered"] = statistics.median(
        r["layers"]["trace.uncovered_s"] for r in traced_rounds) / round_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def _merge(counts, op_counts):
    """Window counters take the largest window of the round; work adds up."""
    for k, v in op_counts.items():
        if k.startswith("semigroup.") or k == "solver.max_denominator_bits":
            counts[k] = max(counts.get(k, 0), v)
        else:
            counts[k] = counts.get(k, 0) + v


def _work_counters(counts) -> dict:
    products = counts.get("products", 0)
    return {
        "semigroup.elements": counts.get("semigroup.elements", 0),
        "semigroup.pairs": counts.get("semigroup.pairs", 0),
        "semigroup.levels": counts.get("semigroup.levels", 0),
        "roots.simple_roots": counts.get("roots.simple_roots", 0),
        "solver.zero_product_share": counts.get("zero_products", 0) / products
        if products else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
