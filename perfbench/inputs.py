"""Seeded inputs for the benchmark workloads.

A seed changes values only: roots, constants, evaluation points and
indicator positions.  Backend, window, degree and the coefficient
support pattern are fixed per workload, so every seed does the same
work and the work counters in ``workloads.json`` repeat exactly.

Each operation carries the document handed to dirconv (``spec``) and,
separately, what the checks need to know (``expect``); dirconv never
sees ``expect``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("dirichlet-exact", "dirichlet2-double", "lattice-system",
             "generators-solve-all")

GENERATORS = (("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))

# The certified rate r stays at 4.32 for every dirichlet-exact parameter
# below and at most 7.01 for dirichlet2-double (at z0 = 1/2, z1 = 3/2,
# the corner of its box with the smallest |f'(z0)|), so points with
# Re(s) >= MIN_RE lie inside the certified half-plane for every seed.
EXACT_RHO, EXACT_MIN_RE = 2, 5
DOUBLE_RHO, DOUBLE_MIN_RE = 2, 9


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rational(rng, lo, hi, den_max=8) -> Fraction:
    """A rational in [lo, hi] with denominator at most ``den_max``."""
    while True:
        den = rng.randint(1, den_max)
        num = rng.randint(int(lo * den) - 1, int(hi * den) + 1)
        x = Fraction(num, den)
        if lo <= x <= hi:
            return x


def _signed(rng, lo, hi, den_max=8) -> Fraction:
    x = _rational(rng, lo, hi, den_max)
    return x if rng.random() < 0.5 else -x


def _real_point(rng, lo, hi) -> float:
    return rng.randint(int(lo * 8), int(hi * 8)) / 8


def _point(rng, lo, hi):
    return {"re": _real_point(rng, lo, hi), "im": rng.randint(-80, 80) / 8}


def _dirichlet_exact(rng):
    window = {"kind": "ordinary-dirichlet", "k": 1, "max_product": 10_000}
    z0 = Fraction(1)
    while z0.denominator == 1:   # integer anchors keep every value integral
        z0 = _signed(rng, Fraction(1), Fraction(2), den_max=6)
    # floor(10^4 / p) = 3 for every p in [2501, 3333], so the indicator
    # takes part in the same number of decomposition pairs for any seed
    position = rng.randint(2501, 3333)
    value = _signed(rng, Fraction(1, 4), Fraction(3), den_max=6)
    coeffs = [{"const": _q(-z0 * z0)},
              {"indicator": [position], "value": _q(value)},
              {"builtin": "unit"}]
    verify = {
        "semigroup": window,
        "arithmetic": {"mode": "exact"},
        "equation": {"coefficients": coeffs},
        "task": {"type": "verify", "root": _q(z0), "rho": EXACT_RHO,
                 "points": [_real_point(rng, EXACT_MIN_RE, EXACT_MIN_RE + 2),
                            _point(rng, EXACT_MIN_RE, EXACT_MIN_RE + 2)]},
    }
    invert = {
        "semigroup": window,
        "arithmetic": {"mode": "exact"},
        "equation": {"coefficients": [{"builtin": "one"}]},
        "task": {"type": "invert"},
    }
    return [
        _op("verify", "cli", verify, {"root": _q(z0), "sub_window": 200}),
        _op("invert", "cli", invert, {"mobius_up_to": 10_000}),
    ]


def _dirichlet2_double(rng):
    z0 = _rational(rng, Fraction(1, 4), Fraction(1, 2))
    z1 = _signed(rng, Fraction(3, 2), Fraction(2))
    # a_1 and a_2 are dense, so none of the products a_j(u) P_j(v) the
    # sweep forms is zero by structure.  a_0 sits at the origin: with a
    # dense a_0 too, every coefficient is a multiple of `one` and the
    # solution is just z0 at the origin and 0 elsewhere
    coeffs = [{"indicator": [1, 1], "value": _q(z0 * z1)},
              {"const": _q(-(z0 + z1))}, {"builtin": "one"}]
    verify = {
        "semigroup": {"kind": "ordinary-dirichlet", "k": 2, "max_product": 5000},
        "arithmetic": {"mode": "double"},
        "equation": {"coefficients": coeffs},
        "task": {"type": "verify", "root": _q(z0), "rho": DOUBLE_RHO,
                 "points": [[_point(rng, DOUBLE_MIN_RE, DOUBLE_MIN_RE + 2),
                             _point(rng, DOUBLE_MIN_RE, DOUBLE_MIN_RE + 2)]]},
    }
    return [_op("verify", "cli", verify, {"root": _q(z0), "sub_window": 60})]


def _lattice_system(rng):
    # g1*g1 + alpha g2 + beta1 = 0,  g2*g2 + gamma g1*g2 + beta2 = 0,
    # anchored at (z1, z2); beta1, beta2 make the base point consistent
    while True:
        z1, z2, alpha, gamma = (_signed(rng, Fraction(1, 4), Fraction(1))
                                for _ in range(4))
        beta1 = -(z1 * z1 + alpha * z2)
        beta2 = -(z2 * z2 + gamma * z1 * z2)
        det = 2 * z1 * (2 * z2 + gamma * z1) - alpha * gamma * z2
        if beta1 and beta2 and abs(det) >= Fraction(1, 4):
            break
    system = {
        "semigroup": {"kind": "lattice", "k": 3, "size_bound": 26},
        "arithmetic": {"mode": "double"},
        "unknowns": 2,
        "base_point": [_q(z1), _q(z2)],
        "equations": [
            [{"coeff": {"builtin": "unit"}, "exponents": [2, 0]},
             {"coeff": {"const": _q(alpha)}, "exponents": [0, 1]},
             {"coeff": {"const": _q(beta1)}, "exponents": [0, 0]}],
            [{"coeff": {"builtin": "unit"}, "exponents": [0, 2]},
             {"coeff": {"const": _q(gamma)}, "exponents": [1, 1]},
             {"coeff": {"const": _q(beta2)}, "exponents": [0, 0]}],
        ],
        "points": [[_point(rng, 1, 3) for _ in range(3)] for _ in range(2)],
    }
    return [_op("solve_system", "system", system, {"sub_window": 5})]


def _generators_solve_all(rng):
    while True:
        roots = sorted(_signed(rng, Fraction(1, 4), Fraction(2)) for _ in range(3))
        e1 = sum(roots)
        e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        e3 = roots[0] * roots[1] * roots[2]
        apart = min(b - a for a, b in zip(roots, roots[1:]))
        if e1 and e2 and apart >= Fraction(1, 4):
            break
    spec = {
        "semigroup": {"kind": "rational-generators",
                      "generators": [list(g) for g in GENERATORS],
                      "size_bound": 8},
        "arithmetic": {"mode": "double"},
        "equation": {"coefficients": [{"const": _q(-e3)}, {"const": _q(e2)},
                                      {"const": _q(-e1)}, {"builtin": "unit"}]},
        "task": {"type": "solve-all"},
    }
    return [_op("solve-all", "cli", spec,
                {"roots": [_q(r) for r in roots], "sub_window": "3/2"})]


def _op(name, kind, spec, expect):
    data = (json.dumps(spec, sort_keys=True, separators=(",", ":")) + "\n").encode()
    return {"name": name, "kind": kind, "spec": spec, "expect": expect,
            "bytes": data, "sha256": hashlib.sha256(data).hexdigest()}


_BUILDERS = {
    "dirichlet-exact": _dirichlet_exact,
    "dirichlet2-double": _dirichlet2_double,
    "lattice-system": _lattice_system,
    "generators-solve-all": _generators_solve_all,
}


def generate(workload: str, seed: int) -> list:
    """The operations of one round of ``workload``; equal seeds give equal bytes."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
