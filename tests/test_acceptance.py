"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

import dirconv as dc
import dirconv.cli as cli

from oracles import (binom_half, factorization_check,
                     instance_with_anchor_roots, random_exact_function,
                     sieve_mobius, sieve_primes, zeta_tail_integral)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def od_10k():
    return dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=10 ** 4)


@pytest.fixture(scope="module")
def od_1k():
    return dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=10 ** 3)


@pytest.fixture(scope="module")
def zeta_sqrt_1k(od_1k):
    T = dc.ConvPolynomial((-dc.one(od_1k), dc.constant(od_1k, 0),
                           dc.unit(od_1k)))
    return T, dc.solve(T, 1)


def small_windows():
    return [
        dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=24),
        dc.enumerate_semigroup(dc.Lattice(2), size_bound=3),
        dc.enumerate_semigroup(dc.RationalGenerators((("2",), ("3",))),
                               size_bound=12),
    ]


# -- 1: Moebius oracle ---------------------------------------------------------

def test_criterion_1_mobius_oracle(od_10k):
    started = time.perf_counter()
    mu = dc.invert(dc.one(od_10k))
    elapsed = time.perf_counter() - started
    oracle = sieve_mobius(10 ** 4)
    for i, el in enumerate(od_10k):
        assert mu.values[i] == oracle[el.ident[0]]
    assert elapsed < 10.0
    ok(1, f"exact inverse of one matches the sieved Moebius function for "
          f"n <= 10^4 in {elapsed:.2f} s")


# -- 2: square root of the constant-one function -------------------------------

def test_criterion_2_sqrt_zeta_oracle(zeta_sqrt_1k):
    T, g = zeta_sqrt_1k
    primes = sieve_primes(10 ** 3)
    for p in primes:
        assert g((p,)) == Fraction(1, 2)
    for p in primes:
        if p * p <= 10 ** 3:
            assert g((p * p,)) == Fraction(3, 8)
    checked = 0
    for m in range(2, 10 ** 3):
        for n in range(2, 10 ** 3 // m + 1):
            if gcd(m, n) == 1:
                assert g((m * n,)) == g((m,)) * g((n,))
                checked += 1
    assert checked > 1000
    ok(2, f"g*g = one: g(p) = 1/2, g(p^2) = 3/8, and multiplicativity on "
          f"{checked} coprime pairs, all exact")


# -- 3: binomial series oracle ---------------------------------------------------

def test_criterion_3_binomial_series():
    e = dc.enumerate_semigroup(dc.Lattice(1), size_bound=50)
    a0 = dc.from_pairs(e, [((0,), -1), ((1,), -1)])
    T = dc.ConvPolynomial((a0, dc.constant(e, 0), dc.unit(e)))
    g = dc.solve(T, 1)
    for n in range(51):
        assert g.values[n] == binom_half(n)
    gd = dc.solve(T.to_double(), 1.0)
    err = max(abs(complex(gd.values[n]) - float(binom_half(n)))
              for n in range(51))
    assert err <= 1e-12
    ok(3, f"g*g = 1 + w matches binomial(1/2, n) exactly for n <= 50; "
          f"double-mode max error {err:.2e} <= 1e-12")


# -- 4: unsolvability construction ------------------------------------------------

def test_criterion_4_unsolvability_all_backends():
    for enum in small_windows():
        q = enum[1]
        a = dc.indicator(enum, q.ident, Fraction(3, 2))
        T = dc.ConvPolynomial((-a, dc.constant(enum, 0), dc.unit(enum)))
        with pytest.raises(dc.NoSimpleRoots) as info:
            dc.solve_all(T)
        exc = info.value
        assert exc.proven_unsolvable
        assert any(ob.q.ident == q.ident and ob.value == Fraction(-3, 2)
                   for ob in exc.obstructions)
    ok(4, "g*g = a with a(0) = 0, a(q) != 0 is refused with the explicit "
          "obstruction -a(q) on all three backends")


# -- 5: factorization ---------------------------------------------------------------

def test_criterion_5_factorization_random_instances():
    rng = random.Random(20250808)
    windows = small_windows()
    for trial in range(25):
        enum = windows[trial % len(windows)]
        d = 2 + trial % 2
        roots = rng.sample((-3, -2, -1, 1, 2, 3), d)
        T = instance_with_anchor_roots(enum, roots, rng)
        result = dc.solve_all(T)
        assert len(result) == d
        okflag, dev = factorization_check(T, [g for _, g in result])
        assert okflag and dev == 0.0
    ok(5, "a_d * (g - g_1) * ... * (g - g_d) reproduces every coefficient "
          "exactly on 25 random instances with d in {2, 3}")


# -- 6: residual exactness -----------------------------------------------------------

def test_criterion_6_residual_exactness(zeta_sqrt_1k):
    instances = []
    T, g = zeta_sqrt_1k
    instances.append((T, g))
    e = dc.enumerate_semigroup(dc.Lattice(1), size_bound=50)
    a0 = dc.from_pairs(e, [((0,), -1), ((1,), -1)])
    Tb = dc.ConvPolynomial((a0, dc.constant(e, 0), dc.unit(e)))
    instances.append((Tb, dc.solve(Tb, 1)))
    rng = random.Random(7777)
    windows = small_windows()
    for trial in range(12):
        enum = windows[trial % len(windows)]
        d = 1 + trial % 3
        roots = rng.sample((-2, -1, 1, 2), d)
        Ti = instance_with_anchor_roots(enum, roots, rng)
        for _, gi in dc.solve_all(Ti):
            instances.append((Ti, gi))
    for Ti, gi in instances:
        assert dc.residual(Ti, gi).is_zero()

    # double mode: residual below 1e-10 * scale, scale = sum_j ||a_j||_max
    worst = 0.0
    for Ti, gi in instances:
        Td = Ti.to_double()
        gd = dc.solve(Td, complex(gi.values[0]))
        scale = max(1.0, max(c.max_abs() for c in Td.coeffs),
                    gd.max_abs() ** Td.degree)
        worst = max(worst, dc.residual(Td, gd).max_abs() / scale)
    assert worst <= 1e-10
    ok(6, f"residuals vanish identically on {len(instances)} exact solved "
          f"instances; double-mode worst relative residual {worst:.2e} <= 1e-10")


# -- 7: certificate soundness ---------------------------------------------------------

def test_criterion_7_certificate_soundness():
    rng = random.Random(424242)
    windows = small_windows()
    certified = 0
    attempts = 0
    while certified < 25 and attempts < 300:
        attempts += 1
        enum = windows[attempts % len(windows)]
        d = 1 + attempts % 3
        roots = rng.sample((-3, -2, -1, 1, 2, 3), d)
        T = instance_with_anchor_roots(enum, roots, rng)
        result = dc.solve_all(T)
        for root, g in result:
            if not root.exact or certified >= 25:
                continue
            try:
                cert = dc.certify(T, root.value)
            except dc.NoPositiveR:
                continue
            report = dc.validate(cert, g)  # raises CertificateViolated on failure
            assert report.ok
            certified += 1
    assert certified == 25
    ok(7, f"validate passed on {certified} certified random instances "
          f"(mixed backends, d <= 3): S_r(m) <= t* at every level and the "
          f"level-recursion holds, zero violations")


# -- 8: half-plane verification --------------------------------------------------------

def test_criterion_8_half_plane(zeta_sqrt_1k):
    n_max = 10 ** 3
    T, g = zeta_sqrt_1k
    # |g(n)| <= 1: multiplicative with prime-power values binom_half(k),
    # all of modulus <= 1/2 (checked exactly on the window too)
    assert all(abs(complex(v)) <= 1.0 for v in g.values)

    def g_tail(s):
        return zeta_tail_integral(complex(s).real, n_max)

    def coeff_tail(j, s):
        return zeta_tail_integral(complex(s).real, n_max) if j == 0 else 0.0

    points = [2.0, 3.0, 5.0, 2 + 10j]
    report = dc.verify_scalar_equation(T, g, points, g_tail=g_tail,
                                       coeff_tails=coeff_tail)
    assert report.all_ok
    # where the certificate reaches, its tail bound works unaided
    cert = dc.certify(T, 1)
    report2 = dc.verify_scalar_equation(T, g, [cert.r + 0.5], cert=cert,
                                        coeff_tails=coeff_tail)
    assert report2.all_ok
    ok(8, f"|g~(s)^2 - one~(s)| stayed below the propagated tail bound at "
          f"s in {{2, 3, 5, 2+10i}} with B covering n <= 10^3 "
          f"(worst ratio {report.worst_ratio:.3f})")


# -- 9: algebra laws --------------------------------------------------------------------

def test_criterion_9_algebra_laws():
    rng = random.Random(1234321)
    enums = [dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=16),
             dc.enumerate_semigroup(dc.Lattice(2), size_bound=3)]
    cases = 0
    for trial in range(200):
        enum = enums[trial % len(enums)]
        g = random_exact_function(enum, rng)
        h = random_exact_function(enum, rng)
        f = random_exact_function(enum, rng)
        u = dc.unit(enum)
        assert dc.convolve(g, h) == dc.convolve(h, g)
        assert dc.convolve(dc.convolve(g, h), f) == dc.convolve(g, dc.convolve(h, f))
        assert dc.convolve(g, h + f) == dc.convolve(g, h) + dc.convolve(g, f)
        assert dc.convolve(g, u) == g
        if g.values[0] != 0:
            inv = dc.invert(g)
            assert dc.convolve(g, inv) == u
            assert dc.invert(inv) == g
        cases += 1
    assert cases == 200
    ok(9, "commutativity, associativity, distributivity, unit law and "
          "inverse round-trip hold exactly on 200 random exact cases")


# -- 10: determinism and performance ------------------------------------------------------

def test_criterion_10_determinism_and_performance(tmp_path):
    spec = {
        "semigroup": {"kind": "ordinary-dirichlet", "k": 1,
                      "max_product": 10 ** 4},
        "arithmetic": {"mode": "double"},
        "equation": {"coefficients": [
            {"const": -2},          # anchor polynomial z^3 + z - 2, root 1
            {"builtin": "unit"},
            {"const": 0},
            {"builtin": "unit"},
        ]},
        "task": {"type": "solve", "root": 1},
    }
    path = tmp_path / "d3.json"
    path.write_text(json.dumps(spec))

    outputs = []
    for _ in range(3):
        started = time.perf_counter()
        doc, code = cli.run(str(path))
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 60.0
        doc.pop("timing")
        outputs.append(cli.render(doc, "json"))
    assert outputs[0] == outputs[1] == outputs[2]
    ok(10, f"d = 3 double-mode solve over n <= 10^4 took {elapsed:.2f} s "
           f"(< 60 s) and the output is byte-identical over three runs")
