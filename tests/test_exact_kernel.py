"""Exact mode against plain Fraction loops.

The integer kernel behind ``convolve``, ``invert``, ``solve`` and
``residual`` must give the values of the exact loops in ``oracles``
(and of the literal recursion), on every backend, for real and Gaussian
rationals and for coefficients that vanish almost everywhere.  The
integer norm brackets must give the floats of the Fraction-square
brackets wherever those are defined, and stay finite up to the largest
double.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirconv as dc
from dirconv.rounding import INF, MAX, abs_bounds_exact
from dirconv.scalars import QC

from oracles import (abs_bounds_fractions, convolve_fractions, from_values,
                     invert_fractions, literal_solve, r_norm_partial,
                     residual_fractions, system_residual_fractions)

WINDOWS = (
    dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=36),
    dc.enumerate_semigroup(dc.Lattice(2), size_bound=5),
    dc.enumerate_semigroup(
        dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))),
        size_bound=Fraction(3, 2)),
)

KINDS = ("unit", "indicator", "const", "sparse")


def _scalar(rng, gauss, nonzero=False):
    while True:
        v = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        if gauss and rng.random() < 0.7:
            v = QC(v, Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        if v or not nonzero:
            return v


def _coefficient(enum, rng, kind, at0, gauss):
    """A coefficient of the given support pattern with value ``at0`` at 0."""
    n = len(enum)
    if kind == "const":
        return from_values(enum, [at0] * n)
    vals = [at0] + [Fraction(0)] * (n - 1)
    if kind == "indicator":
        vals[rng.randrange(1, n)] = _scalar(rng, gauss, nonzero=True)
    elif kind == "sparse":
        vals[1:] = [_scalar(rng, gauss) if rng.random() < 0.4 else Fraction(0)
                    for _ in range(n - 1)]
    return from_values(enum, vals)


def _equation(enum, rng, gauss):
    """(T, z0): a random equation of degree 1 to 3 with simple root z0.

    Each coefficient is a unit multiple, an indicator off 0, a constant
    (possibly 0) or a sparse function; a_0(0) is chosen last so that z0
    is a root of the anchor polynomial.
    """
    while True:
        d = rng.randint(1, 3)
        z0 = _scalar(rng, gauss, nonzero=True)
        kinds = [rng.choice(KINDS) for _ in range(d + 1)]
        at0 = [Fraction(0)] + [Fraction(0) if kind == "indicator" else _scalar(rng, gauss)
                               for kind in kinds[1:]]
        at0[0] = -sum((a * z0 ** j for j, a in enumerate(at0) if j), Fraction(0))
        fprime = sum((j * a * z0 ** (j - 1) for j, a in enumerate(at0) if j), Fraction(0))
        coeffs = [_coefficient(enum, rng, kind, a, gauss) for kind, a in zip(kinds, at0)]
        if fprime and not coeffs[-1].is_zero():
            return dc.ConvPolynomial(tuple(coeffs)), z0


def _function(enum, rng, gauss, nonzero_at_zero=False):
    vals = [_scalar(rng, gauss) if rng.random() < 0.7 else Fraction(0) for _ in enum]
    if nonzero_at_zero:
        vals[0] = _scalar(rng, gauss, nonzero=True)
    return from_values(enum, vals)


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_exact_kernel_matches_the_fraction_loops(seed):
    rng = random.Random(seed)
    gauss = rng.random() < 0.5
    for enum in WINDOWS:
        T, z0 = _equation(enum, rng, gauss)
        g = dc.solve(T, z0)
        assert g.values == literal_solve(T, z0).values
        assert dc.residual(T, g).is_zero()
        h = _function(enum, rng, gauss)
        assert dc.residual(T, h).values == residual_fractions(T, h).values
        for c in T.coeffs:
            assert dc.convolve(c, h).values == convolve_fractions(c, h).values
            assert dc.convolve(h, c).values == convolve_fractions(h, c).values
        u = _function(enum, rng, gauss, nonzero_at_zero=True)
        assert dc.invert(u).values == invert_fractions(u).values
        for c in T.coeffs:
            if c.values[0]:
                assert dc.invert(c).values == invert_fractions(c).values


def _gapped_system(enum, rng, m, gauss):
    """m equations in m unknowns for the Horner grouping: the last unknown
    appears cubed with no square and linearly with a zero coefficient, one
    equation leaves it out, one repeats an exponent vector, and each has a
    constant-only term."""
    def term(last, zero=False):
        head = tuple(rng.randint(0, 2) for _ in range(m - 1))
        coeff = dc.constant(enum, 0) if zero else _function(enum, rng, gauss)
        return dc.Monomial(coeff, head + (last,))

    const = (0,) * m
    equations = [
        [term(3), term(1), term(1, zero=True), dc.Monomial(_function(enum, rng, gauss), const)],
        [term(0), term(0), dc.Monomial(_function(enum, rng, gauss), const)],
        [term(2), dc.Monomial(_function(enum, rng, gauss), const)],
    ]
    equations[2].append(dc.Monomial(_function(enum, rng, gauss), equations[2][0].exponents))
    return dc.PolySystem(m, equations[:m], (1,) * m)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [2, 3])
def test_system_residual_matches_the_term_by_term_loop(seed, m):
    rng = random.Random(seed)
    gauss = rng.random() < 0.5
    for enum in WINDOWS:
        S = _gapped_system(enum, rng, m, gauss)
        gs = [_function(enum, rng, gauss) for _ in range(m)]
        got = dc.system_residual(S, gs)
        want = system_residual_fractions(S, gs)
        assert [r.values for r in got] == [r.values for r in want]


def test_invert_a_gaussian_function(od100):
    rng = random.Random(7)
    g = from_values(od100, [QC(1, 2)] + [
        QC(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
           Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(99)])
    inv = dc.invert(g)
    assert inv.values == invert_fractions(g).values
    assert any(isinstance(v, QC) and v.im for v in inv.values)
    assert dc.convolve(g, inv) == dc.unit(od100)


def _seeded_values(rng):
    """0, then Fractions and QCs with magnitudes from 2^-500 to 2^500,
    small and huge numerators and denominators."""
    yield Fraction(0)
    yield QC(0, 0)
    for _ in range(3000):
        e = rng.randint(-500, 500)
        kind = rng.randrange(4)
        if kind == 0:
            yield Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)) * Fraction(2) ** e
        elif kind == 1:
            bits = rng.randint(1, 2500)
            num = rng.getrandbits(bits) * rng.choice((1, -1))
            den = rng.getrandbits(max(1, bits + rng.randint(-20, 20))) + 1
            yield Fraction(num, den) * Fraction(2) ** (e // 2)
        elif kind == 2:
            yield Fraction(rng.randint(-50, 50))
        else:
            f = rng.randint(-3, 3)
            yield QC(Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 999)) * Fraction(2) ** e,
                     Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 999)) * Fraction(2) ** (e + f))


def test_abs_bounds_equal_the_fraction_square_brackets():
    values = list(_seeded_values(random.Random(20261018)))
    for v in values:
        assert abs_bounds_exact(v) == abs_bounds_fractions(v), v


def _encloses(v, lo, hi):
    a2 = v.re * v.re + v.im * v.im if isinstance(v, QC) else v * v
    return Fraction(lo) ** 2 <= a2 and (hi == INF or a2 <= Fraction(hi) ** 2)


def test_abs_bounds_where_the_square_is_no_normal_double():
    """|q|^2 above the doubles, or subnormal, or below them."""
    big = Fraction(int(MAX))
    for v in (Fraction(10) ** 200, -Fraction(10) ** 300, big, -big, QC(big / 2, big / 2),
              Fraction(1, 10 ** 160), Fraction(1, 10 ** 200), Fraction(1, 10 ** 400),
              Fraction(3, 2 ** 1060),
              QC(Fraction(1, 2 ** 600), Fraction(-1, 2 ** 601))):
        lo, hi = abs_bounds_exact(v)
        assert hi <= MAX and _encloses(v, lo, hi), v
    assert abs_bounds_exact(big)[1] == MAX
    for v in (big + 1, -Fraction(10) ** 309, QC(big, big), QC(0, big * 2)):
        assert abs_bounds_exact(v) == (MAX, INF), v


def test_a_value_below_the_least_double_keeps_a_positive_upper_term(od20):
    g = from_values(od20, [Fraction(0)] * 19 + [Fraction(1, 10 ** 400)])
    assert r_norm_partial(g, 0.5) > 0.0
