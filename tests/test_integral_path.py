"""Exact sweeps and products on integral data run on Python ints.

When z0, J^{-1} and every coefficient value are integers, every value a
sweep sets is an integer, and ``algebra.sweep`` reads it through the
double-mode readers on Python ints instead of ``algebra.qdot``; so does
``convolve`` when both operands are integral.  The values must equal the
plain exact loops in ``oracles`` (and the pair loop in doubles, exact on
these small integers) and stay ``Fraction``s, and data that is not
integral must still go through ``qdot``.
"""

import math
import random
from fractions import Fraction

import pytest

import dirconv as dc
from dirconv import algebra
from dirconv.scalars import QC

from oracles import (convolve_fractions, from_values, invert_fractions,
                     literal_solve, residual_fractions, sieve_mobius,
                     sweep_pairs, system_residual_fractions)

WINDOWS = {
    "divisor": dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=36),
    "lattice": dc.enumerate_semigroup(dc.Lattice(2), size_bound=5),
    "generators": dc.enumerate_semigroup(
        dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))),
        size_bound=Fraction(3, 2)),
}


@pytest.fixture
def qdot_calls(monkeypatch):
    """The number of products read through ``qdot`` since the test began."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return qdot(*args)

    qdot = algebra.qdot
    monkeypatch.setattr(algebra, "qdot", counted)
    return calls


@pytest.fixture(params=sorted(WINDOWS))
def window(request):
    return WINDOWS[request.param]


def _fractions(g):
    assert g.exact and all(type(v) is Fraction for v in g.values)
    return g


def _ints(enum, rng, at0, density=0.6):
    """An integral function with value ``at0`` at 0 and small integers elsewhere."""
    return from_values(enum, [at0] + [rng.randint(-2, 2) if rng.random() < density else 0
                                         for _ in range(len(enum) - 1)])


def _pairs_equal(g, ref):
    """g equals the pair loop's complex doubles, which are exact here."""
    assert max(abs(v) for v in g.values) < 2 ** 53
    assert [complex(v) for v in g.values] == list(ref.values)


def test_catalan_numbers_on_the_lattice(qdot_calls):
    """x g^2 - g + 1 = 0 anchored at 1: f = 1 - z, J^{-1} = -1, and g is
    the generating function of the Catalan numbers."""
    enum = dc.enumerate_semigroup(dc.Lattice(1), size_bound=30)
    T = dc.ConvPolynomial((dc.unit(enum), -dc.unit(enum), dc.indicator(enum, (1,))))
    g = _fractions(dc.solve(T, 1))
    assert list(g.values) == [math.comb(2 * n, n) // (n + 1) for n in range(31)]
    assert qdot_calls[0] == 0


def test_invert_one_is_the_moebius_function(qdot_calls):
    enum = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=10_000)
    mu = _fractions(dc.invert(dc.one(enum)))
    assert list(mu.values) == sieve_mobius(10_000)[1:]
    assert qdot_calls[0] == 0


@pytest.mark.parametrize("seed", range(3))
def test_integral_products_match_the_fraction_loops(window, seed, qdot_calls):
    rng = random.Random(seed)
    g, h = _ints(window, rng, rng.choice((-1, 1))), _ints(window, rng, rng.randint(-2, 2))
    const = dc.constant(window, rng.randint(-3, 3))
    for a, b in ((g, h), (g, g), (const, h), (dc.unit(window).scale(3), g)):
        assert _fractions(dc.convolve(a, b)) == convolve_fractions(a, b)
    assert _fractions(dc.invert(g)) == invert_fractions(g)
    assert qdot_calls[0] == 0


def _unimodular_equation(enum, rng):
    """A quadratic with integral data and an integer root z0 where
    f'(z0) = +-1, so that J^{-1} is an integer."""
    z0, a2 = rng.randint(-2, 2), rng.randint(-2, 2)
    a1 = rng.choice((-1, 1)) - 2 * a2 * z0
    at0 = [-a2 * z0 * z0 - a1 * z0, a1, a2]
    return dc.ConvPolynomial(tuple(_ints(enum, rng, c) for c in at0)), z0


@pytest.mark.parametrize("seed", range(3))
def test_integral_solve_matches_the_literal_recursion(window, seed, qdot_calls):
    T, z0 = _unimodular_equation(window, random.Random(seed))
    g = _fractions(dc.solve(T, z0))
    assert g == literal_solve(T, Fraction(z0))
    assert residual_fractions(T, g).is_zero()
    terms = [(c.values, (j,)) for j, c in enumerate(T.coeffs)]
    _pairs_equal(g, sweep_pairs(window, [terms], [z0])[0])
    assert qdot_calls[0] == 0


def _unimodular_system(enum, rng):
    """Two quadratic equations in g1, g2 with integral data, an integer
    base point and the Jacobian [[1 + ab, a], [b, 1]], its first row
    negated at random, so det J = +-1."""
    p, q, a, b = (rng.randint(-2, 2) for _ in range(4))
    sign = rng.choice((-1, 1))
    z0 = (p, q)
    equations = []
    for i, row in enumerate([[sign * (1 + a * b), sign * a], [b, 1]]):
        s, c = rng.randint(-2, 2), rng.randint(-2, 2)
        # row is the gradient of s z_i^2 + c z_1 z_2 + l_1 z_1 + l_2 z_2 at z0
        l = [row[0] - c * q, row[1] - c * p]
        l[i] -= 2 * s * z0[i]
        at0 = {(2 - 2 * i, 2 * i): s, (1, 1): c, (1, 0): l[0], (0, 1): l[1],
               (0, 0): -(s * z0[i] ** 2 + c * p * q + l[0] * p + l[1] * q)}
        equations.append([dc.Monomial(_ints(enum, rng, v), e) for e, v in at0.items()])
    return dc.PolySystem(2, equations, z0)


@pytest.mark.parametrize("seed", range(3))
def test_integral_system_matches_the_pair_loop(window, seed, qdot_calls):
    S = _unimodular_system(window, random.Random(seed))
    gs = [_fractions(g) for g in dc.solve_system(S)]
    assert all(r.is_zero() for r in system_residual_fractions(S, gs))
    equations = [[(t.coeff.values, t.exponents) for t in eq] for eq in S.equations]
    for g, ref in zip(gs, sweep_pairs(window, equations, S.z0)):
        _pairs_equal(g, ref)
    assert qdot_calls[0] == 0


def _gaussian(enum, rng):
    """Gaussian integers with the unit i at 0: exact, integral, but QC."""
    return from_values(enum, [QC(0, 1)] + [QC(rng.randint(-2, 2), rng.randint(-2, 2))
                                              for _ in range(len(enum) - 1)])


def test_data_off_the_integers_still_reads_through_qdot(window, qdot_calls):
    rng = random.Random(5)
    # g^2 - 4 = 0 at z0 = 2: integral data and root, but J^{-1} = 1/4
    T = dc.ConvPolynomial((_ints(window, rng, -4), dc.constant(window, 0),
                           _ints(window, rng, 1)))
    assert any(v.denominator > 1 for v in literal_solve(T, Fraction(2)).values)
    gauss, h = _gaussian(window, rng), _ints(window, rng, 1)
    half = h.scale(Fraction(1, 2))
    cases = [(lambda: dc.solve(T, 2), lambda: literal_solve(T, Fraction(2))),
             (lambda: dc.invert(gauss), lambda: invert_fractions(gauss)),
             (lambda: dc.convolve(gauss, h), lambda: convolve_fractions(gauss, h)),
             (lambda: dc.convolve(h, half), lambda: convolve_fractions(h, half))]
    for run, oracle in cases:
        calls = qdot_calls[0]
        assert run() == oracle()
        assert qdot_calls[0] > calls
