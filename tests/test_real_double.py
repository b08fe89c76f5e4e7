"""Real double mode: values are floats wherever an equation's data are real.

Every operation runs twice on the same real data: once on floats (what
``double_value`` gives for a real value) and once on ``complex`` values
with imaginary part 0, built directly into the ``TruncatedFunction``.
The float run must give bit for bit the real parts of the complex run,
zeros with their signs, and the complex run imaginary parts 0.  The sweep
starts each double sum -J^{-1} (known terms) at +0.0, so a value that is
0 is +0.0 in both runs.  Non-real data still give complex values.
"""

import random
from fractions import Fraction

import pytest

import dirconv as dc
from dirconv import certificate, series, solver
from dirconv.algebra import TruncatedFunction

from oracles import from_values, instance_with_anchor_roots, random_exact_function

WINDOWS = {
    "divisor": (dc.OrdinaryDirichlet(2), 40),
    "lattice": (dc.Lattice(2), 9),
    "generators": (dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))),
                   Fraction(5, 2)),
}

POINTS = (Fraction(3), complex(2.5, 4.0))


@pytest.fixture(scope="module", params=sorted(WINDOWS))
def window(request):
    backend, bound = WINDOWS[request.param]
    return dc.enumerate_semigroup(backend, size_bound=bound)


def twins(f):
    """An exact real function as floats and as complex values made directly."""
    real = f.to_double()
    return real, TruncatedFunction(f.enum, [complex(v) for v in real.values], False)


def bits(v):
    return complex(v).real.hex(), complex(v).imag


def assert_real_part(got, want):
    """``got`` holds floats, bit for bit the real parts of ``want``, whose
    imaginary parts are 0."""
    assert {type(v) for v in got.values} == {float}
    assert [v.hex() for v in got.values] == [complex(v).real.hex() for v in want.values]
    assert all(complex(v).imag == 0 for v in want.values)


def equation(enum, seed):
    rng = random.Random(seed)
    T = instance_with_anchor_roots(enum, [Fraction(1, 2), Fraction(-3, 2)], rng, denom=3)
    pairs = [twins(c) for c in T.coeffs]
    return (dc.ConvPolynomial(tuple(r for r, _ in pairs)),
            dc.ConvPolynomial(tuple(c for _, c in pairs)))


def test_convolve_and_invert(window):
    rng = random.Random(1)
    for _ in range(3):
        g, gc = twins(random_exact_function(window, rng, nonzero_at_zero=True))
        h, hc = twins(random_exact_function(window, rng, density=0.3))
        assert_real_part(dc.convolve(g, h), dc.convolve(gc, hc))
        assert_real_part(dc.invert(g), dc.invert(gc))
    one, onec = twins(dc.one(window))
    mu = dc.invert(one)   # the Moebius function: most values 0, each +0.0
    assert_real_part(mu, dc.invert(onec))
    assert all(v.hex() != "-0x0.0p+0" for v in mu.values)


@pytest.mark.parametrize("seed", [2, 3])
def test_solve_residual_certify_validate_evaluate(window, seed):
    T, Tc = equation(window, seed)
    for z0 in (0.5, -1.5):
        g, gc = dc.solve(T, z0), dc.solve(Tc, complex(z0))
        assert_real_part(g, gc)
        assert_real_part(solver.residual(T, g), solver.residual(Tc, gc))
        cert, certc = dc.certify(T, z0), dc.certify(Tc, complex(z0))
        assert type(cert.z0) is float and cert == certc
        assert certificate.validate(cert, g) == certificate.validate(certc, gc)
        for s in POINTS:
            assert bits(series.evaluate(g, s).value) == bits(series.evaluate(gc, s).value)


def test_solve_system_and_its_residual(window):
    rng = random.Random(4)
    unit, unitc = twins(dc.unit(window))
    exact_dense = random_exact_function(window, rng, nonzero_at_zero=True)
    dense, densec = twins(exact_dense)
    z1, z2, alpha = Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4)
    c1, c1c = twins(dc.constant(window, -(z1 * z1 + alpha * z2)))
    a, ac = twins(dc.constant(window, alpha))
    c2 = -(z2 * z2 + exact_dense.values[0] * z1 * z2)
    b, bc = twins(from_values(window, [c2] + [0] * (len(window) - 1)))

    def system(u, d, k1, al, k2):
        M = dc.Monomial
        return dc.PolySystem(2, [[M(u, (2, 0)), M(al, (0, 1)), M(k1, (0, 0))],
                                 [M(u, (0, 2)), M(d, (1, 1)), M(k2, (0, 0))]],
                             (float(z1), float(z2)))

    S, Sc = system(unit, dense, c1, a, b), system(unitc, densec, c1c, ac, bc)
    gs, gsc = dc.solve_system(S), dc.solve_system(Sc)
    for g, gc in zip(gs, gsc):
        assert_real_part(g, gc)
    for r, rc in zip(solver.system_residual(S, gs), solver.system_residual(Sc, gsc)):
        assert_real_part(r, rc)


def test_non_real_data_give_complex_values():
    enum = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=30)
    # the solve-gaussian-root equation: g*g + 1/2 [n = 3] g + 1 = 0, g(1) = i
    T = dc.ConvPolynomial((dc.one(enum, False),
                           dc.indicator(enum, (3,), Fraction(1, 2), False),
                           dc.unit(enum, False)))
    assert {type(c) for f in T.coeffs for c in f.values} == {float}
    g = dc.solve(T, 1j)
    assert {type(v) for v in g.values} == {complex}
    assert g.values[0] == 1j
    # a real root of an equation with one non-real coefficient value
    a1 = dc.from_pairs(enum, [((1,), 2), ((5,), 1j)], False)
    T = dc.ConvPolynomial((dc.constant(enum, -3, False), a1, dc.unit(enum, False)))
    g = dc.solve(T, 1)
    types = [type(v) for v in g.values]
    assert types[:4] == [float] * 4 and types[4] is complex   # n = 1, ..., 4, then 5
    assert complex in {type(v) for v in solver.residual(T, g).values}
