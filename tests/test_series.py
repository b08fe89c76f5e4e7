import math
import random
from fractions import Fraction

import pytest

import dirconv as dc

from oracles import binom_half, random_exact_function, zeta_tail_integral


def sqrt_one(enum):
    return dc.ConvPolynomial((
        -dc.one(enum), dc.constant(enum, 0), dc.unit(enum)))


def test_unit_series_is_one(od20):
    for s in (0.0, 2.0, 3.5 + 1j):
        assert dc.evaluate(dc.unit(od20), s).value == 1


def test_zeta_partial_sum_near_zeta2():
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=1000)
    v = dc.evaluate(dc.one(e), 2.0).value
    assert abs(v - math.pi ** 2 / 6) < 1e-3
    assert v.real < math.pi ** 2 / 6


def test_lattice_geometric_series():
    e = dc.enumerate_semigroup(dc.Lattice(1), size_bound=40)
    s = math.log(2.0)   # e^{-s} = 1/2
    v = dc.evaluate(dc.one(e), s).value
    assert abs(v - (2.0 - 2.0 ** -40)) < 1e-12


def test_conjugate_symmetry(od20, lat8):
    rng = random.Random(31)
    for enum in (od20, lat8):
        g = random_exact_function(enum, rng)
        s = 1.7 + 0.9j
        a = dc.evaluate(g, s).value
        b = dc.evaluate(g, s.conjugate()).value
        assert b == pytest.approx(a.conjugate(), abs=1e-13)


def test_series_is_multiplicative_on_compact_supports():
    e = dc.enumerate_semigroup(dc.Lattice(1), size_bound=8)
    g = dc.from_pairs(e, [((0,), 2), ((1,), -1), ((3,), Fraction(1, 2))])
    h = dc.from_pairs(e, [((0,), 1), ((2,), 3), ((4,), -2)])
    s = 0.8 + 0.3j
    lhs = dc.evaluate(dc.convolve(g, h), s).value
    rhs = dc.evaluate(g, s).value * dc.evaluate(h, s).value
    assert lhs == pytest.approx(rhs, rel=1e-13)


# -- tail bounds -----------------------------------------------------------------

def test_tail_bound_requires_half_plane(od20):
    T = sqrt_one(od20)
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    with pytest.raises(dc.OutOfHalfPlane):
        dc.tail_bound(g, cert, cert.r - 0.5)
    assert dc.tail_bound(g, cert, cert.r + 0.1) >= 0.0


def test_tail_bound_and_verify_refuse_a_point_with_one_message(od20):
    """One half-plane check serves both: the same point below r gets the
    same OutOfHalfPlane text from tail_bound and from verify."""
    T = sqrt_one(od20)
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    s = complex(cert.r - 0.5, 2)
    messages = []
    for refuse in (lambda: dc.tail_bound(g, cert, s),
                   lambda: dc.verify_scalar_equation(T, g, [s], cert=cert)):
        with pytest.raises(dc.OutOfHalfPlane) as info:
            refuse()
        messages.append(str(info.value))
    assert messages == [f"point ({s},) below the certified half-plane r = {cert.r}"] * 2


@pytest.mark.parametrize("part", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(od20, part):
    """min Re(s) < r is False for NaN, so the half-plane test alone would
    let such a point through: every entry point refuses it first."""
    T = sqrt_one(od20)
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    for s in (part, complex(part, 0), complex(cert.r + 1, part)):
        with pytest.raises(ValueError, match="not finite"):
            dc.evaluate(g, s)
        with pytest.raises(ValueError, match="not finite"):
            dc.tail_bound(g, cert, s)
        with pytest.raises(ValueError, match="not finite"):
            dc.verify_scalar_equation(T, g, [cert.r + 1, s], cert=cert)


def test_tail_bound_sound_for_unit(od20):
    # the true tail of the unit series is 0; the unit solves g - unit = 0
    u = dc.unit(od20)
    T = dc.ConvPolynomial((-u, u))
    cert = dc.certify(T, 1)
    assert dc.tail_bound(u, cert, cert.r + 1) >= 0.0
    # a certificate of another function, here the zero solution of g = 0,
    # bounds nothing about the unit
    zero_cert = dc.certify(dc.ConvPolynomial((dc.constant(od20, 0), u)), 0)
    with pytest.raises(dc.CertificateViolated, match="anchor"):
        dc.tail_bound(u, zero_cert, zero_cert.r + 1)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "double"])
def test_a_multiple_of_the_solution_is_refused(exact):
    """50 g is not the certified g: its g(0) is 50, not z0 = 1, and its
    window sum passes |z0| + t*, so a tail from it would read 0."""
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=200)
    T = sqrt_one(e) if exact else sqrt_one(e).to_double()
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    assert dc.validate(cert, g).ok
    with pytest.raises(dc.CertificateViolated, match="anchor"):
        dc.validate(cert, g.scale(50))
    with pytest.raises(dc.CertificateViolated, match="anchor"):
        dc.tail_bound(g.scale(50), cert, cert.r + 1)
    with pytest.raises(dc.CertificateViolated, match="anchor"):
        dc.verify_scalar_equation(T, g.scale(50), [cert.r + 1], cert=cert)


@pytest.mark.parametrize("window", ["od20", "lat8"])
def test_verify_needs_a_tail_source(window, request):
    enum = request.getfixturevalue(window)
    T = sqrt_one(enum)
    with pytest.raises(ValueError, match="certificate or an explicit g_tail"):
        dc.verify_scalar_equation(T, dc.solve(T, 1), [2])


def test_verify_validates_once_and_reports_it(od20, monkeypatch):
    T = sqrt_one(od20)
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    calls = []

    def counted(cert, g, _fn=dc.certificate.validate):
        calls.append(g)
        return _fn(cert, g)

    monkeypatch.setattr(dc.certificate, "validate", counted)
    points = [cert.r + 1, complex(cert.r + 2, 3), cert.r + 4]
    report = dc.verify_scalar_equation(T, g, points, cert=cert)
    assert calls == [g]
    assert report.validation == dc.validate(cert, g)
    assert {pc.tail for pc in report.points} == {report.validation.tail}
    calls.clear()
    report = dc.verify_scalar_equation(T, g, points, cert=cert, g_tail=lambda s: 0.0)
    assert calls == [] and report.validation is None


def test_tail_bound_monotone_in_window():
    windows = [dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=n)
               for n in (50, 100, 200)]
    T_big = sqrt_one(windows[-1])
    cert = dc.certify(T_big, 1)
    s = cert.r + 1.0
    bounds = []
    for e in windows:
        g = dc.solve(sqrt_one(e), 1)
        bounds.append(dc.tail_bound(g, cert, s))
    assert bounds[0] >= bounds[1] >= bounds[2] >= 0.0


def test_tail_bound_dominates_true_tail():
    # compare the certified window-200 tail against a much longer window
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=200)
    big = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=2000)
    T = sqrt_one(e)
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    g_big = dc.solve(sqrt_one(big), 1)
    s = cert.r + 0.25
    claimed = dc.tail_bound(g, cert, s)
    observed = sum(abs(complex(v)) * n ** -s
                   for (n,), v in [(el.ident, g_big.values[i])
                                   for i, el in enumerate(big)][200:])
    assert observed <= claimed


# -- scalar equation verification ---------------------------------------------

def test_verify_linear_compact_instance(od20):
    a0 = dc.from_pairs(od20, [((2,), 1), ((6,), Fraction(-1, 3))])
    T = dc.ConvPolynomial((a0, dc.unit(od20)))
    g = dc.solve(T, 0)
    report = dc.verify_scalar_equation(T, g, [2.0, 3.0, 1.5 + 2j],
                                       g_tail=lambda s: 0.0)
    assert report.all_ok
    for pc in report.points:
        assert pc.residual < 1e-12


def test_verify_sqrt_zeta_with_injected_tails():
    n_max = 100
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=n_max)
    T = sqrt_one(e)
    g = dc.solve(T, 1)
    # |g(n)| <= 1 for every n: the values are products of binomial-series
    # coefficients binom_half(k), all of absolute value <= 1/2 for k >= 1
    assert all(abs(complex(v)) <= 1.0 for v in g.values)

    def g_tail(s):
        return zeta_tail_integral(complex(s).real, n_max)

    def coeff_tail(j, s):
        return zeta_tail_integral(complex(s).real, n_max) if j == 0 else 0.0

    report = dc.verify_scalar_equation(T, g, [2.0, 3.0, 5.0, 2 + 10j],
                                       g_tail=g_tail, coeff_tails=coeff_tail)
    assert report.all_ok


def test_verify_sqrt_zeta_certificate_route():
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=100)
    T = sqrt_one(e)
    g = dc.solve(T, 1)
    cert = dc.certify(T, 1)

    def coeff_tail(j, s):
        return zeta_tail_integral(complex(s).real, 100) if j == 0 else 0.0

    s = cert.r + 0.5
    report = dc.verify_scalar_equation(T, g, [s], cert=cert,
                                       coeff_tails=coeff_tail)
    assert report.all_ok
    with pytest.raises(dc.OutOfHalfPlane):
        dc.verify_scalar_equation(T, g, [2.0], cert=cert)


def test_verify_two_variable_power_series():
    # g * g = (1 + w1)(1 + w2); the solution has the closed form
    # g(i, j) = binom_half(i) * binom_half(j)
    e = dc.enumerate_semigroup(dc.Lattice(2), size_bound=10)
    a0 = dc.from_pairs(e, [((0, 0), -1), ((1, 0), -1), ((0, 1), -1),
                           ((1, 1), -1)])
    T = dc.ConvPolynomial((a0, dc.constant(e, 0), dc.unit(e)))
    g = dc.solve(T, 1)
    for i, el in enumerate(e):
        x, y = el.ident
        assert g.values[i] == binom_half(x) * binom_half(y)

    rng = random.Random(41)
    pts = []
    for _ in range(5):
        w1 = rng.uniform(0.05, 0.25)
        w2 = rng.uniform(0.05, 0.25)
        pts.append((-math.log(w1), -math.log(w2)))

    def g_tail(s):
        # |g(i,j)| <= 1 and |e^{-(i,j).s}| = w1^i w2^j with w = e^{-Re s}
        q = max(math.exp(-s[0].real), math.exp(-s[1].real))
        total = 0.0
        for m in range(11, 400):
            total += (m + 1) * q ** m
        return total

    report = dc.verify_scalar_equation(T, g, pts, g_tail=g_tail)
    assert report.all_ok


def test_evaluate_point_dimension_check(lat2):
    with pytest.raises(ValueError):
        dc.evaluate(dc.one(lat2), (1.0, 2.0, 3.0))
    v = dc.evaluate(dc.one(lat2), 10.0)  # scalar broadcasts across k = 2
    assert v.value == pytest.approx(
        sum(math.exp(-10.0 * (a + b)) for a, b in
            (el.ident for el in lat2)), rel=1e-12)


def test_evaluate_on_rational_generator_backend():
    e = dc.enumerate_semigroup(dc.RationalGenerators((("1/2",),)), size_bound=10)
    s = 1.3
    v = dc.evaluate(dc.one(e), s).value
    expected = sum(math.exp(-s * k / 2) for k in range(21))
    assert v == pytest.approx(expected, rel=1e-13)
