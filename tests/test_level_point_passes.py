"""Per-level weights and per-point characters give the same floats.

``weighted_terms`` computes the damping weight once per size level and
the series sums read one characters pass per point; both must agree bit
for bit with the element-by-element loops in ``oracles``.
"""

import random
from fractions import Fraction

import pytest

import dirconv as dc
from dirconv import algebra, certificate, series
from dirconv.scalars import QC

from oracles import (certified_tail, from_values, level_partial_sums,
                     random_exact_function, series_kahan,
                     weighted_terms_per_element)


def bits(x):
    """Floats as hex strings, so that -0.0 and 0.0 differ."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    return x


WINDOWS = {
    "divisor-1": (dc.OrdinaryDirichlet(1), 60),
    "divisor-2": (dc.OrdinaryDirichlet(2), 40),
    "divisor-3": (dc.OrdinaryDirichlet(3), 30),
    "lattice-2": (dc.Lattice(2), 6),
    "lattice-3": (dc.Lattice(3), 4),
    "generators": (dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))),
                   Fraction(3, 2)),
}


@pytest.fixture(scope="module", params=sorted(WINDOWS))
def window(request):
    backend, bound = WINDOWS[request.param]
    return dc.enumerate_semigroup(backend, size_bound=bound)


def _functions(enum, rng):
    """Fraction, QC (runs of one repeated object included) and complex
    double values, with zeros inside levels."""
    real = random_exact_function(enum, rng, density=0.7)
    gauss = from_values(enum, [
        QC(v, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) if rng.random() < 0.5
        else v for v in real.values])
    runs, v = [], QC(Fraction(2, 3), Fraction(-1, 5))
    for _ in range(len(enum)):
        if rng.random() < 0.2:
            v = QC(rng.randint(-4, 4), rng.randint(-2, 2))
        runs.append(v)
    double = dc.TruncatedFunction(enum, [
        0j if rng.random() < 0.2 else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for _ in range(len(enum))], False)
    return [real, gauss, dc.TruncatedFunction(enum, runs, True), double,
            dc.one(enum), dc.constant(enum, Fraction(-5, 3)),
            dc.constant(enum, 0.7 + 0.2j, exact=False), dc.unit(enum, False)]


def _points(k, rng):
    """Real, complex and per-coordinate points, as ``evaluate`` takes them."""
    pts = [2.5, 1.25 + 3.0j, -0.5 - 0.75j]
    for _ in range(3):
        pts.append(tuple(complex(rng.uniform(-1, 3), rng.uniform(-8, 8))
                         for _ in range(k)))
    return pts


@pytest.mark.parametrize("seed", [1, 2])
def test_series_sums_equal_the_element_loop(window, seed):
    rng = random.Random(seed)
    k = window.backend.k
    for g in _functions(window, rng):
        for s in _points(k, rng):
            got = dc.evaluate(g, s)
            assert bits(got.value) == bits(series_kahan(g, got.s))


def test_verify_sums_equal_the_element_loop(window):
    """g and every coefficient summed against one characters pass."""
    rng = random.Random(5)
    fs = _functions(window, rng)
    points = _points(window.backend.k, rng)
    for coeffs, g in (((fs[0], fs[1], fs[4]), fs[2]), ((fs[3], fs[5], fs[6]), fs[3])):
        T = dc.ConvPolynomial(coeffs)
        report = dc.verify_scalar_equation(T, g, points, g_tail=lambda s: 0.0)
        for pc in report.points:
            gval = series_kahan(g, pc.s)
            avals = [series_kahan(c, pc.s) for c in T.coeffs]
            assert bits(pc.value) == bits(gval)
            assert bits(pc.residual) == bits(
                abs(sum(a * gval ** j for j, a in enumerate(avals))))


@pytest.mark.parametrize("r", [0.0, 0.3, 1.7, -0.4])
def test_weighted_terms_equal_the_element_loop(window, r):
    rng = random.Random(11)
    for g in _functions(window, rng):
        got = list(algebra.weighted_terms(g, r))
        want = list(weighted_terms_per_element(g, r))
        assert [(s, bits(lo), bits(hi)) for s, lo, hi in got] == \
               [(s, bits(lo), bits(hi)) for s, lo, hi in want]


def test_the_windows_cover_three_size_types_and_shared_levels(window):
    """Coordinate sums (lattice), logarithms (divisor) and sizes with a
    denominator (generators), all behind int keys; every window but the
    divisor k = 1 one has levels of several elements."""
    assert type(window[-1].key) is int
    if window.backend.kind == "rational-generators":
        assert window.backend.q > 1
    assert any(len(ix) > 1 for _, ix in window.levels) == (window.backend.k > 1)


def test_validate_tail_equals_tail_bound_and_the_element_loop():
    # at r near 8 the terms beyond n = 100 fall below one ulp of the
    # window sum, where its accumulation is clamped
    enum = dc.enumerate_semigroup(dc.OrdinaryDirichlet(2), size_bound=150)
    T = dc.ConvPolynomial((dc.constant(enum, -1), dc.indicator(enum, (2, 3), QC(1, 2)),
                           dc.unit(enum)))
    g = dc.solve(T, 1)
    for exact in (True, False):
        T_, g_ = (T, g) if exact else (T.to_double(), g.to_double())
        cert = certificate.certify(T_, 1)
        report = certificate.validate(cert, g_)
        want = certified_tail(g_, cert)
        assert bits(report.tail) == bits(want)
        s = (cert.r + 1, complex(cert.r + 2, 3))
        assert bits(series.tail_bound(g_, cert, s)) == bits(want)
        assert list(report.partial_sums) == level_partial_sums(g_, cert.r)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "double"])
def test_tail_bound_is_the_validation_tail(window, exact):
    """tail_bound reads validate's one weighted pass: the same float on
    divisor, lattice and generator windows, in both modes."""
    T = dc.ConvPolynomial((-dc.one(window), dc.constant(window, 0), dc.unit(window)))
    T = T if exact else T.to_double()
    cert = certificate.certify(T, 1)
    g = dc.solve(T, 1)
    want = certificate.validate(cert, g).tail
    for s in (cert.r, complex(cert.r + 2, 3), (cert.r + 1,) * window.backend.k):
        assert bits(series.tail_bound(g, cert, s)) == bits(want)
