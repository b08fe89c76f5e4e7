import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dirconv as dc
from dirconv import algebra
from dirconv.scalars import QC

from oracles import (DEFAULT_TOLERANCE, damp, divisor_count_brute, from_values,
                     level_partial_sums, r_norm_partial, random_exact_function,
                     sieve_mobius)


def small_values(n):
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=n, max_size=n)


# -- constructors and identities ---------------------------------------------

def test_unit_vector(od20):
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=4)
    assert dc.unit(e).values == (1, 0, 0, 0)


def test_unit_is_identity(od20):
    rng = random.Random(1)
    g = random_exact_function(od20, rng)
    u = dc.unit(od20)
    assert dc.convolve(u, g) == g
    assert dc.convolve(g, u) == g


def test_constructors_keep_their_value_types(od20):
    for exact, zero, one in ((True, Fraction(0), Fraction(1)), (False, 0.0, 1.0)):
        for f in (dc.unit(od20, exact), dc.indicator(od20, (1,), 1, exact),
                  dc.from_pairs(od20, [((1,), 1)], exact)):
            assert f.values == (one,) + (zero,) * (len(od20) - 1)
            assert {type(v) for v in f.values} == {type(zero)}


def test_invert_unit(od20):
    u = dc.unit(od20)
    assert dc.invert(u) == u


# -- convolution oracles -------------------------------------------------------

def test_one_convolved_one_is_divisor_count(od100):
    d = dc.convolve(dc.one(od100), dc.one(od100))
    assert d((6,)) == 4
    for n in range(1, 101):
        assert d((n,)) == divisor_count_brute(n)


def test_geometric_series_cauchy_product(lat8):
    ones = dc.one(lat8)
    sq = dc.convolve(ones, ones)
    assert list(sq.values) == [n + 1 for n in range(len(lat8))]


# -- point masses at 0 ---------------------------------------------------------

@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("c", [Fraction(-3, 4), QC(1, 2), 0])
def test_a_point_mass_at_zero_scales_the_other_operand(od20, monkeypatch, exact, c):
    """c * unit times g is g.scale(c) in both orders and both modes, and
    in exact mode it reads no table row through qdot."""
    calls = Counter()
    qdot = algebra.qdot
    monkeypatch.setattr(algebra, "qdot", lambda *a: calls.update(["qdot"]) or qdot(*a))
    g = random_exact_function(od20, random.Random(5))
    g = g if exact else g.to_double()
    mass = dc.unit(od20, exact).scale(c)
    assert dc.convolve(mass, g) == g.scale(c)
    assert dc.convolve(g, mass) == g.scale(c)
    assert not calls
    dc.convolve(g, g)
    assert calls["qdot"] == (len(od20) if exact else 0)


# -- inversion -----------------------------------------------------------------

@pytest.mark.parametrize("call, match", [
    (lambda enum: dc.TruncatedFunction(enum, [0] * (len(enum) - 1), True),
     "does not match the enumeration length"),
])
def test_malformed_algebra_calls_are_refused(od20, call, match):
    with pytest.raises(ValueError, match=match):
        call(od20)


def test_invert_one_is_mobius(od100):
    mu = dc.invert(dc.one(od100))
    oracle = sieve_mobius(100)
    for n in range(1, 101):
        assert mu((n,)) == oracle[n]


def test_invert_geometric(lat8):
    g = dc.from_pairs(lat8, [((0,), 1), ((1,), -1)])
    assert dc.invert(g) == dc.one(lat8)


def test_invert_requires_nonzero_at_zero(od20):
    g = dc.from_pairs(od20, [((2,), 1)])
    with pytest.raises(dc.NotInvertible):
        dc.invert(g)
    h = from_values(od20, [1e-14] * len(od20), exact=False)
    with pytest.raises(dc.NotInvertible):
        dc.invert(h)


@given(st.data())
def test_inverse_round_trip(data):
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=10)
    vals = data.draw(small_values(len(e)))
    if vals[0] == 0:
        vals[0] = Fraction(1)
    g = from_values(e, vals)
    inv = dc.invert(g)
    assert dc.convolve(g, inv) == dc.unit(e)
    assert dc.invert(inv) == g


# -- ring laws -------------------------------------------------------------------

@given(st.data())
def test_ring_laws_exact(data):
    e = dc.enumerate_semigroup(dc.Lattice(2), size_bound=3)
    n = len(e)
    g = from_values(e, data.draw(small_values(n)))
    h = from_values(e, data.draw(small_values(n)))
    f = from_values(e, data.draw(small_values(n)))
    assert dc.convolve(g, h) == dc.convolve(h, g)
    assert dc.convolve(dc.convolve(g, h), f) == dc.convolve(g, dc.convolve(h, f))
    assert dc.convolve(g, h + f) == dc.convolve(g, h) + dc.convolve(g, f)


def test_mode_coercion(od20):
    g = dc.one(od20)
    h = dc.one(od20, exact=False)
    out = dc.convolve(g, h)
    assert not out.exact
    assert out((4,)) == pytest.approx(3.0)


def test_backend_mismatch(od20, lat8):
    with pytest.raises(dc.BackendMismatch):
        dc.convolve(dc.one(od20), dc.one(lat8))


def test_equal_backends_give_compatible_windows():
    pairs = [
        (dc.enumerate_semigroup(
            dc.RationalGenerators((("1/2", "0"), ("0", "1/3"))), size_bound=3),
         dc.enumerate_semigroup(
            dc.RationalGenerators(((Fraction(1, 2), 0), (0, Fraction(1, 3)))),
            size_bound=Fraction(3))),
        (dc.enumerate_semigroup(dc.Lattice(2), size_bound=5),
         dc.enumerate_semigroup(dc.Lattice(2), size_bound=5)),
        (dc.enumerate_semigroup(dc.OrdinaryDirichlet(2), max_elements=30),
         dc.enumerate_semigroup(dc.OrdinaryDirichlet(2), max_elements=30)),
    ]
    for a, b in pairs:
        assert a is not b
        f, g = dc.one(a), dc.one(b)
        assert f == g and hash(f) == hash(g)
        assert dc.convolve(f, g) == dc.convolve(f, f)
    lat = dc.enumerate_semigroup(dc.Lattice(2), size_bound=30)
    div = dc.enumerate_semigroup(dc.OrdinaryDirichlet(2), size_bound=30)
    with pytest.raises(dc.BackendMismatch):
        dc.convolve(dc.one(lat), dc.one(div))


def test_double_mode_matches_exact(od20):
    rng = random.Random(3)
    g = random_exact_function(od20, rng)
    h = random_exact_function(od20, rng)
    exact = dc.convolve(g, h)
    approx = dc.convolve(g.to_double(), h.to_double())
    for a, b in zip(exact.values, approx.values):
        assert complex(b) == pytest.approx(complex(a), abs=1e-12)


# -- r-norm partial sums -----------------------------------------------------

def test_norm_partial_of_unit(od20):
    assert r_norm_partial(dc.unit(od20), 1.5) == 0.0


def test_norm_partial_counts_terms(od20):
    # S_0 up to the level of n = 3 counts n = 2, 3
    s = level_partial_sums(dc.one(od20), 0.0)[2]
    assert s >= 2.0
    assert s == pytest.approx(2.0, abs=1e-12)


def test_norm_partial_monotone_in_m(od20):
    rng = random.Random(4)
    g = random_exact_function(od20, rng)
    sums = level_partial_sums(g, 0.7)
    assert all(a <= b for a, b in zip(sums, sums[1:]))
    assert sums[-1] == r_norm_partial(g, 0.7)


def test_a_norm_in_Q_counts_the_zero_term(od20):
    # Q_j = ||a_j||_rho / |f'(z0)| sums over the whole window, x = 0 too: the
    # unit's norm is its value at 0, one's is its partial sum plus 1; f'(1) = 2
    T = dc.ConvPolynomial((-dc.one(od20), dc.constant(od20, 0), dc.unit(od20)))
    _, Q = dc.build_PQ(T, 1, Fraction(3, 10))
    without = r_norm_partial(dc.one(od20), Fraction(3, 10))
    assert Q[0] == pytest.approx((without + 1.0) / 2, rel=1e-12)
    assert Q[1] == 0.0
    assert Q[2] >= 0.5 and Q[2] == pytest.approx(0.5, rel=1e-12)


def test_norm_rescaling_identity(od20):
    # damping the values at rate r equals weighting the norm at rate r
    rng = random.Random(5)
    g = random_exact_function(od20, rng)
    r = 0.9
    lhs = r_norm_partial(g, r)
    rhs = r_norm_partial(damp(g, r), 0)
    assert rhs == pytest.approx(lhs, rel=1e-9)


def test_norm_partial_never_underreports(od20):
    # round-up discipline: the float result dominates the exact sum
    g = from_values(od20, [Fraction(1, 3)] * len(od20))
    s = r_norm_partial(g, 0)
    exact = Fraction(len(od20) - 1, 3)
    assert s >= float(exact)


def test_double_mode_inverse_round_trip(od20):
    rng = random.Random(6)
    g = random_exact_function(od20, rng, nonzero_at_zero=True).to_double()
    inv = dc.invert(g)
    back = dc.convolve(g, inv)
    u = dc.unit(od20, exact=False)
    assert max(abs(a - b) for a, b in zip(back.values, u.values)) <= DEFAULT_TOLERANCE


def test_invert_one_on_two_dimensional_divisor_semigroup():
    # the inverse of the all-ones function factors across coordinates
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(2), size_bound=30)
    mu2 = dc.invert(dc.one(e))
    mu = sieve_mobius(30)
    for i, el in enumerate(e):
        n1, n2 = el.ident
        assert mu2.values[i] == mu[n1] * mu[n2]


def test_max_abs_reports_nan_wherever_it_stands():
    enum = dc.enumerate_semigroup(dc.Lattice(1), size_bound=3)
    for values in ([1.0, math.nan, 2.0, 0.0], [math.nan, 5.0, 0.0, 1.0],
                   [3.0, 1.0, 0.0, complex(0.0, math.nan)]):
        assert math.isnan(dc.TruncatedFunction(enum, values, False).max_abs())
    assert dc.TruncatedFunction(enum, [1.0, -4.0, math.inf, 0.0], False).max_abs() == math.inf
    assert 4.0 <= dc.TruncatedFunction(enum, [1.0, -4.0, 2.0, 0.0], False).max_abs() < 4.0001
