"""Windows of different backends that are isomorphic as ordered
semigroups give the same decomposition tables, solutions, residuals and
inverses under the element map, exactly, and certificates that differ
only by the scaling of sizes."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dirconv as dc

from oracles import from_values, instance_with_anchor_roots, random_exact_function

Q = Fraction(2, 5)


def _pairs():
    """(lattice window, isomorphic window, map from its identities to the
    lattice's), for N0^2 ~ generators (1,0), (0,1) and N0 ~ generator (q,)."""
    lat2 = dc.enumerate_semigroup(dc.Lattice(2), size_bound=6)
    unit_gens = dc.enumerate_semigroup(
        dc.RationalGenerators((("1", "0"), ("0", "1"))), size_bound=6)
    lat1 = dc.enumerate_semigroup(dc.Lattice(1), size_bound=25)
    q_gen = dc.enumerate_semigroup(dc.RationalGenerators(((Q,),)), size_bound=Q * 25)
    return [
        (lat2, unit_gens, lambda ident: tuple(int(c) for c in ident)),
        (lat1, q_gen, lambda ident: (int(ident[0] / Q),)),
    ]


PAIRS = _pairs()


def _transfer(f, enum, to_source):
    """f carried to ``enum``: the value at x is f at to_source(x)."""
    return from_values(enum, [f(to_source(e.ident)) for e in enum])


def test_isomorphic_windows_have_equal_tables():
    for lat, other, to_lat in PAIRS:
        # the element map preserves the window order, so indices agree
        assert [to_lat(e.ident) for e in other] == [e.ident for e in lat]
        assert list(other.decomp) == list(lat.decomp)


def _random_roots(rng):
    r1 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    r2 = r1 + Fraction(rng.randint(1, 4), rng.randint(1, 2))
    return [r1, r2]


@settings(max_examples=10)
@given(st.integers(0, 2 ** 32 - 1))
def test_solve_residual_invert_commute_with_the_element_map(seed):
    rng = random.Random(seed)
    for lat, other, to_lat in PAIRS:
        roots = _random_roots(rng)
        T = instance_with_anchor_roots(lat, roots, rng)
        T2 = dc.ConvPolynomial(tuple(_transfer(c, other, to_lat) for c in T.coeffs))
        root = roots[rng.randrange(2)]
        assert dc.solve(T2, root).values == dc.solve(T, root).values
        h = random_exact_function(lat, rng)
        h2 = _transfer(h, other, to_lat)
        assert dc.residual(T2, h2).values == dc.residual(T, h).values
        u = random_exact_function(lat, rng, nonzero_at_zero=True)
        assert dc.invert(_transfer(u, other, to_lat)).values == dc.invert(u).values


def _three_smooth(n):
    """(a, b) with n = 2^a 3^b, or None."""
    a = b = 0
    while n % 2 == 0:
        n, a = n // 2, a + 1
    while n % 3 == 0:
        n, b = n // 3, b + 1
    return (a, b) if n == 1 else None


@settings(max_examples=10)
@given(st.integers(0, 2 ** 32 - 1))
def test_three_smooth_divisor_support_is_the_plane_lattice(seed):
    """{2^a 3^b} is closed under divisors, and n -> (a, b) is an
    isomorphism onto N0^2; coefficients supported there give the
    lattice solution at (a, b) and vanish elsewhere."""
    rng = random.Random(seed)
    div = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=200)
    lat = dc.enumerate_semigroup(dc.Lattice(2), size_bound=7)   # 2^8 > 200
    zero = Fraction(0)

    def to_div(f):
        return from_values(div, [
            f(ab) if (ab := _three_smooth(e.ident[0])) is not None else zero
            for e in div])

    def at_lattice(f):
        """f on the divisor window, read at the lattice points it holds."""
        return {ab: v for e, v in zip(div, f.values)
                if (ab := _three_smooth(e.ident[0])) is not None}

    def agrees(f_div, f_lat):
        read = at_lattice(f_div)
        return (all(read[ab] == f_lat(ab) for ab in read)
                and not any(v for e, v in zip(div, f_div.values)
                            if _three_smooth(e.ident[0]) is None))

    roots = _random_roots(rng)
    T = instance_with_anchor_roots(lat, roots, rng)
    T_div = dc.ConvPolynomial(tuple(to_div(c) for c in T.coeffs))
    root = roots[rng.randrange(2)]
    assert agrees(dc.solve(T_div, root), dc.solve(T, root))
    h = random_exact_function(lat, rng)
    assert agrees(dc.residual(T_div, to_div(h)), dc.residual(T, h))
    u = random_exact_function(lat, rng, nonzero_at_zero=True)
    assert agrees(dc.invert(to_div(u)), dc.invert(u))


@settings(max_examples=10)
@given(st.integers(0, 2 ** 32 - 1))
def test_certify_and_validate_scale_with_the_generator(seed):
    """Under N0 ~ generator (q,) every size is multiplied by q.  At
    rho = 0 the norms do not see sizes, so P, Q, t* and C agree, and the
    certified rate scales by 1/q; partial sums agree up to the outward
    rounding of the rates."""
    rng = random.Random(seed)
    lat, other, to_lat = PAIRS[1]
    roots = _random_roots(rng)
    T = instance_with_anchor_roots(lat, roots, rng)
    T2 = dc.ConvPolynomial(tuple(_transfer(c, other, to_lat) for c in T.coeffs))
    root = roots[rng.randrange(2)]
    c1, c2 = dc.certify(T, root), dc.certify(T2, root)
    assert (c2.P, c2.Q, c2.t_star, c2.C, c2.abs_z0) == (c1.P, c1.Q, c1.t_star, c1.C, c1.abs_z0)
    # the size keys count units of 1 and of 1/5: m1 = 1 and m1 = 2/5
    assert (c1.m1, c2.m1) == (1, 2)
    assert (lat.backend.size(c1.m1), other.backend.size(c2.m1)) == (1.0, float(Q))
    assert math.isclose(c2.r * float(Q), c1.r, rel_tol=1e-12)
    v1 = dc.validate(c1, dc.solve(T, root))
    v2 = dc.validate(c2, dc.solve(T2, root))
    assert v1.ok and v2.ok
    assert all(math.isclose(a, b, rel_tol=1e-12)
               for a, b in zip(v1.partial_sums, v2.partial_sums, strict=True))


@settings(max_examples=10)
@given(st.integers(0, 2 ** 32 - 1))
def test_one_axis_embedding_extends_by_zero(seed):
    """n -> (n, 0) embeds N0 in N0^2 as a divisor-closed subsemigroup;
    coefficients on that axis give the one-dimensional solution on it
    and 0 off it, and likewise residual and inverse."""
    rng = random.Random(seed)
    lat1 = dc.enumerate_semigroup(dc.Lattice(1), size_bound=12)
    lat2 = dc.enumerate_semigroup(dc.Lattice(2), size_bound=12)
    zero = Fraction(0)

    def embed(f):
        return from_values(lat2, [f((e.ident[0],)) if e.ident[1] == 0 else zero
                                     for e in lat2])

    roots = _random_roots(rng)
    T = instance_with_anchor_roots(lat1, roots, rng)
    T2 = dc.ConvPolynomial(tuple(embed(c) for c in T.coeffs))
    root = roots[rng.randrange(2)]
    assert dc.solve(T2, root) == embed(dc.solve(T, root))
    h = random_exact_function(lat1, rng)
    assert dc.residual(T2, embed(h)) == embed(dc.residual(T, h))
    u = random_exact_function(lat1, rng, nonzero_at_zero=True)
    assert dc.invert(embed(u)) == embed(dc.invert(u))
