import random
from collections import Counter
from fractions import Fraction

import pytest

import dirconv as dc
from dirconv import algebra, roots, solver
from dirconv.roots import find_roots
from dirconv.scalars import QC, exact_value

from oracles import (DEFAULT_TOLERANCE, binom_half, factorization_check,
                     from_values, instance_with_anchor_roots,
                     random_exact_function, residual_fractions)


def sqrt_one_equation(enum, exact=True):
    """g * g = one as a degree-2 instance."""
    return dc.ConvPolynomial((
        -dc.one(enum, exact), dc.constant(enum, 0, exact), dc.unit(enum, exact)))


# -- anchor polynomial ---------------------------------------------------------

def test_anchor_roots_quadratic(od20):
    rep = dc.initial_polynomial(sqrt_one_equation(od20))
    assert rep.degree == 2
    assert [(r.value, r.simple) for r in rep.roots] == [(-1, True), (1, True)]


def test_anchor_double_root(od20):
    a = dc.from_pairs(od20, [((2,), 1)])
    T = dc.ConvPolynomial((-a, dc.constant(od20, 0), dc.unit(od20)))
    rep = dc.initial_polynomial(T)
    assert len(rep.roots) == 1
    assert rep.roots[0].value == 0
    assert rep.roots[0].multiplicity == 2
    assert not rep.roots[0].simple


def test_anchor_linear(od20):
    a0 = dc.from_pairs(od20, [((1,), Fraction(3, 2)), ((5,), 7)])
    T = dc.ConvPolynomial((a0, dc.unit(od20)))
    rep = dc.initial_polynomial(T)
    assert rep.degree == 1
    assert rep.roots[0].value == Fraction(-3, 2)
    assert rep.roots[0].simple


def test_anchor_gaussian_roots(od20):
    # z^2 + 1 factors over the Gaussian rationals
    T = dc.ConvPolynomial((dc.one(od20), dc.constant(od20, 0), dc.unit(od20)))
    rep = dc.initial_polynomial(T)
    vals = sorted(complex(r.value).imag for r in rep.roots)
    assert vals == [-1.0, 1.0]
    assert all(r.exact and r.simple for r in rep.roots)


def _from_roots(roots):
    """prod (z - r) as exact coefficients, constant term first."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return [exact_value(c) for c in coeffs]


@pytest.mark.parametrize("roots", [
    [QC(2, 1), QC(-2, -1)],                      # z^2 - (3+4i): a non-real sqrt
    [QC(1, 1), Fraction(3)],                     # complex coefficients, disc 3-4i
    [Fraction(1, 2), Fraction(-3), QC(1, 2), QC(1, -2)],
    [Fraction(1, 3), Fraction(1, 3), Fraction(-2), Fraction(5, 2)],
    [QC(0, Fraction(1, 2))],
    [Fraction(-7, 4), Fraction(-7, 4)],
])
def test_exact_roots_come_back_exactly(roots):
    got = find_roots(_from_roots(roots), True)
    assert all(r.exact for r in got)
    want = Counter(exact_value(r) for r in roots)
    assert {r.value: r.multiplicity for r in got} == want
    assert [r.simple for r in got] == [want[r.value] == 1 for r in got]


def test_anchor_degenerate_constant(od20):
    a0 = dc.one(od20)
    a1 = dc.from_pairs(od20, [((2,), 1)])  # a_1(0) = 0
    with pytest.raises(dc.DegenerateConstant):
        dc.initial_polynomial(dc.ConvPolynomial((a0, a1)))


def test_anchor_zero_polynomial(od20):
    a0 = dc.from_pairs(od20, [((2,), 1)])
    a1 = dc.from_pairs(od20, [((3,), 1)])
    with pytest.raises(dc.ZeroPolynomial):
        dc.initial_polynomial(dc.ConvPolynomial((a0, a1)))


def test_anchor_degree_drops_when_leading_vanishes_at_zero(od20):
    a2 = dc.from_pairs(od20, [((2,), 1)])           # a_2(0) = 0
    a1 = dc.unit(od20)
    a0 = dc.constant(od20, -1)
    rep = dc.initial_polynomial(dc.ConvPolynomial((a0, a1, a2)))
    assert rep.degree == 1
    assert rep.roots[0].value == 1


# -- solve ---------------------------------------------------------------------

def test_solve_sqrt_zeta_prefix(od20):
    g = dc.solve(sqrt_one_equation(od20), 1)
    assert [g((n,)) for n in (1, 2, 3, 4)] == [1, Fraction(1, 2),
                                               Fraction(1, 2), Fraction(3, 8)]


def test_solve_binomial_series():
    e = dc.enumerate_semigroup(dc.Lattice(1), size_bound=30)
    a0 = dc.from_pairs(e, [((0,), -1), ((1,), -1)])
    T = dc.ConvPolynomial((a0, dc.constant(e, 0), dc.unit(e)))
    g = dc.solve(T, 1)
    assert list(g.values[:5]) == [1, Fraction(1, 2), Fraction(-1, 8),
                                  Fraction(1, 16), Fraction(-5, 128)]
    for n in range(len(e)):
        assert g.values[n] == binom_half(n)


def test_solve_linear_is_negated_constant(od20):
    rng = random.Random(11)
    a0 = random_exact_function(od20, rng)
    T = dc.ConvPolynomial((a0, dc.unit(od20)))
    g = dc.solve(T, -a0.values[0])
    assert g == -a0
    assert dc.residual(T, g).is_zero()


def test_solve_degree_one_consistent_with_invert(od20):
    rng = random.Random(12)
    a1 = random_exact_function(od20, rng, nonzero_at_zero=True)
    T = dc.ConvPolynomial((-dc.unit(od20), a1))
    g = dc.solve(T, 1 / a1.values[0])
    assert g == dc.invert(a1)


def test_solve_rejects_non_roots(od20):
    T = sqrt_one_equation(od20)
    with pytest.raises(dc.NotASimpleRoot):
        dc.solve(T, 2)
    a = dc.from_pairs(od20, [((2,), 1)])
    T2 = dc.ConvPolynomial((-a, dc.constant(od20, 0), dc.unit(od20)))
    with pytest.raises(dc.NotASimpleRoot):
        dc.solve(T2, 0)  # double root


def test_solve_anchoring_and_determinism(od20):
    T = sqrt_one_equation(od20)
    g1 = dc.solve(T, 1)
    g2 = dc.solve(T, 1)
    assert g1.values == g2.values
    assert g1((1,)) == 1
    h = dc.solve(T, -1)
    assert h((1,)) == -1
    assert h.values != g1.values


def test_solve_double_mode(od20):
    T = sqrt_one_equation(od20).to_double()
    g = dc.solve(T, 1.0)
    assert g((4,)) == pytest.approx(0.375)
    res = dc.residual(T, g)
    assert res.max_abs() < 1e-12


# -- solve_all -------------------------------------------------------------------

def test_solve_all_pair_of_square_roots(od20):
    result = dc.solve_all(sqrt_one_equation(od20))
    assert len(result) == 2
    (r1, g1), (r2, g2) = result.solutions
    assert {r1.value, r2.value} == {1, -1}
    assert g1 == -g2
    assert len(result.skipped) == 0


def test_solve_all_unsolvable_obstruction(od20):
    a = dc.from_pairs(od20, [((2,), Fraction(5))])
    T = dc.ConvPolynomial((-a, dc.constant(od20, 0), dc.unit(od20)))
    with pytest.raises(dc.NoSimpleRoots) as info:
        dc.solve_all(T)
    exc = info.value
    assert exc.proven_unsolvable
    ob = exc.obstructions[0]
    assert ob.q.ident == (2,)
    assert ob.value == -5


def test_solve_all_cubic_with_prescribed_roots(od20):
    # f(z) = z(z-1)(z-2) = 2z - 3z^2 + z^3
    rng = random.Random(13)
    def with_zero_value(v):
        f = random_exact_function(od20, rng)
        return from_values(od20, (v,) + f.values[1:])
    T = dc.ConvPolynomial((
        with_zero_value(Fraction(0)), with_zero_value(Fraction(2)),
        with_zero_value(Fraction(-3)), with_zero_value(Fraction(1))))
    result = dc.solve_all(T)
    assert sorted(r.value for r, _ in result) == [0, 1, 2]
    for root, g in result:
        assert g((1,)) == root.value
        assert dc.residual(T, g).is_zero()
    assert len(result) <= T.degree


def test_solve_all_skips_non_simple(od20):
    # f(z) = z^2 (z - 1): simple root 1, double root 0
    zero_f = dc.constant(od20, 0)
    T = dc.ConvPolynomial((
        zero_f, zero_f, -dc.one(od20), dc.unit(od20)))
    result = dc.solve_all(T)
    assert [r.value for r, _ in result.solutions] == [1]
    assert len(result.skipped) == 1
    assert result.skipped[0][0].multiplicity == 2


# -- residual --------------------------------------------------------------------

def test_residual_detects_perturbation(od20):
    T = sqrt_one_equation(od20)
    g = dc.solve(T, 1)
    assert dc.residual(T, g).is_zero()
    k = 7
    bad_vals = list(g.values)
    bad_vals[k] = bad_vals[k] + Fraction(1, 97)
    bad = from_values(od20, bad_vals)
    assert not dc.residual(T, bad).is_zero()


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_a_degree_d_residual_makes_d_convolutions(od20, monkeypatch, exact, d):
    """Horner: d products with g, the first a scale of g by the unit in a_d."""
    rng = random.Random(d)
    coeffs = [random_exact_function(od20, rng) for _ in range(d)] + [dc.unit(od20)]
    T = dc.ConvPolynomial(tuple(coeffs))
    T = T if exact else T.to_double()
    g = random_exact_function(od20, rng)
    g = g if exact else g.to_double()
    calls = Counter()
    convolve, qdot = solver.convolve, algebra.qdot
    monkeypatch.setattr(solver, "convolve", lambda *a: calls.update(["convolve"]) or convolve(*a))
    monkeypatch.setattr(algebra, "qdot", lambda *a: calls.update(["qdot"]) or qdot(*a))
    res = dc.residual(T, g)
    assert calls["convolve"] == d
    assert calls["qdot"] == ((d - 1) * len(od20) if exact else 0)
    if exact:
        assert res.values == residual_fractions(T, g).values


# -- factorization ----------------------------------------------------------------

def test_factorization_quadratic(od20):
    T = sqrt_one_equation(od20)
    sols = [g for _, g in dc.solve_all(T)]
    ok, dev = factorization_check(T, sols)
    assert ok and dev == 0.0


def test_factorization_linear(od20):
    rng = random.Random(14)
    a1 = random_exact_function(od20, rng, nonzero_at_zero=True)
    a0 = random_exact_function(od20, rng)
    if a0.values[0] == 0:
        a0 = a0 + dc.unit(od20)
    T = dc.ConvPolynomial((a0, a1))
    sols = [g for _, g in dc.solve_all(T)]
    ok, dev = factorization_check(T, sols)
    assert ok and dev == 0.0


def test_factorization_check_in_double_mode(od20):
    T = sqrt_one_equation(od20, exact=False)
    sols = [g for _, g in dc.solve_all(T)]
    assert factorization_check(T, sols)[0]
    bad = list(sols[0].values)
    bad[3] += 1e-6
    ok, worst = factorization_check(T, [from_values(od20, bad, False), sols[1]])
    assert not ok and worst > DEFAULT_TOLERANCE


def test_factorization_precondition(od20):
    a = dc.from_pairs(od20, [((2,), 1)])
    T = dc.ConvPolynomial((-a, dc.constant(od20, 0), dc.unit(od20)))
    with pytest.raises(dc.PreconditionFailed):
        factorization_check(T, [dc.one(od20), dc.one(od20)])


# -- systems ---------------------------------------------------------------------

def test_system_m1_matches_solve(od20):
    for exact in (True, False):
        T = sqrt_one_equation(od20, exact)
        g = dc.solve(T, 1)
        S = dc.PolySystem(1, ((dc.Monomial(-dc.one(od20, exact), (0,)),
                               dc.Monomial(dc.unit(od20, exact), (2,))),), (1,))
        h, = dc.solve_system(S)
        if exact:
            assert h == g
        else:
            scale = g.max_abs()
            assert all(abs(a - b) <= 1e-12 * scale
                       for a, b in zip(h.values, g.values))


@pytest.mark.parametrize("mode", [True, False, "QC+double", "Fraction+double"])
def test_an_equation_is_its_one_unknown_system(od20, mode):
    # one sweep and one gate: the same values, bit for bit, in both modes
    # (True is exact); exact coefficients that meet a double a_0 run in
    # doubles, in a system as in an equation, so a mixed system gives the
    # all-double system's floats
    bits = lambda f: [repr(v) for v in f.values]   # repr tells -0.0 from 0.0
    for z0 in (Fraction(1, 2), Fraction(1, 3)):
        T = instance_with_anchor_roots(od20, [z0, 2, -1], random.Random(15))
        coeffs = [c.scale(QC(0, 1)) if mode == "QC+double" else c for c in T.coeffs]
        if mode is not True:
            coeffs = [c.to_double() if j == 0 or mode is False else c
                      for j, c in enumerate(coeffs)]
        terms = [dc.Monomial(c, (j,)) for j, c in enumerate(coeffs)]
        S = dc.PolySystem(1, [terms], (z0 if mode is True else float(z0),))
        T = dc.ConvPolynomial(tuple(coeffs))
        g = dc.solve(T, S.z0[0])
        assert dc.residual(T, g).values == dc.system_residual(S, [g])[0].values
        h, = dc.solve_system(S)
        assert bits(h) == bits(g)
        if mode is not True:
            doubles = [dc.Monomial(t.coeff.to_double(), t.exponents) for t in terms]
            assert bits(dc.solve_system(dc.PolySystem(1, [doubles], S.z0))[0]) == bits(g)
            assert mode == "QC+double" or all(type(v) is float for v in g.values)


@pytest.mark.parametrize("exact, g0, invertible", [
    (True, Fraction(3, 7), True), (False, Fraction(3, 7), True),
    (True, QC(1, -2), True), (False, QC(1, -2), True), (True, Fraction(1, 10**7), True),
    (True, 0, False), (False, 0, False), (False, 1e-7, False),
    (False, float("nan"), False), (False, float("inf"), False)])
def test_invert_is_the_degree_one_solve(od20, exact, g0, invertible):
    rest = random_exact_function(od20, random.Random(16)).values[1:]
    g = from_values(od20, (g0,) + rest, exact)
    T = dc.ConvPolynomial((-dc.unit(od20, exact), g))
    v0 = g.values[0]
    z0 = 1 / v0 if v0 else v0
    if not invertible:
        with pytest.raises(dc.NotInvertible):
            dc.invert(g)
        with pytest.raises(dc.NotASimpleRoot):
            dc.solve(T, z0)
        return
    h, s = dc.invert(g), dc.solve(T, z0)
    assert h.values == s.values
    if not exact:   # == does not see the sign of a zero
        bits = lambda f: [(v.real.hex(), v.imag.hex()) for v in f.values]
        assert bits(h) == bits(s)


@pytest.mark.parametrize("window", ["lat2", "gens23"])
def test_system_shared_factor_prefixes(window, request):
    # g1*g2*g3, g1*g2 and g1*g1 share factor prefixes; with an invertible
    # Jacobian at (1, 1, 1) an exactly vanishing residual fixes the solution
    enum = request.getfixturevalue(window)
    rng = random.Random(27)

    def coeff(at_zero):
        r = random_exact_function(enum, rng)
        return from_values(enum, (Fraction(at_zero),) + r.values[1:])

    S = dc.PolySystem(3, (
        (dc.Monomial(coeff(1), (1, 1, 1)), dc.Monomial(coeff(1), (1, 1, 0)),
         dc.Monomial(coeff(-2), (0, 0, 0))),
        (dc.Monomial(coeff(1), (2, 0, 0)), dc.Monomial(coeff(-1), (0, 0, 1)),
         dc.Monomial(coeff(0), (0, 0, 0))),
        (dc.Monomial(coeff(1), (0, 0, 1)), dc.Monomial(coeff(1), (1, 1, 0)),
         dc.Monomial(coeff(-2), (0, 0, 0)))), (1, 1, 1))
    gs = dc.solve_system(S)
    assert all(g.exact and g.values[0] == 1 for g in gs)
    assert not all(g == dc.constant(enum, 1) for g in gs)
    for res in dc.system_residual(S, gs):
        assert res.is_zero()


def test_system_coupled_pair(od20):
    u, ones = dc.unit(od20), dc.one(od20)
    S = dc.PolySystem(2, (
        (dc.Monomial(u, (1, 1)), dc.Monomial(-ones, (0, 0))),
        (dc.Monomial(u, (1, 0)), dc.Monomial(-u, (0, 1)))), (1, 1))
    g1, g2 = dc.solve_system(S)
    assert g1 == g2 == dc.solve(sqrt_one_equation(od20), 1)
    for res in dc.system_residual(S, (g1, g2)):
        assert res.is_zero()


def test_system_decoupled_linear(od20):
    rng = random.Random(15)
    a = random_exact_function(od20, rng)
    b = random_exact_function(od20, rng)
    a = from_values(od20, (Fraction(0),) + a.values[1:])
    b = from_values(od20, (Fraction(0),) + b.values[1:])
    u = dc.unit(od20)
    S = dc.PolySystem(2, (
        (dc.Monomial(u, (1, 0)), dc.Monomial(a, (0, 0))),
        (dc.Monomial(u, (0, 1)), dc.Monomial(b, (0, 0)))), (0, 0))
    g1, g2 = dc.solve_system(S)
    assert g1 == -a and g2 == -b


def test_system_singular_jacobian(od20):
    u = dc.unit(od20)
    S = dc.PolySystem(2, (
        (dc.Monomial(u, (1, 0)), dc.Monomial(u, (0, 1))),
        (dc.Monomial(u, (1, 0)), dc.Monomial(u, (0, 1)))), (0, 0))
    with pytest.raises(dc.NotASimpleRoot, match="not simple"):
        dc.solve_system(S)


def test_system_inconsistent_base_point(od20):
    u = dc.unit(od20)
    S = dc.PolySystem(1, ((dc.Monomial(u, (1,)), dc.Monomial(u, (0,))),), (0,))
    with pytest.raises(dc.NotASimpleRoot, match="not a root"):
        dc.solve_system(S)


def test_system_degree_guard(od20):
    u = dc.unit(od20)
    S = dc.PolySystem(1, ((dc.Monomial(u, (9,)),),), (0,))
    with pytest.raises(dc.PreconditionFailed):
        dc.solve_system(S)


def _unit_system(enum, m, eqs=None):
    """g_l - unit(0) = 0 for l < m, as ``eqs`` equations (m by default)."""
    u = dc.unit(enum)
    return dc.PolySystem(m, [[dc.Monomial(u, tuple(int(i == l) for i in range(m)))]
                             for l in range(m if eqs is None else eqs)], (0,) * m)


@pytest.mark.parametrize("call, error, match", [
    (lambda enum: factorization_check(sqrt_one_equation(enum), [dc.one(enum)]),
     dc.PreconditionFailed, "need 2 solutions, got 1"),
    (lambda enum: _unit_system(enum, 2, eqs=1), ValueError, "need m equations"),
    (lambda enum: dc.PolySystem(1, [[dc.Monomial(dc.unit(enum), (1, 0))]], (0,)),
     ValueError, "exponent vectors must have length m"),
    (lambda enum: dc.solve_system(_unit_system(enum, solver.MAX_UNKNOWNS + 1)),
     dc.PreconditionFailed, "9 unknowns; limit 8"),
])
def test_malformed_solver_calls_are_refused(od20, call, error, match):
    with pytest.raises(error, match=match):
        call(od20)


# -- exact instances with irrational anchors ---------------------------------

def test_solve_all_falls_back_to_double_for_irrational_roots(od20):
    # anchor polynomial z^2 - 2: simple roots, not representable exactly
    T = dc.ConvPolynomial((
        dc.constant(od20, -2), dc.constant(od20, 0), dc.unit(od20)))
    result = dc.solve_all(T)
    assert len(result) == 2
    for root, g in result:
        assert not root.exact
        assert not g.exact
        assert abs(complex(root.value)) == pytest.approx(2 ** 0.5, rel=1e-12)
        assert dc.residual(T.to_double(), g).max_abs() < 1e-10


def _exact_points(monkeypatch):
    """The rational points at which ``roots.rational_roots`` tests a candidate."""
    points, poly_eval = [], roots.poly_eval
    monkeypatch.setattr(roots, "poly_eval", lambda c, z: (
        points.append(z) if type(z) is Fraction else None) or poly_eval(c, z))
    return points


def test_the_rational_root_search_tries_only_the_rounded_roots(od20, monkeypatch):
    # (z - 1)(z - 2)(z - 3): the divisor candidates would be +-1, +-2, +-3, +-6
    points = _exact_points(monkeypatch)
    f = [Fraction(c) for c in (-6, 11, -6, 1)]
    assert roots.rational_roots(f) == ([1, 2, 3], [1])
    assert set(points) == {1, 2, 3}
    T = dc.ConvPolynomial(tuple(dc.constant(od20, c) for c in f[:-1]) + (dc.unit(od20),))
    assert [(r.value, r.exact, r.simple) for r, _ in dc.solve_all(T)] == [
        (1, True, True), (2, True, True), (3, True, True)]


def test_close_rational_roots_stay_exact_and_simple(od20, monkeypatch):
    """(A z - B)(A z - B - 1)(z + 1) with A = 720720, B = A + 1: two roots
    1/A apart, far inside tau_root of the coefficients (about 5e3).  The
    leading term A^2 has 3645 divisors and the constant term 32, so the
    full divisor search would try 233,280 quotients; the rounded roots
    are tried over the 3645 denominators only."""
    A, B = 720720, 720721
    f = [Fraction(c) for c in (B * (B + 1), B * (B + 1) - A * (2 * B + 1),
                               A * A - A * (2 * B + 1), A * A)]
    want = [Fraction(-1), Fraction(B, A), Fraction(B + 1, A)]
    points = _exact_points(monkeypatch)
    assert roots.rational_roots(f)[0] == want
    assert len(points) <= 3 * 3645
    assert [(r.value, r.exact, r.simple) for r in find_roots(f, True)] == [
        (w, True, True) for w in want]


def test_leading_coefficient_must_not_vanish(od20):
    zero_f = dc.constant(od20, 0)
    with pytest.raises(ValueError):
        dc.ConvPolynomial((dc.one(od20), zero_f))


def test_degree_zero_rejected(od20):
    with pytest.raises(ValueError):
        dc.ConvPolynomial((dc.one(od20),))


def test_solve_with_vanishing_leading_value(od20):
    # a_2(0) = 0 drops the anchor degree to 1; the sweep still divides by
    # the full derivative sum, which equals a_1(0) here
    a2 = dc.indicator(od20, (3,), Fraction(1, 2))
    T = dc.ConvPolynomial((-dc.one(od20), dc.unit(od20), a2))
    rep = dc.initial_polynomial(T)
    assert rep.degree == 1 and rep.roots[0].value == 1
    g = dc.solve(T, 1)
    assert dc.residual(T, g).is_zero()
    assert g((1,)) == 1


def test_solve_matches_literal_recursion():
    # the incremental power bookkeeping must agree with the naive nested
    # sum over all decompositions, term by term and exactly
    from oracles import literal_solve
    rng = random.Random(31415)
    windows = [
        dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=8),
        dc.enumerate_semigroup(dc.Lattice(2), size_bound=2),
        dc.enumerate_semigroup(dc.RationalGenerators((("2",), ("3",))),
                               size_bound=7),
    ]
    for trial in range(9):
        enum = windows[trial % len(windows)]
        d = 1 + trial % 3
        roots = rng.sample((-2, -1, 1, 2), d)
        T = instance_with_anchor_roots(enum, roots, rng)
        z0 = Fraction(roots[trial % d])
        fast = dc.solve(T, z0)
        naive = literal_solve(T, z0)
        assert fast == naive
