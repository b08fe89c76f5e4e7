"""One anchor gate: an equation and its one-unknown system get one verdict.

``solve`` judges f(z0) and f'(z0) from Horner's rule and ``solve_system``
judges F(z0) and J from its prefix tree, but both hand them to
``roots.anchor_gate``.  Base points placed 1% on either side of each
double-mode gate must be refused (or solved) by both, and the two
refusals, "not a root" and "not simple", must stay apart.  ``invert``
is the degree-1 equation g * h - unit = 0 behind the same gate, and
``find_roots`` flags a root simple through the gate's simplicity test.
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dirconv as dc
import dirconv.cli  # noqa: F401  (the tracer wraps cli attributes too)
from dirconv.roots import poly_derivative, poly_eval, tau_root, tau_simple

from oracles import from_values, instance_with_anchor_roots, random_exact_function

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

NOT_A_ROOT, NOT_SIMPLE, SOLVED = "not a root", "not simple", None

#: placement -> (f(z0) in units of tau_root, f'(z0) in units of tau_simple,
#: or None for an O(1) slope), and the verdict in exact and in double mode
PLACEMENTS = {
    "root-inside": (Fraction(99, 100), None, NOT_A_ROOT, SOLVED),
    "root-outside": (Fraction(101, 100), None, NOT_A_ROOT, NOT_A_ROOT),
    "simple-inside": (0, Fraction(101, 100), SOLVED, SOLVED),
    "simple-outside": (0, Fraction(99, 100), SOLVED, NOT_SIMPLE),
    "double-root": (0, 0, NOT_SIMPLE, NOT_SIMPLE),
}


def _taus(a):
    return Fraction(tau_root(a)), Fraction(tau_simple(a))


def _anchor_values(d, f_units, fp_units, rng):
    """(a_0(0), ..., a_d(0)) and z0 with f(z0) = f_units * tau_root and
    f'(z0) = fp_units * tau_simple, both gates taken over these values."""
    if d == 1 and fp_units:
        # |f'| = |a_1| against 1e-6 |a_0| = 1e-6 |a_1 z0|: the slope sits at
        # fp_units * tau_simple exactly when |z0| = 10**6 / fp_units
        a1 = Fraction(rng.choice((-3, -2, 2, 3)), 2)
        z0 = rng.choice((-1, 1)) * 10**6 / fp_units
        return [-a1 * z0, a1], z0
    z0 = Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), 4)
    a = [Fraction(0), Fraction(0)] + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                                      for _ in range(d - 1)]
    slope = Fraction(rng.choice((-2, -1, 1, 2)))
    for _ in range(6):   # the gates move by 1e-6 of a change in a_0, a_1
        t_root, t_simple = _taus(a)
        fp = slope if fp_units is None else fp_units * t_simple
        a[1] = fp - sum(j * a[j] * z0 ** (j - 1) for j in range(2, d + 1))
        a[0] = f_units * t_root - sum(a[j] * z0 ** j for j in range(1, d + 1))
    return a, z0


def _equation(enum, a, rng):
    return dc.ConvPolynomial(tuple(
        from_values(enum, (c,) + random_exact_function(enum, rng, span=2).values[1:])
        for c in a))


def _one_unknown_system(T, z0):
    return dc.PolySystem(1, T.equations, (z0,))


def _close(got, want):
    scale = max(abs(v) for v in want.values)
    assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= 1e-12 * scale


@pytest.mark.parametrize("window", ["od20", "lat2"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_solve_and_the_one_unknown_system_give_one_verdict(window, d, placement, request):
    enum = request.getfixturevalue(window)
    f_units, fp_units, *verdicts = PLACEMENTS[placement]
    rng = random.Random(f"{window}-{d}-{placement}")
    a, z0 = _anchor_values(d, f_units, fp_units, rng)
    exact_T = _equation(enum, a, rng)
    for exact, verdict in zip((True, False), verdicts):
        T = exact_T if exact else exact_T.to_double()
        if not exact:
            # the placement holds for the rounded coefficients too
            f = [complex(c) for c in T.anchor_coeffs()]
            z = complex(z0)
            assert abs(poly_eval(f, z)) / tau_root(f) == pytest.approx(f_units, abs=1e-3)
            if fp_units:
                assert (abs(poly_eval(poly_derivative(f), z)) / tau_simple(f)
                        == pytest.approx(fp_units, abs=1e-3))
        S = _one_unknown_system(T, z0)
        if verdict is SOLVED:
            g, (h,) = dc.solve(T, z0), dc.solve_system(S)
            if exact:
                assert g == h
            else:
                _close(h, g)
            continue
        with pytest.raises(dc.NotASimpleRoot, match=verdict):
            dc.solve(T, z0)
        with pytest.raises(dc.NotASimpleRoot, match=verdict):
            dc.solve_system(S)


def test_a_root_within_the_root_gate_solves_as_equation_and_as_system():
    # g*g - 1 = 0 at z0 = 1 + 1e-9: |f(z0)| = 2e-9 lies inside tau_root = 2e-8
    enum = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=30)
    T = dc.ConvPolynomial((-dc.one(enum, False), dc.constant(enum, 0, False),
                           dc.unit(enum, False)))
    g, (h,) = dc.solve(T, 1 + 1e-9), dc.solve_system(_one_unknown_system(T, 1 + 1e-9))
    assert g((2,)) == pytest.approx(0.4999999995, rel=1e-12)
    _close(h, g)


@pytest.mark.parametrize("z0", [float("nan"), complex(1, float("nan"))])
def test_a_nan_base_point_is_not_a_root(od20, z0):
    # |f(z0)| <= tau_root is False for NaN, so the gate refuses it
    T = dc.ConvPolynomial((-dc.one(od20, False), dc.constant(od20, 0, False),
                           dc.unit(od20, False)))
    with pytest.raises(dc.NotASimpleRoot, match="not a root"):
        dc.solve(T, z0)
    with pytest.raises(dc.NotASimpleRoot, match="not a root"):
        dc.solve_system(_one_unknown_system(T, z0))


@pytest.mark.parametrize("swap", [False, True])
def test_system_coefficients_must_share_one_window(swap):
    divisors = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=12)
    lattice = dc.enumerate_semigroup(dc.Lattice(1), size_bound=30)
    first, second = (lattice, divisors) if swap else (divisors, lattice)
    with pytest.raises(dc.BackendMismatch):
        dc.PolySystem(1, ((dc.Monomial(dc.unit(first), (2,)),
                           dc.Monomial(-dc.one(second), (0,))),), (1,))


def test_each_solve_is_one_sweep_span(od20):
    # perfbench counts solver.solve and solver.solve_system spans as
    # sweeps; neither function may run under the other's span
    T = dc.ConvPolynomial((-dc.one(od20), dc.constant(od20, 0), dc.unit(od20)))
    tracer = spans.Tracer(dc)
    tracer.install()
    try:
        dc.solver.solve(T, 1)
        dc.solver.solve_system(_one_unknown_system(T, 1))
    finally:
        tracer.uninstall()
    solves = [s for s in tracer.spans if s["name"].startswith("solver.solve")]
    assert [s["name"] for s in solves] == ["solver.solve", "solver.solve_system"]
    assert all(s["parent"] is None for s in solves)


# -- invert is the degree-1 equation g * h - unit = 0 ----------------------------

#: g(0) in units of the double-mode simplicity gate |g(0)| > 1e-6, and the
#: verdict in exact and in double mode
INVERT_PLACEMENTS = {
    "simple-inside": (Fraction(101, 100), SOLVED, SOLVED),
    "simple-outside": (Fraction(99, 100), SOLVED, NOT_SIMPLE),
}
PHASES = {"1": dc.QC(1), "-1": dc.QC(-1), "(3+4i)/5": dc.QC(Fraction(3, 5), Fraction(4, 5))}


def _bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("window", ["od20", "lat2"])
@pytest.mark.parametrize("phase", sorted(PHASES))
@pytest.mark.parametrize("placement", sorted(INVERT_PLACEMENTS))
def test_invert_and_the_degree_one_solve_give_one_verdict(window, phase, placement,
                                                         request):
    enum = request.getfixturevalue(window)
    units, *verdicts = INVERT_PLACEMENTS[placement]
    rng = random.Random(f"{window}-{phase}-{placement}")
    g0 = dc.scalars.exact_value(PHASES[phase] * units / 10**6)
    exact_g = from_values(enum, (g0,) + random_exact_function(enum, rng).values[1:])
    for exact, verdict in zip((True, False), verdicts):
        g = exact_g if exact else exact_g.to_double()
        T = dc.ConvPolynomial((-dc.unit(enum, exact), g))
        z0 = 1 / g.values[0]
        if verdict is SOLVED:
            h, s = dc.invert(g), dc.solve(T, z0)
            assert h.values == s.values
            if not exact:
                assert _bits(h.values) == _bits(s.values)
            continue
        with pytest.raises(dc.NotInvertible, match=verdict):
            dc.invert(g)
        with pytest.raises(dc.NotASimpleRoot, match=verdict):
            dc.solve(T, z0)


@pytest.mark.parametrize("g0", [Fraction(0), 0.0, float("nan"), float("inf"),
                                complex(1, float("nan")), complex(float("-inf"), 1)])
def test_invert_refuses_a_zero_or_non_finite_value_at_0(od20, g0):
    exact = isinstance(g0, Fraction)
    g = from_values(od20, [g0] + [1] * (len(od20) - 1), exact=exact)
    with pytest.raises(dc.NotInvertible, match="no convolution inverse"):
        dc.invert(g)


# -- find_roots flags a root simple through the gate's simplicity test -----------


def _gate_accepts(T, z):
    try:
        T.anchor(z)
    except dc.NotASimpleRoot:
        return False
    return True


def _near_pair(enum, d, units, rng):
    """Roots of a degree-d anchor polynomial: a pair z, z + delta with
    |f'(z)| at ``units`` times the double-mode simplicity gate, the rest
    from a small set that may repeat z or hold 0.  ``rng`` is left where
    the lead of :func:`instance_with_anchor_roots` is drawn, so the
    caller's instance has the anchor values the placement was made for."""
    z = Fraction(rng.choice((-3, -1, 1, 3)), 2)
    rest = [rng.choice((0, z, Fraction(-5, 2), Fraction(1, 3), 2)) for _ in range(d - 2)]
    delta = Fraction(1, 10**6)
    state = rng.getstate()
    for _ in range(6):   # the gate moves with the coefficients, which move with delta
        rng.setstate(state)
        T = instance_with_anchor_roots(enum, [z, z + delta] + rest, rng)
        a = T.anchor_coeffs()
        fp_over_delta = abs(a[-1] * math.prod(z - r for r in rest))
        if not fp_over_delta:
            break
        delta = Fraction(units * Fraction(tau_simple(a)) / fp_over_delta)
    rng.setstate(state)
    return [z, z + delta] + rest


@pytest.mark.parametrize("branch", ["exact-roots", "durand-kerner"])
def test_find_roots_flags_a_root_simple_exactly_when_the_gate_accepts_it(od20, branch):
    exact = branch == "exact-roots"
    seen = set()
    for d in (1, 2, 3, 4):
        for seed in range(12):
            rng = random.Random(f"{branch}-{d}-{seed}")
            if d == 1:
                # a root of size 10**6 / units puts |f'| = units * tau_simple
                units = rng.choice((Fraction(101, 100), Fraction(99, 100),
                                    Fraction(1, 10**5)))
                roots = [rng.choice((-1, 1)) * 10**6 / units]
            elif exact or seed % 3 == 0:
                roots = [Fraction(rng.choice((-2, 0, 1, 1, Fraction(1, 2), 3)))
                         for _ in range(d)]
            else:
                units = rng.choice((Fraction(101, 100), Fraction(99, 100)))
                roots = _near_pair(od20, d, units, rng)
            T = instance_with_anchor_roots(od20, roots, rng)
            T = T if exact else T.to_double()
            for root in dc.initial_polynomial(T).roots:
                assert root.exact == exact
                assert root.simple == _gate_accepts(T, root.value), (d, seed, root)
                seen.add((root.multiplicity, root.simple))
    # simple and multiple roots occur; in doubles a root of multiplicity 1
    # also falls below the simplicity gate
    assert {(1, True), (2, False), (1, False) if not exact else (1, True)} <= seen


@pytest.mark.parametrize("units, proven", [(Fraction(101, 100), True),
                                           (Fraction(99, 100), False)])
def test_a_double_obstruction_must_fail_the_root_test(od20, units, proven):
    # g*g - c*[2] = 0: f(z) = z^2 has only the double root 0, and at the
    # minimal element 2 the equation forces the value -c whatever g(2) is;
    # -c is an obstruction only outside tau_root = 1e-8 * (1 + 1)
    c = float(units * Fraction(tau_root([0, 0, 1])))
    T = dc.ConvPolynomial((dc.indicator(od20, (2,), -c, False),
                           dc.constant(od20, 0, False), dc.unit(od20, False)))
    with pytest.raises(dc.NoSimpleRoots) as info:
        dc.solve_all(T)
    assert info.value.proven_unsolvable is proven
    assert len(info.value.obstructions) == proven


@pytest.mark.parametrize("c, exact, proven", [
    (Fraction(1, 4), True, True), (Fraction(1, 4), False, True),
    (math.nan, False, False), (math.inf, False, False), (-math.inf, False, False)])
def test_a_non_finite_value_is_no_obstruction(c, exact, proven):
    # c - g + g*g on Lattice(1): c = 1/4 gives the double root 1/2, and at
    # the element 1 the equation forces the value 1/4 whatever g(1) is; a
    # non-finite c leaves non-finite roots and values, which prove nothing
    enum = dc.enumerate_semigroup(dc.Lattice(1), size_bound=6)
    T = dc.ConvPolynomial((dc.constant(enum, c, exact), -dc.unit(enum, exact),
                           dc.unit(enum, exact)))
    with pytest.raises(dc.NoSimpleRoots) as info:
        dc.solve_all(T)
    assert info.value.proven_unsolvable is proven
    assert ("unsolvable" if proven else "existence is undecided") in str(info.value)
    assert all(math.isfinite(abs(complex(ob.value))) for ob in info.value.obstructions)


def test_an_approximate_root_is_obstructed_in_doubles(od20):
    # (z^2 - i)^2 has the double roots +-sqrt(i), which only Durand-Kerner
    # finds; at the element 2 the constants force -z0^4 = 1 whatever g(2) is
    i = dc.QC(0, 1)
    T = dc.ConvPolynomial((dc.constant(od20, -1), dc.constant(od20, 0),
                           dc.constant(od20, -2 * i), dc.constant(od20, 0), dc.unit(od20)))
    with pytest.raises(dc.NoSimpleRoots) as info:
        dc.solve_all(T)
    assert info.value.proven_unsolvable
    # Durand-Kerner finds the simple roots of the square-free factor z^2 - i
    # to a few ulps, so the forced values are 1 to a few ulps too
    assert [abs(ob.value - 1) < 1e-15 for ob in info.value.obstructions] == [True, True]
