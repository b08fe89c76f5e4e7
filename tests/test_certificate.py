import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest

import dirconv as dc
from dirconv.certificate import _ratio_down

from oracles import damp, instance_with_anchor_roots, level_partial_sums, r_norm_partial


def linear_instance(enum):
    """T g = u*g + a0 with a0(0) = 0 and window norm 1 at rho = 0."""
    a0 = dc.indicator(enum, enum[1].ident, 1)
    return dc.ConvPolynomial((a0, dc.unit(enum)))


def sqrt_one(enum):
    return dc.ConvPolynomial((
        -dc.one(enum), dc.constant(enum, 0), dc.unit(enum)))


# -- build_PQ -------------------------------------------------------------------

def test_build_pq_linear(od20):
    P, Q = dc.build_PQ(linear_instance(od20), 0)
    assert P == (0.0, 0.0)
    assert Q[0] == pytest.approx(1.0, rel=1e-12)
    assert Q[1] == pytest.approx(1.0, rel=1e-12)


def test_build_pq_sqrt_zeta(od20):
    P, Q = dc.build_PQ(sqrt_one(od20), 1)
    # P(t) = t^2/2; Q(t) = (||one|| + t^2)/2 with the window norm ||one|| = 20
    assert P[0] == P[1] == 0.0
    assert P[2] == pytest.approx(0.5, rel=1e-12)
    assert Q[0] == pytest.approx(10.0, rel=1e-12)
    assert Q[1] == 0.0
    assert Q[2] == pytest.approx(0.5, rel=1e-12)


def test_build_pq_rounds_norms_up(od20):
    P, Q = dc.build_PQ(sqrt_one(od20), 1)
    assert Q[0] >= 10.0 and Q[2] >= 0.5 and P[2] >= 0.5


def test_build_pq_degree2_centered(od20):
    # a_2 = u, anchor 0: P(t) = t^2 / |f'(0)|
    a0 = dc.constant(od20, 0)
    a1 = dc.unit(od20).scale(2)
    T = dc.ConvPolynomial((a0, a1, dc.unit(od20)))
    P, _ = dc.build_PQ(T, 0)
    assert P[2] == pytest.approx(0.5, rel=1e-12)  # |f'(0)| = 2


def test_build_pq_requires_nonzero_derivative(od20):
    a = dc.indicator(od20, (2,), 1)
    T = dc.ConvPolynomial((-a, dc.constant(od20, 0), dc.unit(od20)))
    with pytest.raises(dc.NotASimpleRoot):
        dc.build_PQ(T, 0)


@pytest.mark.parametrize("exact, z0", [
    (True, 5), (True, Fraction(1, 3)), (False, 5), (False, 1.0000001)])
def test_certify_refuses_a_non_root(od20, exact, z0):
    # f(z) = z^2 - 1 has f'(z0) != 0 at each z0, but f(z0) != 0: no
    # solution of g*g = one starts there, so there is nothing to certify
    T = sqrt_one(od20) if exact else sqrt_one(od20).to_double()
    with pytest.raises(dc.NotASimpleRoot, match="root"):
        dc.build_PQ(T, z0)
    with pytest.raises(dc.NotASimpleRoot, match="root"):
        dc.certify(T, z0)
    with pytest.raises(dc.NotASimpleRoot, match="root"):
        dc.solve(T, z0)


def test_build_pq_all_zero_coefficients(od20):
    zero_f = dc.constant(od20, 0)
    with pytest.raises((dc.AllCoefficientsZero, ValueError)):
        T = dc.ConvPolynomial((zero_f, dc.unit(od20), zero_f))
        dc.build_PQ(T, 0)


def test_user_norm_bounds_change_scope(od20):
    T = sqrt_one(od20)
    cert = dc.certify(T, 1, norm_bounds=[25.0, 0.0, 1.0])
    assert cert.scope == "user-bound"
    assert cert.Q[0] >= 12.5
    cert2 = dc.certify(T, 1)
    assert cert2.scope == "window-exact"


@pytest.mark.parametrize("bound", [math.nan, -1.0, Fraction(-1, 3)])
def test_nan_or_negative_norm_bound_is_refused(od20, bound):
    # max(w, nan) is w, so a NaN bound would silently become the window norm
    with pytest.raises(ValueError, match="norm bounds"):
        dc.certify(sqrt_one(od20), 1, norm_bounds=[bound, 0.0, 1.0])


@pytest.mark.parametrize("coeffs, norm_bounds, error, match", [
    (lambda enum: sqrt_one(enum).coeffs, [1.0, 1.0], ValueError,
     "one norm bound per coefficient"),
    # f(z) = 10^-400 (z - 1): f'(1) is not 0, but no double bounds it away from 0
    (lambda enum: (dc.constant(enum, -Fraction(1, 10**400)),
                   dc.from_pairs(enum, [((1,), Fraction(1, 10**400))])), None,
     dc.NotASimpleRoot, "numerically zero"),
])
def test_certify_refusals(od20, coeffs, norm_bounds, error, match):
    with pytest.raises(error, match=match):
        dc.certify(dc.ConvPolynomial(coeffs(od20)), 1, norm_bounds=norm_bounds)


# -- maximize_R ------------------------------------------------------------------

def test_maximize_r_closed_form():
    # R(t) = (2t - t^2) / (1 + (1+t)^2): setting the derivative to zero
    # gives t^2 + t - 1 = 0, so t* = (sqrt(5)-1)/2 and R(t*) = sqrt(5) - 2
    P = (0.0, 0.0, 0.5)
    Q = (0.5, 0.0, 0.5)
    t_star, C = dc.maximize_R(P, Q, 1.0)
    assert t_star == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-4)
    assert C <= math.sqrt(5) - 2
    assert C == pytest.approx(math.sqrt(5) - 2, rel=1e-9)


def test_maximize_r_beats_dense_grid():
    P = (0.0, 0.0, 0.5)
    Q = (0.5, 0.0, 0.5)
    _, C = dc.maximize_R(P, Q, 1.0)
    ts = [i / 10000.0 for i in range(1, 50000)]
    dense = max((t - 0.5 * t * t) / (0.5 + 0.5 * (1 + t) ** 2) for t in ts)
    assert C >= dense * (1 - 1e-6)


def test_maximize_r_plateau():
    t_star, C = dc.maximize_R((0.0, 0.0), (1.0, 1.0), 0.0)
    assert t_star > 1e5
    assert 0.999 < C < 1.0


def test_maximize_r_no_positive():
    with pytest.raises(dc.NoPositiveR):
        dc.maximize_R((0.0, 0.0, 1e7), (1.0,), 0.0)
    # every sample is -inf / inf = NaN, which is no ratio, not a certified one
    with pytest.raises(dc.NoPositiveR):
        dc.maximize_R((0.0, 0.0, math.inf), (math.inf,), 1.0)


def test_ratio_rounding_is_downward():
    P = (0.0, 0.0, 0.5)
    Q = (0.5, 0.0, 0.5)
    exact = (2 * 1.0 - 1.0) / (1.0 + 4.0)
    assert _ratio_down(P, Q, 1.0, 1.0) <= exact


# -- certify ---------------------------------------------------------------------

def test_certify_linear_rate_near_rho(od20):
    T = linear_instance(od20)
    cert = dc.certify(T, 0)
    assert cert.r < 1e-4
    assert cert.t_star > 1.0  # the actual norm of the solution is 1
    g = dc.solve(T, 0)
    rep = dc.validate(cert, g)
    assert rep.ok


def test_certify_trivial_zero_solution(od20):
    a0 = dc.constant(od20, 0)
    T = dc.ConvPolynomial((a0, dc.unit(od20)))
    cert = dc.certify(T, 0)
    g = dc.solve(T, 0)
    assert g.is_zero()
    rep = dc.validate(cert, g)
    assert rep.ok
    assert rep.sum_margin == pytest.approx(cert.t_star, rel=1e-12)


def test_certify_sqrt_zeta_and_validate(od100):
    T = sqrt_one(od100)
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    rep = dc.validate(cert, g)
    assert rep.ok
    assert rep.sum_margin > 0
    assert rep.recursive_margin > 0
    # defining inequality of the rate: e^{-(r-rho) m1} <= C <= R(t*)
    m1 = math.log(2)
    assert math.exp(-(cert.r - float(cert.rho)) * m1) <= cert.C * (1 + 1e-12)


def test_certify_respects_rho(od20):
    T = sqrt_one(od20)
    cert = dc.certify(T, 1, rho=Fraction(1, 2))
    assert cert.r >= 0.5
    g = dc.solve(T, 1)
    assert dc.validate(cert, g).ok


def test_validate_rejects_corrupted_certificate(od100):
    T = sqrt_one(od100)
    cert = dc.certify(T, 1)
    g = dc.solve(T, 1)
    observed = max(dc.validate(cert, g).partial_sums)
    bad = dataclasses.replace(cert, t_star=observed / 2)
    with pytest.raises(dc.CertificateViolated):
        dc.validate(bad, g)


def _first_level(enum, sums, fails):
    """The float size of the first positive level n with fails(n)."""
    return enum.backend.size(enum.levels[next(n for n in range(1, len(sums)) if fails(n))][0])


@pytest.mark.parametrize("window", ["od100", "lat2"])
def test_violations_keep_their_text_and_level(window, request):
    enum = request.getfixturevalue(window)
    T = sqrt_one(enum)
    cert, g = dc.certify(T, 1), dc.solve(T, 1)
    sums = dc.validate(cert, g).partial_sums
    t_star = max(sums) / 2
    text = rf"partial sum .* exceeds t\* = {re.escape(str(t_star))} at level"
    with pytest.raises(dc.CertificateViolated, match=text) as exc:
        dc.validate(dataclasses.replace(cert, t_star=t_star), g)
    assert exc.value.level == _first_level(enum, sums, lambda n: sums[n] > t_star)
    assert str(exc.value).endswith(f"at level {exc.value.level}")
    # with Q = 0 the bound at a level after S = 0 is P(0) = 0
    with pytest.raises(dc.CertificateViolated,
                       match="recursive level bound fails at level") as exc:
        dc.validate(dataclasses.replace(cert, Q=(0.0,) * len(cert.Q)), g)
    assert exc.value.level == _first_level(enum, sums, lambda n: sums[n] > 0.0)
    assert f"fails at level {exc.value.level}: S = " in str(exc.value)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "double"])
def test_a_passing_validate_computes_no_level_size(od100, exact, monkeypatch):
    T = sqrt_one(od100) if exact else sqrt_one(od100).to_double()
    cert, g = dc.certify(T, 1), dc.solve(T, 1)
    calls = []
    size = type(od100.backend).size
    monkeypatch.setattr(type(od100.backend), "size",
                        lambda self, key: calls.append(key) or size(self, key))
    assert dc.validate(cert, g).ok
    assert calls == []


def test_certify_gates_its_base_point_once(od20, monkeypatch):
    calls = []
    gate = dc.solver.anchor_gate
    monkeypatch.setattr(dc.solver, "anchor_gate", lambda *a: calls.append(a) or gate(*a))
    dc.certify(sqrt_one(od20), 1)
    assert len(calls) == 1
    # f(z) = (z - 1)^2: z0 = 1 is a root, but not a simple one
    T = dc.ConvPolynomial((dc.one(od20), dc.constant(od20, -2), dc.unit(od20)))
    with pytest.raises(dc.NotASimpleRoot,
                       match=r"^the base-point Jacobian is singular; the root is not simple$"):
        dc.certify(T, 1)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "double"])
@pytest.mark.parametrize("window", ["od100", "lat2"])
def test_validate_partial_sums_are_r_norm_partials(window, exact, request):
    # both read one weighted pass, so the floats agree bit for bit
    enum = request.getfixturevalue(window)
    T = sqrt_one(enum) if exact else sqrt_one(enum).to_double()
    g = dc.solve(T, 1)
    cert = dc.certify(T, 1)
    sums = dc.validate(cert, g).partial_sums
    assert len(sums) == len(enum.levels) and sums[-1] > 0.0
    assert list(sums) == level_partial_sums(g, cert.r)
    assert sums[-1] == r_norm_partial(g, cert.r)


def test_monotone_in_q_coefficients():
    # growing any norm input weakly lowers the ratio wherever it is positive
    P = (0.0, 0.0, 0.5)
    Q = (0.5, 0.0, 0.5)
    bumped = (0.9, 0.0, 0.5)
    for i in range(1, 40):
        t = 0.05 * i  # numerator t - P(t) stays positive below t = 2
        assert _ratio_down(P, bumped, 1.0, t) <= _ratio_down(P, Q, 1.0, t)


def test_normalization_equivariance(od20):
    # compactly supported coefficients so window norms are the whole story
    rng = random.Random(21)
    a0 = dc.from_pairs(od20, [((2,), Fraction(1, 2)), ((3,), -2)])
    a1 = dc.unit(od20) + dc.indicator(od20, (5,), Fraction(1, 3))
    a2 = dc.unit(od20)
    T = dc.ConvPolynomial((a0, a1, a2))
    rho = Fraction(1, 2)
    cert_rho = dc.certify(T, Fraction(-1), rho=rho)

    damped = dc.ConvPolynomial(tuple(damp(c, rho) for c in T.coeffs))
    cert_0 = dc.certify(damped, -1.0, rho=0)
    for p, q in zip(cert_rho.P, cert_0.P):
        assert p == pytest.approx(q, rel=1e-9, abs=1e-12)
    for p, q in zip(cert_rho.Q, cert_0.Q):
        assert p == pytest.approx(q, rel=1e-9, abs=1e-12)
    assert cert_rho.r - float(rho) == pytest.approx(cert_0.r, rel=1e-6, abs=1e-9)


def test_certificate_soundness_random_instances():
    rng = random.Random(99)
    enums = [
        dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=15),
        dc.enumerate_semigroup(dc.Lattice(2), size_bound=3),
        dc.enumerate_semigroup(dc.RationalGenerators((("2",), ("3",))),
                               size_bound=10),
    ]
    done = 0
    attempts = 0
    while done < 6 and attempts < 60:
        attempts += 1
        enum = enums[attempts % len(enums)]
        d = rng.choice((1, 2))
        roots = rng.sample(range(-3, 4), d)
        T = instance_with_anchor_roots(enum, roots, rng)
        result = dc.solve_all(T)
        for root, g in result:
            if not root.exact:
                continue
            try:
                cert = dc.certify(T, root.value)
            except dc.NoPositiveR:
                continue
            assert dc.validate(cert, g).ok
            done += 1
    assert done >= 6


def test_certificate_p_has_no_low_order_terms(od20):
    cert = dc.certify(sqrt_one(od20), 1)
    assert cert.P[0] == 0.0 and cert.P[1] == 0.0
