"""Convergence certificates for solved convolution equations.

From the coefficient data of an equation and a simple anchor root z0,
two real polynomials with non-negative coefficients are formed:

    P(t) = |f'(z0)|^-1 * sum_{j>=2} |a_j(0)| sum_{i=2}^{j} C(j,i) |z0|^{j-i} t^i
    Q(t) = |f'(z0)|^-1 * sum_{j>=0} ||a_j||_rho t^j

The damping ratio R(t) = (t - P(t)) / Q(|z0| + t) controls a recursive
bound on the partial sums S_r(m) of |g(x)| e^{-r|x|} over 0 < |x| <= m:
once e^{-(r-rho) m1} <= R(t*) holds for the minimal positive size m1,
every partial sum stays below t*, giving ||g||_r <= |z0| + t*.

Everything feeding an inequality that must hold is rounded up; the
ratio R is rounded down.  The certificate therefore never claims more
than what the computed floats support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice

from .algebra import TruncatedFunction, weighted_terms
from .errors import (AllCoefficientsZero, CertificateViolated, NoPositiveR,
                     NotASimpleRoot)
from .rounding import (abs_bounds, add_dn, add_up, div_up, dn, exp_up,
                       frac_bounds, log_dn, mul_dn, mul_up, poly_eval_up,
                       pow_up, sub_dn, sub_up, up)
from .scalars import double_value
from .solver import ConvPolynomial

#: scope markers for the coefficient norms entering Q
WINDOW_EXACT = "window-exact"
USER_BOUND = "user-bound"


@dataclass(frozen=True)
class NormCertificate:
    """A computed convergence certificate.

    Claims, for the solution g anchored at z0:
      (i)  S_r(m) <= t_star for every size level m of the window, where
           S_r(m) sums |g(x)| e^{-r|x|} over 0 < |x| <= m;
      (ii) the full r-norm of g is at most |z0| + t_star,
    provided the coefficient norms used were not under-reported (scope
    ``window-exact`` assumes the coefficients vanish off the window).
    """

    rho: Fraction
    m1: int                    # size key of the minimal positive size
    z0: object
    P: tuple                   # round-up coefficients, index = power of t
    Q: tuple
    t_star: float
    C: float                   # clamped damping ratio actually certified
    r: float
    scope: str
    abs_z0: float              # round-up |z0|

    def tail(self, window_dn: float) -> float:
        """Round-up bound of the r-weighted sum of |g| beyond the window:
        the certified norm |z0| + t_star minus a round-down window sum."""
        return max(0.0, sub_up(add_up(self.abs_z0, self.t_star), window_dn))


def build_PQ(T: ConvPolynomial, z0, rho=0, norm_bounds=None):
    """The two comparison polynomials as round-up coefficient tuples."""
    z0, fp = T.anchor(z0)
    d = T.degree
    fp_dn = abs_bounds(fp)[0]
    if fp_dn <= 0.0:
        raise NotASimpleRoot("|f'(z0)| is numerically zero; no certificate")
    if norm_bounds is not None and len(norm_bounds) != d + 1:
        raise ValueError("need one norm bound per coefficient")
    norms = []
    for j, c in enumerate(T.coeffs):   # one weighted pass per coefficient
        if norm_bounds is None:
            norms.append(reduce(add_up, (t[2] for t in weighted_terms(c, rho)), 0.0))
            continue
        lo = hi = 0.0   # the window norm, which bounds the true norm from below
        for _, t_lo, t_hi in weighted_terms(c, rho):
            lo, hi = add_dn(lo, t_lo), add_up(hi, t_hi)
        bound = frac_bounds(norm_bounds[j])[1]   # bounds a_j; T holds 2^-shift a_j
        if T.shift and bound < math.inf:
            bound = frac_bounds(Fraction(bound) / 2 ** T.shift)[1]
        if not bound >= lo:   # NaN fails too; max(hi, nan) would drop it
            raise ValueError("norm bounds must be numbers >= 0 that the window does not "
                             f"refute: a_{j} has {bound}, below its window norm {lo}")
        norms.append(max(hi, bound))
    if not any(norms):
        raise AllCoefficientsZero("all coefficient norms vanish; nothing to certify")
    abs_z0_up = abs_bounds(z0)[1]
    a0_abs = [abs_bounds(c.values[0])[1] for c in T.coeffs]

    P = [0.0] * (d + 1)
    for j in range(2, d + 1):
        if a0_abs[j] == 0.0:
            continue
        for i in range(2, j + 1):
            term = mul_up(a0_abs[j], float(math.comb(j, i)))
            term = mul_up(term, pow_up(abs_z0_up, j - i))
            P[i] = add_up(P[i], div_up(term, fp_dn))
    Q = tuple(div_up(nj, fp_dn) for nj in norms)
    return tuple(P), Q


def _ratio_down(P, Q, abs_z0_up, t: float) -> float:
    num = sub_dn(t, poly_eval_up(P, up(t)))
    den = poly_eval_up(Q, add_up(abs_z0_up, t))
    ratio = num / den if den > 0.0 else -math.inf
    return -math.inf if math.isnan(ratio) else dn(ratio)   # NaN is no ratio


GRID_POINTS = 2048
GRID_LO = 1e-6
GRID_HI = 1e6


def maximize_R(P, Q, abs_z0):
    """Near-maximizer of R(t) = (t - P(t)) / Q(|z0| + t) over t > 0.

    A log-spaced grid locates the best bracket and golden-section
    refinement polishes it.  When the best sample sits at the upper grid
    edge (the degree-1 plateau, where the supremum is approached as
    t -> infinity) the edge value is accepted as is.  R is always
    evaluated rounded down, so the returned value is certified.
    """
    la, lb = math.log(GRID_LO), math.log(GRID_HI)
    ts = [math.exp(la + (lb - la) * i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)]
    vals = [_ratio_down(P, Q, abs_z0, t) for t in ts]
    best = max(range(GRID_POINTS), key=lambda i: vals[i])
    if vals[best] <= 0.0:
        raise NoPositiveR("the damping ratio is non-positive at every sampled t")
    best_t, best_v = ts[best], vals[best]
    if best == GRID_POINTS - 1:
        return best_t, best_v
    a = ts[best - 1] if best > 0 else GRID_LO
    b = ts[best + 1]
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_golden * (b - a)
    x2 = a + inv_golden * (b - a)
    f1 = _ratio_down(P, Q, abs_z0, x1)
    f2 = _ratio_down(P, Q, abs_z0, x2)
    for _ in range(160):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_golden * (b - a)
            f2 = _ratio_down(P, Q, abs_z0, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_golden * (b - a)
            f1 = _ratio_down(P, Q, abs_z0, x1)
        t, v = (x1, f1) if f1 >= f2 else (x2, f2)
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def certify(T: ConvPolynomial, z0, rho=0, norm_bounds=None) -> NormCertificate:
    """Build the full certificate at anchor z0 and norm level rho.

    The certified rate is r = rho + m1^{-1} max(0, -log C) with C the
    clamped ratio min(R(t*), 1); r is bumped upward until the defining
    inequality e^{-(r-rho) m1} <= C holds in round-up arithmetic.
    """
    rho = Fraction(rho)
    rho_hi = frac_bounds(rho)[1]
    if math.isinf(rho_hi):
        raise ValueError("rho lies beyond the double range; "
                         "the certified rate would not be finite")
    z0 = T.anchor(z0)[0]
    P, Q = build_PQ(T, z0, rho, norm_bounds)
    scope = WINDOW_EXACT if norm_bounds is None else USER_BOUND
    abs_z0_up = abs_bounds(z0)[1]
    t_star, C_raw = maximize_R(P, Q, abs_z0_up)
    C = min(C_raw, 1.0)
    m1 = T.enum.m1
    m1_lo, _ = T.enum.backend.size_bounds(m1)
    if C >= 1.0:
        s = 0.0
    else:
        s = div_up(up(-log_dn(C)), m1_lo)
        # enlarging the rate only loosens the certificate, so growing s
        # geometrically until the round-up check passes stays sound
        while exp_up(-mul_dn(s, m1_lo)) > C:
            s = up(s * 1.25) if s > 0.0 else 1e-300
    r = add_up(rho_hi, s) if s else rho_hi
    return NormCertificate(rho=rho, m1=m1, z0=z0, P=P, Q=Q, t_star=t_star,
                           C=C, r=r, scope=scope, abs_z0=abs_z0_up)


@dataclass(frozen=True)
class ValidationReport:
    """Observed margins of a certificate against a solved function."""

    levels: tuple              # float sizes of the checked levels (level 0 first)
    partial_sums: tuple        # round-up S_r(m) per level
    sum_margin: float          # min over levels of t_star - S_r(m)
    recursive_margin: float    # min over levels of RHS - LHS in the level bound
    ok: bool
    tail: float                # round-up series tail of g where min Re(s) >= r


def validate(cert: NormCertificate, g: TruncatedFunction) -> ValidationReport:
    """Recheck both certified inequalities against the solved values.

    Recomputes every partial sum S_r(m) with round-up arithmetic,
    requires S_r(m) <= t_star, and checks the level-to-level bound
    S(m_n) <= P(S(m_{n-1})) + e^{-(r-rho) m1} Q(|z0| + S(m_{n-1})).
    A violation raises :class:`CertificateViolated`: it means a bug or
    an under-reported norm, never a sound certificate; so does a g whose
    g(0), compared in g's mode, is not the certified anchor z0.  The same
    pass sums the window part rounded down, for the tail bound of g.
    """
    if g.values[0] != (cert.z0 if g.exact else double_value(cert.z0)):
        raise CertificateViolated(
            f"g(0) = {g.values[0]} is not the certified anchor z0 = {cert.z0}", level=0.0)
    r, levels = cert.r, g.enum.levels
    terms = weighted_terms(g, r)
    # S_r(m) leaves out x = 0, the window sum includes it; clamping keeps
    # that lower bound monotone when terms fall below one ulp of it
    window = max(0.0, add_dn(0.0, next(terms)[1]))
    sums = [0.0]
    acc = 0.0
    for _, idxs in levels[1:]:
        for _, lo, hi in islice(terms, len(idxs)):
            acc = add_up(acc, hi)
            window = max(window, add_dn(window, lo))
        sums.append(acc)

    rho_hi = frac_bounds(cert.rho)[1]
    s_rate = max(0.0, sub_dn(r, rho_hi))
    backend = g.enum.backend
    m1_lo = backend.size_bounds(cert.m1)[0]
    damp_up = exp_up(-mul_dn(s_rate, m1_lo))

    sum_margin = rec_margin = math.inf
    level_floats = tuple(backend.size(key) for key, _ in levels)
    for n in range(1, len(sums)):
        margin = sub_dn(cert.t_star, sums[n])
        sum_margin = min(sum_margin, margin)
        if not margin >= 0.0:     # NaN fails too
            raise CertificateViolated(
                f"partial sum {sums[n]} exceeds t* = {cert.t_star} at level "
                f"{level_floats[n]}", level=level_floats[n])
        prev = sums[n - 1]
        rhs = add_up(poly_eval_up(cert.P, prev),
                     mul_up(damp_up,
                            poly_eval_up(cert.Q, add_up(cert.abs_z0, prev))))
        rmargin = sub_up(rhs, sums[n])
        rec_margin = min(rec_margin, rmargin)
        if not rmargin >= 0.0:
            raise CertificateViolated(
                f"recursive level bound fails at level {level_floats[n]}: "
                f"S = {sums[n]} > bound = {rhs}", level=level_floats[n])
    if math.isinf(sum_margin):
        sum_margin = rec_margin = cert.t_star   # no positive level: trivial margins
    return ValidationReport(levels=level_floats, partial_sums=tuple(sums),
                            sum_margin=sum_margin, recursive_margin=rec_margin,
                            ok=True, tail=cert.tail(window))
