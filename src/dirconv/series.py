"""Evaluation of generalized Dirichlet series with rigorous tail bounds.

A window function g induces the series sum over x of g(x) e^{-x.s} with
s in C^k.  On the window the sum is finite; a norm certificate for g
turns the missing tail into an explicit bound valid on the closed
half-plane product {min_i Re(s_i) >= r}, because x.Re(s) >= r|x| there
for every x in [0,inf)^k.

``verify_scalar_equation`` checks that truncated evaluations of a
solved equation nearly satisfy the scalar polynomial equation, with the
allowed error propagated from coefficient and solution tails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import certificate
from .algebra import TruncatedFunction
from .errors import OutOfHalfPlane
from .rounding import add_up, mul_up, pow_up
from .solver import ConvPolynomial


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    s: tuple


def _normalize_point(enum, s) -> tuple:
    """s as k complex parts, each finite: a NaN part passes every half-plane test."""
    k = enum.backend.k
    pt = tuple(map(complex, s)) if isinstance(s, (tuple, list)) else (complex(s),) * k
    if len(pt) != k:
        raise ValueError(f"evaluation point must have {k} components")
    if not all(map(cmath.isfinite, pt)):
        raise ValueError(f"evaluation point {pt} is not finite")
    return pt


def characters(enum, pt: tuple) -> list:
    """e^{-x.s} for every element, in window order, at a normalized point.
    Divisor windows multiply n_i^{-s_i} from one power table per coordinate."""
    idents = [e.ident for e in enum.elements]
    out = []
    if enum.backend.kind != "ordinary-dirichlet":
        for ident in idents:
            z = -sum((float(c) * si for c, si in zip(ident, pt)), 0j)
            m = math.exp(z.real)
            out.append(complex(m * math.cos(z.imag), m * math.sin(z.imag)))
        return out
    powers = [[None, *(complex(n) ** (-si) for n in range(1, max(col) + 1))]
              for col, si in zip(zip(*idents), pt)]
    for ident in idents:
        ch = 1 + 0j
        for n, table in zip(ident, powers):
            if n != 1:
                ch *= table[n]
        out.append(ch)
    return out


def _window_sum(values, chars) -> complex:
    """Kahan-compensated sum of values[i] * chars[i] in window order; a value
    object repeated in a row is converted to complex once."""
    total = comp = 0j
    prev = None
    for v, ch in zip(values, chars):
        if v is not prev:
            prev, cv = v, complex(v)
        y = cv * ch - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def evaluate(g: TruncatedFunction, s) -> SeriesValue:
    """The window part of the series at s; Kahan summation keeps it
    independent of value magnitudes to near machine precision."""
    pt = _normalize_point(g.enum, s)
    return SeriesValue(value=_window_sum(g.values, characters(g.enum, pt)), s=pt)


def _in_half_plane(pt: tuple, cert: certificate.NormCertificate) -> None:
    """Refuse a normalized point below the half-plane min Re(s) >= r on
    which the certificate bounds the tail."""
    if min(c.real for c in pt) < cert.r:
        raise OutOfHalfPlane(f"point {pt} below the certified half-plane r = {cert.r}")


def tail_bound(g: TruncatedFunction, cert: certificate.NormCertificate, s) -> float:
    """Upper bound for the absolute series tail beyond the window.

    Valid on the half-plane min_i Re(s_i) >= cert.r, checked first: there
    |e^{-x.s}| <= e^{-r|x|} pointwise, so the tail is at most the certified
    norm |z0| + t* minus the round-down window part of the r-weighted sum.
    That bound does not depend on s; it is ``certificate.validate(cert,
    g).tail``, so a g the certificate does not hold for raises
    ``CertificateViolated``.
    """
    _in_half_plane(_normalize_point(g.enum, s), cert)
    return certificate.validate(cert, g).tail


@dataclass(frozen=True)
class PointCheck:
    s: tuple
    residual: float            # |sum_j a~_j(s) g~(s)^j|
    allowance: float           # propagated tail bound plus float fuzz
    ok: bool
    value: complex             # the window value g~(s)
    tail: float                # the tail bound of g used at s


@dataclass(frozen=True)
class VerifyReport:
    points: tuple
    all_ok: bool
    worst_ratio: float         # max residual/allowance over the points
    validation: object = None  # the certificate's ValidationReport, or None


#: relative float round-off allowed on the scale sum_j |a~_j| max(1, |g~|)^j
FUZZ = 1e-12


def verify_scalar_equation(T: ConvPolynomial, g: TruncatedFunction, points,
                           cert: certificate.NormCertificate = None, g_tail=None,
                           coeff_tails=None) -> VerifyReport:
    """Check the scalar equation at sample points against propagated tails.

    Tail sources: the solution tail comes from ``g_tail(s)`` when given.
    Otherwise the certificate gives it: ``certificate.validate(cert, g)``
    runs once, before any point is checked, and its ``tail`` is one bound
    for every s with min Re(s) >= r; the report carries that validation.
    ``coeff_tails`` gives per-coefficient tails as a callable (j, s) ->
    bound, or None for window-supported coefficients.  The allowed
    residual at s is

        sum_j [ tail_aj * (|g~| + tail_g)^j
                + |a~_j| * j * (|g~| + tail_g)^{j-1} * tail_g ]

    plus a small multiple of the evaluation scale for float round-off.
    """
    if g_tail is None and cert is None:
        raise ValueError("need a certificate or an explicit g_tail")
    validation = certificate.validate(cert, g) if g_tail is None else None
    checks = []
    worst = 0.0
    for s in points:
        pt = _normalize_point(T.enum, s)
        arg = pt if len(pt) > 1 else pt[0]
        if validation is not None:
            _in_half_plane(pt, cert)
        tg = float(g_tail(arg)) if validation is None else validation.tail
        chars = characters(T.enum, pt)
        gval = _window_sum(g.values, chars)
        avals = [_window_sum(c.values, chars) for c in T.coeffs]
        resid = abs(sum(a * gval ** j for j, a in enumerate(avals)))

        gmag = add_up(abs(gval), tg)
        allowance = 0.0
        scale = 0.0
        for j, a in enumerate(avals):
            ta = float(coeff_tails(j, arg)) if coeff_tails is not None else 0.0
            allowance = add_up(allowance, mul_up(ta, pow_up(gmag, j)))
            if j >= 1:
                allowance = add_up(
                    allowance,
                    mul_up(mul_up(abs(a) * j, pow_up(gmag, j - 1)), tg))
            scale = add_up(scale, mul_up(abs(a), pow_up(max(1.0, abs(gval)), j)))
        allowance = add_up(allowance, mul_up(FUZZ, scale))
        ok = resid <= allowance
        ratio = resid / allowance if allowance > 0 else math.inf
        worst = max(worst, ratio)
        checks.append(PointCheck(pt, resid, allowance, ok, gval, tg))
    return VerifyReport(tuple(checks), all(c.ok for c in checks), worst, validation)
