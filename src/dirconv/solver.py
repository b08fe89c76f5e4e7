"""Solving convolution-polynomial equations on an enumerated window.

An equation T g = a_d * g^{*d} + ... + a_1 * g + a_0 = 0 is anchored at
a root z0 of its *anchor polynomial* f(z) = sum_j a_j(0) z^j: the value
g(0) must be such a root, and whenever the root is simple the remaining
values are forced one element at a time in the window order, because
every term of (T g)(x) either contains g(x) linearly with total
coefficient f'(z0) or only touches strictly smaller sizes.

Every equation is a list of :class:`Monomial` terms, c * g_1^{*e_1} *
... * g_m^{*e_m}.  A square system in unknowns g_1, ..., g_m is the same
recursion with the base-point Jacobian J in place of f'(z0), and a
scalar equation is the one-unknown system ``T.equations``, whose J is
[[f'(z0)]].  One sweep, :func:`dirconv.algebra.sweep`, serves both (and
the convolution inverse, the degree-1 case).  It sums F and J over its
prefix tree, and one gate, :func:`dirconv.roots.anchor_gate`, judges
them and returns J^{-1}; so an equation and its one-unknown system get
the same verdict and the same values in both modes.

``residual`` and ``system_residual`` share one evaluator that
recomputes the same Monomial terms through plain convolutions, by
Horner in one unknown at a time, so a degree-d scalar equation costs d
convolutions; it is an independent check of the sweep.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Monomial, TruncatedFunction, convolve, one_mode, sweep
from .errors import (DegenerateConstant, MathematicalRefusal, NoSimpleRoots,
                     PreconditionFailed, ZeroPolynomial)
from .roots import _trim, anchor_gate, find_roots, is_root, poly_derivative, poly_eval
from .scalars import QC, double_value, exact_value


def overflow_shift(values) -> int:
    """The e >= 0 that brings exact values below 2^1000 divided by 2^e."""
    return max([0, *(p.numerator.bit_length() - p.denominator.bit_length() - 1000
                     for v in values for p in ((v.re, v.im) if isinstance(v, QC) else (v,)))])


@dataclass(frozen=True)
class ConvPolynomial:
    """The equation data: coefficient functions a_0, ..., a_d with d >= 1.
    Exact ones are held divided by 2^shift (:func:`overflow_shift`; 0 unless
    an anchor value reaches 2^1000): the roots, solutions and certificates
    are T's own, the anchor coefficients and residuals those of 2^-shift T."""

    coeffs: tuple
    shift: int = field(default=0, init=False)

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("need coefficients a_0, ..., a_d with d >= 1")
        coeffs = one_mode(self.coeffs)
        if coeffs[-1].is_zero():
            raise ValueError("the leading coefficient must not vanish identically")
        if coeffs[0].exact and (e := overflow_shift(c.values[0] for c in coeffs)):
            coeffs = tuple(c.scale(Fraction(1, 2 ** e)) for c in coeffs)
            object.__setattr__(self, "shift", e)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def enum(self):
        return self.coeffs[0].enum

    @property
    def exact(self) -> bool:
        return self.coeffs[0].exact

    def to_double(self) -> "ConvPolynomial":
        """The held equation, 2^-shift T, in doubles."""
        return ConvPolynomial(tuple(c.to_double() for c in self.coeffs))

    @property
    def equations(self) -> tuple:
        """The equation as the one-unknown system: ([a_0, a_1 g, ..., a_d g^{*d}],)."""
        return ([Monomial(c, (j,)) for j, c in enumerate(self.coeffs)],)

    def anchor_coeffs(self):
        """The values a_j(0), constant term first."""
        return [c.values[0] for c in self.coeffs]

    def anchor(self, z0):
        """(z0, f'(z0)) in the equation's mode, for a simple root z0 of f:
        the certificate's base point, gated as the one-unknown case of
        :func:`anchor_gate` with J = [[f'(z0)]] and both values by Horner."""
        f = self.anchor_coeffs()
        z0 = exact_value(z0) if self.exact else double_value(z0)
        fp = poly_eval(poly_derivative(f), z0)
        anchor_gate([poly_eval(f, z0)], [[fp]], f, self.exact)
        return z0, fp


@dataclass(frozen=True)
class RootReport:
    """Roots of the anchor polynomial with multiplicity and simplicity flags."""

    f_coeffs: tuple
    degree: int
    roots: tuple

    @property
    def simple_roots(self):
        return tuple(r for r in self.roots if r.simple)


@dataclass(frozen=True)
class Obstruction:
    """Witness that no solution can start at ``root``: (T g)(q) = value != 0
    is forced at a minimal-size element q whatever g(q) would be."""

    root: object
    q: object
    value: object


@dataclass(frozen=True)
class SolveAllResult:
    solutions: tuple   # (Root, TruncatedFunction) pairs
    skipped: tuple     # (Root, reason) pairs
    report: RootReport

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)


def initial_polynomial(T: ConvPolynomial) -> RootReport:
    """Roots of f(z) = sum_j a_j(0) z^j, the admissible anchor values."""
    f = T.anchor_coeffs()
    if not any(f):
        raise ZeroPolynomial(
            "every coefficient vanishes at 0; anchor values are unconstrained "
            "and no solution can be selected")
    trimmed = _trim(f)
    if len(trimmed) == 1:
        raise DegenerateConstant(
            "the anchor polynomial is a non-zero constant; the equation has "
            "no solution")
    if not (T.exact or all(map(cmath.isfinite, trimmed))):
        raise NoSimpleRoots("the anchor polynomial has a non-finite coefficient; "
                            "existence is undecided")
    try:
        roots = find_roots(trimmed, T.exact)
    except OverflowError:
        raise MathematicalRefusal("an anchor root lies outside the double range") from None
    return RootReport(tuple(f), len(trimmed) - 1, tuple(roots))


def solve(T: ConvPolynomial, z0) -> TruncatedFunction:
    """The unique solution g of T g = 0 with g(0) = z0, for a simple root
    z0: the sweep of the one-unknown system ``T.equations``."""
    return sweep(T.equations, (z0,))[0]


def residual(T: ConvPolynomial, g: TruncatedFunction) -> TruncatedFunction:
    """T g computed by plain convolutions; exact on the window.

    Independent of the incremental bookkeeping in :func:`solve`, so it
    doubles as a cross-check of the recursion.
    """
    return _horner(T.equations[0], (g,))


def _obstructions(T: ConvPolynomial, report: RootReport):
    """Per root, look for a minimal-size element q forcing (T g)(q) != 0.

    At a minimal-size q the only decompositions are trivial, so
    (T g)(q) = f'(z0) g(q) + sum_j a_j(q) z0^j; with f'(z0) = 0 the
    whole value is pinned independently of g(q).  So only a multiple
    root is checked (at a root of multiplicity 1, f'(z0) != 0), and the
    value counts as non-zero only when it is finite and fails the root
    test of the anchor gate, in doubles wherever the root is approximate.
    """
    enum = T.enum
    if len(enum.levels) < 2:
        return ()
    first_level = enum.levels[1][1]
    found = []
    for root in (r for r in report.roots if r.multiplicity > 1):
        U = T if root.exact else T.to_double()
        for q_idx in first_level:
            val = poly_eval([c.values[q_idx] for c in U.coeffs], root.value)
            if (U.exact or cmath.isfinite(val)) and not is_root(val, report.f_coeffs, U.exact):
                found.append(Obstruction(root.value, enum[q_idx], val))
                break
    return tuple(found)


def solve_all(T: ConvPolynomial) -> SolveAllResult:
    """One solution per simple root of the anchor polynomial.

    With no simple root at all, the instance is refused; if every root
    is blocked by an explicit minimal-size obstruction the refusal
    carries a proof of unsolvability, otherwise existence stays
    undecided.
    """
    report = initial_polynomial(T)
    simple = report.simple_roots
    if not simple:
        obs = _obstructions(T, report)
        proven = len(obs) == len(report.roots) and len(obs) > 0
        raise NoSimpleRoots(
            "the anchor polynomial has no simple roots"
            + ("; every root is obstructed, the equation is unsolvable"
               if proven else "; existence is undecided"),
            report=report, obstructions=obs, proven_unsolvable=proven)
    skipped = tuple((r, f"multiplicity {r.multiplicity}; not a simple root")
                    for r in report.roots if not r.simple)
    # an irrational anchor cannot live in exact arithmetic
    solutions = tuple((r, solve(T if r.exact else T.to_double(), r.value))
                      for r in simple)
    return SolveAllResult(solutions, skipped, report)


# ---------------------------------------------------------------------------
# square polynomial systems


@dataclass(frozen=True)
class PolySystem:
    """m polynomial equations in m unknown window functions, plus a base point."""

    m: int
    equations: tuple   # tuple of tuples of Monomial
    z0: tuple

    def __post_init__(self):
        equations = tuple(tuple(eq) for eq in self.equations)
        object.__setattr__(self, "z0", tuple(self.z0))
        if len(equations) != self.m or len(self.z0) != self.m:
            raise ValueError("need m equations and an m-component base point")
        if any(len(t.exponents) != self.m for eq in equations for t in eq):
            raise ValueError("monomial exponent vectors must have length m")
        # the terms again, their coefficients on one window and in one mode
        coeffs = iter(one_mode(t.coeff for eq in equations for t in eq))
        object.__setattr__(self, "equations", tuple(
            tuple(Monomial(next(coeffs), t.exponents) for t in eq) for eq in equations))


#: limits of :func:`solve_system`: unknowns and monomial degree
MAX_UNKNOWNS = 8
MAX_DEGREE = 8


def solve_system(S: PolySystem):
    """The unique m-tuple of window functions solving the system with the
    prescribed values at 0, given an invertible base-point Jacobian.

    The sweep is the one behind :func:`solve`: at each element x the
    unknown values (g_1(x), ..., g_m(x)) enter every equation linearly
    with the base-point Jacobian as coefficient matrix, and all other
    terms only use strictly smaller sizes.
    """
    if S.m > MAX_UNKNOWNS:
        raise PreconditionFailed(f"system has {S.m} unknowns; limit {MAX_UNKNOWNS}")
    for eq in S.equations:
        for t in eq:
            if t.total_degree() > MAX_DEGREE:
                raise PreconditionFailed(
                    f"monomial degree {t.total_degree()} exceeds limit {MAX_DEGREE}")
    return sweep(S.equations, S.z0)


def system_residual(S: PolySystem, gs) -> list:
    """Each equation evaluated by plain convolutions; the independent check."""
    return [_horner(eq, gs) for eq in S.equations]


# ---------------------------------------------------------------------------
# the convolution check shared by equations and systems


def _horner(terms, gs):
    """The sum of :class:`Monomial` terms at gs by plain convolutions:
    Horner in the last unknown, whose coefficients are the groups of
    terms with equal exponent there, each evaluated the same way in the
    unknowns before it.  A top exponent e there costs e convolutions."""
    if not gs:
        return sum((t.coeff for t in terms[1:]), terms[0].coeff)
    groups = {}
    for t in terms:
        groups.setdefault(t.exponents[-1], []).append(
            Monomial(t.coeff, t.exponents[:-1]))
    top = max(groups)
    acc = _horner(groups[top], gs[:-1])
    for e in range(top - 1, -1, -1):
        acc = convolve(acc, gs[-1])
        if e in groups:
            acc = acc + _horner(groups[e], gs[:-1])
    return acc
