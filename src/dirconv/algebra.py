"""The truncated Dirichlet algebra over an enumerated window.

A :class:`TruncatedFunction` is a dense value vector aligned with the
enumeration order; because sizes add under the semigroup operation, the
window {|x| <= B} is closed under decomposition and convolution of two
window functions agrees with the untruncated convolution everywhere on
the window.

Values are exact Gaussian rationals (``exact=True``) or complex doubles.
Norm-flavoured quantities are always floats computed with outward
rounding so that certificates never under-report a sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise

from .errors import BackendMismatch, NotInvertible
from .rounding import abs_bounds, add_up, mul_dn, mul_up, weight_bounds
from .scalars import double_value, exact_value
from .semigroup import Enumeration, size_bounds

#: default comparison tolerance for double-mode assertions
DEFAULT_TOLERANCE = 1e-10


class TruncatedFunction:
    """An arithmetic function restricted to an enumerated window."""

    __slots__ = ("enum", "values", "exact")

    def __init__(self, enum: Enumeration, values, exact: bool):
        if len(values) != len(enum):
            raise ValueError("value vector does not match the enumeration length")
        self.enum = enum
        self.values = tuple(values)
        self.exact = exact

    def __repr__(self):
        head = ", ".join(repr(v) for v in self.values[:6])
        tail = ", ..." if len(self.values) > 6 else ""
        mode = "exact" if self.exact else "double"
        return f"TruncatedFunction[{mode}]({head}{tail})"

    def __eq__(self, other):
        if not isinstance(other, TruncatedFunction):
            return NotImplemented
        return (self.enum.signature == other.enum.signature
                and self.values == other.values)

    def __hash__(self):
        return hash((self.enum.signature, self.values))

    def __call__(self, x):
        """Value at an element, an identity tuple, or a window index."""
        if isinstance(x, int):
            return self.values[x]
        return self.values[self.enum.index_of(x)]

    def __neg__(self):
        return TruncatedFunction(self.enum, tuple(-v for v in self.values), self.exact)

    def __add__(self, other):
        g, h = coerce_pair(self, other)
        return TruncatedFunction(
            g.enum, tuple(a + b for a, b in zip(g.values, h.values)), g.exact)

    def __sub__(self, other):
        g, h = coerce_pair(self, other)
        return TruncatedFunction(
            g.enum, tuple(a - b for a, b in zip(g.values, h.values)), g.exact)

    def scale(self, c):
        c = exact_value(c) if self.exact else double_value(c)
        return TruncatedFunction(self.enum, tuple(c * v for v in self.values), self.exact)

    def is_zero(self) -> bool:
        return not any(self.values)

    def to_double(self) -> "TruncatedFunction":
        if not self.exact:
            return self
        return TruncatedFunction(
            self.enum, tuple(double_value(v) for v in self.values), False)

    def max_abs(self) -> float:
        """Round-up bound of max |g(x)| over the window."""
        worst = 0.0
        for v in self.values:
            hi = abs_bounds(v)[1]
            if hi > worst:
                worst = hi
        return worst


def check_compatible(g: TruncatedFunction, h: TruncatedFunction):
    if g.enum is not h.enum and g.enum.signature != h.enum.signature:
        raise BackendMismatch(
            f"windows differ: {g.enum.signature} vs {h.enum.signature}")


def coerce_pair(g, h):
    """Align two functions on one window and one scalar mode."""
    check_compatible(g, h)
    if g.exact and not h.exact:
        g = g.to_double()
    elif h.exact and not g.exact:
        h = h.to_double()
    return g, h


def _zero(exact: bool):
    return Fraction(0) if exact else 0j


# ---------------------------------------------------------------------------
# constructors


def unit(enum: Enumeration, exact: bool = True) -> TruncatedFunction:
    """The convolution identity: 1 at the zero element, 0 elsewhere."""
    vals = [_zero(exact)] * len(enum)
    vals[0] = Fraction(1) if exact else 1 + 0j
    return TruncatedFunction(enum, vals, exact)


def constant(enum: Enumeration, c, exact: bool = True) -> TruncatedFunction:
    """The constant function c on the whole window."""
    c = exact_value(c) if exact else double_value(c)
    return TruncatedFunction(enum, [c] * len(enum), exact)


def one(enum: Enumeration, exact: bool = True) -> TruncatedFunction:
    """The constant-one function; its inverse is the generalized Moebius function."""
    return constant(enum, 1, exact)


def indicator(enum: Enumeration, ident, value=1, exact: bool = True) -> TruncatedFunction:
    """The point mass ``value`` at one enumerated element."""
    vals = [_zero(exact)] * len(enum)
    vals[enum.index_of(ident)] = exact_value(value) if exact else double_value(value)
    return TruncatedFunction(enum, vals, exact)


def from_pairs(enum: Enumeration, pairs, exact: bool = True) -> TruncatedFunction:
    """Build a function from (ident, value) pairs; unnamed entries are 0."""
    vals = [_zero(exact)] * len(enum)
    for ident, value in pairs:
        vals[enum.index_of(tuple(ident))] = (
            exact_value(value) if exact else double_value(value))
    return TruncatedFunction(enum, vals, exact)


def from_values(enum: Enumeration, values, exact: bool = True) -> TruncatedFunction:
    conv = exact_value if exact else double_value
    return TruncatedFunction(enum, [conv(v) for v in values], exact)


# ---------------------------------------------------------------------------
# ring operations


def dot(a, b, us, vs):
    """The sum of a[u] * b[v] over the paired positions of us and vs,
    added left to right from 0 (a plain loop: faster here than a chain
    of ``map`` calls on complex values)."""
    acc = 0
    for u, v in zip(us, vs):
        acc = acc + a[u] * b[v]
    return acc


def convolve(g: TruncatedFunction, h: TruncatedFunction) -> TruncatedFunction:
    """(g*h)(x) = sum over all decompositions x = x' + x'' of g(x')h(x'').

    Exact on the whole window because sizes are additive.  Summation
    order is the shared decomposition order, so results are
    deterministic.
    """
    g, h = coerce_pair(g, h)
    dec = g.enum.decomp
    first, second = dec.first, dec.second
    gv, hv = g.values, h.values
    out = [dot(gv, hv, first[a:b], second[a:b]) for a, b in pairwise(dec.offsets)]
    return TruncatedFunction(g.enum, out, g.exact)


def power(g: TruncatedFunction, j: int) -> TruncatedFunction:
    """j-fold convolution power; power(g, 0) is the unit."""
    if j < 0:
        raise ValueError("power exponent must be non-negative")
    result = unit(g.enum, g.exact)
    base = g
    while j:
        if j & 1:
            result = convolve(result, base)
        j >>= 1
        if j:
            base = convolve(base, base)
    return result


def invert(g: TruncatedFunction, tol: float = DEFAULT_TOLERANCE) -> TruncatedFunction:
    """The convolution inverse, defined whenever g(0) != 0.

    Entries are filled in enumeration order; the value at x only uses
    values at strictly smaller sizes, mirroring the triangular structure
    of the defining system g * g^{-1} = unit.
    """
    v = g.values
    if g.exact:
        if not v[0]:
            raise NotInvertible("g(0) = 0 has no convolution inverse")
        inv0 = 1 / v[0]
    else:
        if abs(v[0]) <= tol:
            raise NotInvertible(f"|g(0)| = {abs(v[0])!r} below tolerance {tol}")
        inv0 = 1.0 / v[0]
    dec = g.enum.decomp
    first, second, offsets = dec.first, dec.second, dec.offsets
    out = [None] * len(v)
    out[0] = inv0
    for t in range(1, len(v)):
        # skip the opening pair (0, t), the one that holds the unknown out[t]
        a, b = offsets[t] + 1, offsets[t + 1]
        out[t] = -(inv0 * dot(v, out, first[a:b], second[a:b]))
    return TruncatedFunction(g.enum, out, g.exact)


# ---------------------------------------------------------------------------
# norms


def weighted_terms(g: TruncatedFunction, r: float):
    """Directed bounds of |g(x)| e^(-r|x|), one element at a time.

    Yields (size, round-down term, round-up term) in window order; every
    norm, partial sum and tail of the package is summed from these.
    """
    for e, v in zip(g.enum.elements, g.values):
        w_lo, w_hi = weight_bounds(r, *size_bounds(e.size))
        a_lo, a_hi = abs_bounds(v)
        yield e.size, mul_dn(a_lo, w_lo), mul_up(a_hi, w_hi)


def r_norm_partial(g: TruncatedFunction, r, m=None, include_zero: bool = False) -> float:
    """Round-up partial sum of |g(x)| e^(-r|x|) over 0 < |x| <= m.

    ``m`` is an exact size value of the window's backend (None means the
    whole window); ``include_zero`` adds the x = 0 term, turning the
    partial sum into a partial r-norm.  The result is always an upper
    bound of the exact sum.
    """
    total = 0.0
    for i, (size, _, hi) in enumerate(weighted_terms(g, float(r))):
        if m is not None and size > m:
            break
        if i or include_zero:
            total = add_up(total, hi)
    return total


def damp(g: TruncatedFunction, rho) -> TruncatedFunction:
    """The rescaled function x -> e^(-rho|x|) g(x), in double mode."""
    rho = float(rho)
    vals = []
    for i, e in enumerate(g.enum.elements):
        w = math.exp(-rho * float(e.size))
        vals.append(double_value(g.values[i]) * w)
    return TruncatedFunction(g.enum, vals, False)
