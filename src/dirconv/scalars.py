"""Scalar arithmetic for the two value modes of the library.

Exact mode works over Gaussian rationals: real values are plain
:class:`fractions.Fraction`, complex values are :class:`QC` (a pair of
fractions).  Arithmetic between the two mixes freely and is error-free.
Double mode uses a ``float`` for a real value and a ``complex`` only for
a non-real one.  Norm-style quantities are always computed in floating
point with outward rounding; see ``rounding.py``.
"""

from __future__ import annotations

import cmath
import numbers
from fractions import Fraction


class QC:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __repr__(self):
        return f"QC({self.re})" if self.im == 0 else f"QC({self.re}, {self.im})"

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, numbers.Rational):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, QC):
            return QC(self.re + other.re, self.im + other.im)
        if isinstance(other, numbers.Rational):
            return QC(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QC):
            return QC(self.re - other.re, self.im - other.im)
        if isinstance(other, numbers.Rational):
            return QC(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Rational):
            return QC(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QC):
            return QC(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)
        if isinstance(other, numbers.Rational):
            return QC(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QC):
            d = other.re * other.re + other.im * other.im
            if d == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return QC((self.re * other.re + self.im * other.im) / d,
                      (self.im * other.re - self.re * other.im) / d)
        if isinstance(other, numbers.Rational):
            return QC(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Rational):
            return QC(other) / self
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QC(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def exact_value(x):
    """Coerce ``x`` into exact form: Fraction for real input, QC otherwise.

    Floats are rejected so that double data never silently enters an
    exact computation.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, numbers.Rational):
        return x if type(x) is Fraction else Fraction(x)
    if isinstance(x, QC):
        return x.re if x.im == 0 else x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (float, complex)):
        raise TypeError(
            "floating-point value in exact mode; pass a Fraction/QC or use double mode")
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def double_value(x):
    """Coerce ``x`` into a double: a float when it is real, else a complex."""
    z = complex(Fraction(x) if isinstance(x, str) else x)
    return z.real if z.imag == 0 else z


# -- lossless text forms -----------------------------------------------------

def format_rational(q) -> str:
    n, d = q.as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}"


def parse_rational(text) -> Fraction:
    if isinstance(text, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(text, numbers.Rational):
        return Fraction(text)
    return Fraction(str(text))


def format_scalar(x):
    """JSON-safe form: exact values as "p/q" strings or {"re","im"} dicts."""
    if isinstance(x, QC):
        if x.im == 0:
            return format_rational(x.re)
        return {"re": format_rational(x.re), "im": format_rational(x.im)}
    if isinstance(x, numbers.Rational):
        return format_rational(x)
    if isinstance(x, complex):
        if x.imag == 0.0:
            return x.real
        return {"re": x.real, "im": x.imag}
    return float(x)


def parse_scalar(obj, exact: bool):
    """Inverse of :func:`format_scalar` for the given mode; booleans and
    non-finite doubles are refused."""
    if any(isinstance(v, bool) for v in (obj.values() if isinstance(obj, dict) else [obj])):
        raise TypeError("booleans are not scalars")
    if isinstance(obj, dict):
        if set(obj) - {"re", "im"}:
            raise ValueError(f"bad scalar object {obj!r}")
        re = obj.get("re", 0)
        im = obj.get("im", 0)
        if exact:
            return exact_value(QC(parse_rational(re), parse_rational(im)))
        obj = complex(*(float(parse_rational(v) if isinstance(v, str) else v)
                        for v in (re, im)))
    z = exact_value(obj) if exact else double_value(obj)
    if not (exact or cmath.isfinite(z)):
        raise ValueError(f"scalars must be finite numbers, not {obj!r}")
    return z
