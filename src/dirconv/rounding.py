"""Outward-rounded double precision helpers.

Certificates assert inequalities between computed quantities, so every
quantity feeding the "must hold" side of an inequality is rounded up at
each step and every favourable quantity is rounded down.  Directed
steps come from ``math.nextafter``; primitives that are not guaranteed
correctly rounded (exp, log) get a two-ulp safety bump, which absorbs
their at-most-one-ulp error on CPython/libm.
"""

from __future__ import annotations

import math
import sys

from .scalars import QC

INF = math.inf
MAX = sys.float_info.max
_MAX_INT = int(MAX)


def up(x: float) -> float:
    return math.nextafter(x, INF)


def dn(x: float) -> float:
    return math.nextafter(x, -INF)


def add_up(a, b):
    s = a + b
    return s if s == 0.0 else up(s)  # a zero sum is exact under round-to-nearest


def add_dn(a, b):
    s = a + b
    return s if s == 0.0 else dn(s)


def sub_up(a, b):
    s = a - b
    return s if s == 0.0 else up(s)


def sub_dn(a, b):
    s = a - b
    return s if s == 0.0 else dn(s)


def mul_up(a, b):
    if a == 0.0 or b == 0.0:
        return 0.0
    return up(a * b)


def mul_dn(a, b):
    if a == 0.0 or b == 0.0:
        return 0.0
    return dn(a * b)


def div_up(a, b):
    if a == 0.0:
        return 0.0
    return up(a / b)


def exp_up(x: float) -> float:
    if x == 0.0:
        return 1.0
    return up(up(math.exp(up(x))))


def exp_dn(x: float) -> float:
    if x == 0.0:
        return 1.0
    v = dn(dn(math.exp(dn(x))))
    return v if v > 0.0 else 0.0


def log_dn(x: float) -> float:
    if x == 1.0:
        return 0.0
    return dn(dn(math.log(dn(x))))


def frac_bounds(q) -> tuple[float, float]:
    """Directed double bounds of a rational (or int) value.

    Beyond the double range the outer bound is infinite and the inner
    one is the largest finite double.
    """
    if q > MAX:
        return MAX, INF
    if q < -MAX:
        return -INF, -MAX
    f = float(q)  # round-to-nearest
    if f == q:
        return f, f
    return dn(f), up(f)


def _excess(h: float, N: int, D: int) -> int:
    """An integer with the sign of h^2 - N/D."""
    hn, hd = h.as_integer_ratio()
    return hn * hn * D - N * hd * hd


def abs_bounds_exact(q) -> tuple[float, float]:
    """Verified double bounds of |q| for a Fraction or QC.

    A square root of |q|^2 = N/D is bracketed two ulps out, and each end
    is stepped until an exact comparison of integers shows its square on
    the right side of N/D.  The root is that of N/D's upward-rounded
    double when that is a normal double, else a scaled integer root.
    Beyond the double range the bounds are (largest double, inf).
    """
    a, b = (q.re if isinstance(q, QC) else q).as_integer_ratio()
    c, e = q.im.as_integer_ratio() if isinstance(q, QC) else (0, 1)
    N, D = a * a * e * e + c * c * b * b, b * b * e * e
    if not N:
        return 0.0, 0.0
    if N > _MAX_INT * _MAX_INT * D:
        return MAX, INF
    if N > _MAX_INT * D or N << 1022 < D:
        # shifted so that the integer root has 52 to 53 bits
        s = (D.bit_length() - N.bit_length()) // 2 + 52
        r = math.isqrt((N << 2 * s) // D if s >= 0 else N // (D << -2 * s))
        x = math.ldexp(r, -s)
    else:
        f = N / D   # correctly rounded
        fn, fd = f.as_integer_ratio()
        x = math.sqrt(f if fn * D == N * fd else up(f))
    hi = min(up(up(x)), MAX)
    while _excess(hi, N, D) < 0:
        hi = up(hi)
    lo = max(dn(dn(x)), 0.0)
    while lo > 0.0 and _excess(lo, N, D) > 0:
        lo = dn(lo)
    return lo, hi


def abs_bounds(value) -> tuple[float, float]:
    """Directed bounds of |value| for any supported scalar; for a double
    from hypot, which is within 1 ulp."""
    if not isinstance(value, (float, complex)):
        return abs_bounds_exact(value)
    a = math.hypot(value.real, value.imag)
    if a == 0.0:
        return 0.0, 0.0
    lo = dn(dn(a))
    return (lo if lo > 0.0 else 0.0), up(up(a))


def weight_bounds(r_lo: float, r_hi: float, size_lo: float,
                  size_hi: float) -> tuple[float, float]:
    """Directed bounds of the damping factor e^(-r*size) for every rate
    r_lo <= r <= r_hi and size_lo <= size <= size_hi (sizes are >= 0)."""
    lo = exp_dn(-mul_up(r_hi, size_hi if r_hi >= 0.0 else size_lo))
    hi = exp_up(-mul_dn(r_lo, size_lo if r_lo >= 0.0 else size_hi))
    return lo, hi


def poly_eval_up(coeffs, x_up: float) -> float:
    """Upper bound of sum(c_i * x^i) for non-negative coeffs and x >= 0."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = add_up(mul_up(acc, x_up), c)
    return acc


def pow_up(x: float, e: int) -> float:
    """Upper bound of x^e for x >= 0 by e round-up products."""
    acc = 1.0
    for _ in range(e):
        acc = mul_up(acc, x)
    return acc
