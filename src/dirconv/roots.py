"""Root finding for the anchor polynomial of a convolution equation.

Both modes read the polynomial exactly (a double is a dyadic rational),
split it into square-free factors by exact gcds, peel off what exact
arithmetic can represent (the root 0, rational roots, Gaussian-rational
roots of a residual quadratic) and leave the rest to a Durand-Kerner
iteration in complex doubles.  The solver downstream only ever divides
by the derivative at a root, so the report flags which roots are simple
and which are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotASimpleRoot
from .scalars import QC, double_value, exact_value


@dataclass(frozen=True)
class Root:
    value: object          # Fraction | QC | float | complex
    multiplicity: int
    simple: bool
    exact: bool


def poly_eval(coeffs, z):
    """Horner evaluation; works for exact and double scalars alike."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:] or [0 * coeffs[0]]


def _trim(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _monic(f):
    return [c / f[-1] for c in f]


def _divmod(f, g):
    """Quotient and remainder of f by a monic g; exact on exact scalars."""
    f, n = list(f), len(g) - 1
    q = [0] * max(len(f) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = f[k + n]
        for i in range(n):
            f[k + i] -= c * g[i]
    return q, _trim(f[:n])


def _gcd(f, g):
    """The monic gcd of two exact polynomials, g non-zero (Euclid)."""
    while g:
        g = _monic(g)
        f, g = g, _divmod(f, g)[1]
    return f


def square_free(f):
    """The square-free split of an exact polynomial f of degree >= 1:
    pairs (i, f_i), f_i monic, square-free, pairwise coprime and not
    constant, with f = lead * prod f_i^i.  Musser's loop: w is the
    product of the factors of multiplicity >= i, c what is left of
    gcd(f, f') (Yun, SYMSAC 1976, gives a variant with smaller gcds)."""
    c = _gcd(f, poly_derivative(f))
    w, out, i = _monic(_divmod(f, c)[0]), [], 1
    while len(w) > 1:
        y = _gcd(w, c)
        z = _divmod(w, y)[0]
        if len(z) > 1:
            out.append((i, z))
        w, c, i = y, _divmod(c, y)[0], i + 1
    return out


#: Durand-Kerner's step tolerance, relative to the monic scale, and sweep cap
DK_TOL_SCALE = 1e-14
DK_MAX_ITER = 500


def durand_kerner(monic):
    """All complex roots of a monic polynomial, in complex doubles.

    Deterministic: fixed initial configuration (powers of 0.4 + 0.9i),
    fixed sweep order, fixed iteration cap.
    """
    monic = [complex(c) for c in monic]
    n = len(monic) - 1
    scale = max(abs(c) for c in monic)
    tol = DK_TOL_SCALE * max(1.0, scale)
    seed = 0.4 + 0.9j
    roots = [seed ** (k + 1) for k in range(n)]
    for _ in range(DK_MAX_ITER):
        moved = 0.0
        for i in range(n):
            zi = roots[i]
            num = poly_eval(monic, zi)
            den = 1 + 0j
            for j in range(n):
                if j != i:
                    den *= zi - roots[j]
            if den == 0:
                den = complex(tol, tol)
            step = num / den
            roots[i] = zi - step
            moved = max(moved, abs(step))
        if moved < tol:
            break
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _rational_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    return Fraction(rn, rd) if rn * rn == n and rd * rd == d else None


def qc_sqrt(q: QC):
    """Exact Gaussian-rational square root x + iy, x >= 0 and y of the sign
    of Im q, or None if it does not exist: x^2 and y^2 are (|q| +- Re q) / 2."""
    a, b = q.re, q.im
    s = _rational_sqrt(a * a + b * b)
    if s is None:
        return None
    x, y = _rational_sqrt((s + a) / 2), _rational_sqrt((s - a) / 2)
    if x is None or y is None:
        return None
    return QC(x, y if b >= 0 else -y)


def _divisors(n: int, cap: int = 10**12):
    n = abs(n)
    if n == 0 or n > cap:
        return None
    out, d = [1], 2
    while n > 1:   # factor by trial division, so a power of two is cheap
        d = d if d * d <= n else n   # what is left is prime
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        out = [x * d ** k for x in out for k in range(e + 1)]
        d += 1
    return sorted(out)


def rational_roots(coeffs):
    """Rational roots of a square-free rational polynomial.

    ``coeffs`` are Fractions, constant term first and non-zero.  Returns
    (roots, deflated) where ``deflated`` has all found roots divided
    out.  Each Durand-Kerner root is rounded onto every divisor q of the
    integerized leading term and tested exactly.  Gives up (returns no
    roots) when that term is too large to factor quickly.
    """
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    qs = _divisors(ints[-1])
    # a root p/q in lowest terms has q | ints[-1] and p | ints[0]; the bounds
    # keep Durand-Kerner's doubles and each x * q finite
    fits = qs and max(map(abs, ints)) < 2 ** 1000
    xs = [z.real for z in durand_kerner([v / ints[-1] for v in ints])
          if abs(z.real) < 2 ** 900] if fits else []
    candidates = sorted({Fraction(p, q) for x in xs for q in qs for p in [round(x * q)]
                         if p and not ints[0] % p})
    work, found = list(coeffs), []
    for cand in candidates:
        if poly_eval(work, cand) == 0:
            work = _divmod(work, [-cand, 1])[0]
            found.append(cand)
    return found, work


def tau_root(f_coeffs) -> float:
    """The double-mode threshold of :func:`is_root`."""
    return 1e-8 * (1.0 + max(abs(complex(c)) for c in f_coeffs))


def tau_simple(f_coeffs) -> float:
    """The double-mode threshold of :func:`simple_inverse`."""
    return 1e-6 * max(abs(complex(c)) for c in f_coeffs)


def is_root(v, coeffs_at_0, exact: bool) -> bool:
    """The root test for one component v of a base-point map: v = 0 in
    exact mode, |v| <= tau_root over the coefficient values at 0 in
    double mode (so NaN fails)."""
    return not v if exact else abs(v) <= tau_root(coeffs_at_0)


def simple_inverse(J, coeffs_at_0, exact: bool):
    """The simplicity test: J^{-1} when J is invertible and, in double
    mode, tau_simple * ||J^{-1}||_inf < 1 over the coefficient values at
    0; otherwise None.  For J = [[f'(z)]] this reads |f'(z)| > tau_simple."""
    Jinv = _inverse(J, exact)
    if Jinv is None or exact:
        return Jinv
    gate = tau_simple(coeffs_at_0)
    return Jinv if all(gate * sum(map(abs, row)) < 1 for row in Jinv) else None


def anchor_gate(F, J, coeffs_at_0, exact: bool):
    """J^{-1} when the base point is a simple zero of the base-point map F
    with Jacobian J; otherwise :class:`NotASimpleRoot`.

    Every F_i must pass :func:`is_root` and J :func:`simple_inverse`; for
    one equation, F = [f(z0)] and J = [[f'(z0)]].
    """
    for i, v in enumerate(F):
        if not is_root(v, coeffs_at_0, exact):
            raise NotASimpleRoot(f"the base point is not a root: F_{i} = {v!r}")
    Jinv = simple_inverse(J, coeffs_at_0, exact)
    if Jinv is None:
        raise NotASimpleRoot("the base-point Jacobian is "
                             + ("singular" if exact else "below the simplicity gate")
                             + "; the root is not simple")
    return Jinv


def _inverse(A, exact):
    """Gauss-Jordan inverse of a square matrix, as rows; None if singular."""
    n = len(A)
    zero = Fraction(0) if exact else 0.0
    M = [list(row) + [zero + 1 if r == c else zero for c in range(n)]
         for r, row in enumerate(A)]
    for col in range(n):
        piv = (next((r for r in range(col, n) if M[r][col]), None) if exact
               else max(range(col, n), key=lambda r: abs(M[r][col])))
        if piv is None or not M[piv][col]:
            return None
        M[col], M[piv] = M[piv], M[col]
        pivot = M[col][col]
        inv = 1 / pivot
        M[col] = [inv * v for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                factor = M[r][col]
                M[r] = [v - factor * w for v, w in zip(M[r], M[col])]
    return [row[n:] for row in M]


def find_roots(f_coeffs, exact: bool):
    """All roots of the anchor polynomial, flagged simple/exact.

    ``f_coeffs`` is the list a_0(0), ..., a_d(0), finite and trimmed of
    leading zeros.  Read exactly, it is split by :func:`square_free`, so
    multiplicities are exact in both modes; the mode only picks the value
    of an exact root (itself, or its double).  A root of multiplicity 1
    is simple when J = [[f'(z)]] passes :func:`simple_inverse`, the test
    of :func:`anchor_gate`: exactly where the value is exact and in
    doubles otherwise."""
    exact_f = [exact_value(c if isinstance(c, QC) else QC(c.real, c.imag)) for c in f_coeffs]
    fprime = poly_derivative(f_coeffs)
    fprime_double = [complex(c) for c in fprime]

    def root(value, mult, is_exact):
        simple = mult == 1 and simple_inverse(
            [[poly_eval(fprime if is_exact else fprime_double, value)]],
            f_coeffs, is_exact) is not None
        return Root(value, mult, simple, is_exact)

    roots = []
    for mult, factor in square_free(exact_f):
        rest, found = _exact_roots(factor)
        roots += [root(v if exact else double_value(v), mult, exact) for v in found]
        roots += [root(z, mult, False) for z in durand_kerner(rest)]
    roots.sort(key=lambda r: (complex(r.value).real, complex(r.value).imag))
    return roots


def _exact_roots(work):
    """Strip every exactly representable root from a monic square-free
    ``work``: the root 0, the rational roots when the coefficients are
    real and the degree is at least 2, then a linear rest, or a
    quadratic rest whose discriminant has a Gaussian-rational square
    root."""
    found, work = ([], work) if work[0] else ([Fraction(0)], work[1:])
    if len(work) > 2 and all(isinstance(c, Fraction) or (isinstance(c, QC) and c.im == 0)
                             for c in work):
        rational, work = rational_roots([c if isinstance(c, Fraction) else c.re for c in work])
        found += rational
    if len(work) == 2:
        found.append(exact_value(-work[0]))
        work = work[1:]
    elif len(work) == 3:   # z^2 + b z + c, with discriminant b^2 - 4c
        disc = work[1] * work[1] - 4 * work[0]
        s = qc_sqrt(disc if isinstance(disc, QC) else QC(disc))
        if s is not None:
            found += [exact_value((r - work[1]) / 2) for r in (s, -s)]
            work = work[2:]
    return work, found
