"""Independent reference computations the tests check the library against.

Everything here is deliberately naive: linear sieves, brute-force
divisor scans, closed-form coefficient formulas, element-by-element
loops.  None of it shares code with the library proper, apart from the
directed-rounding primitives that the per-element weight loop calls: it
checks the reuse of weights and brackets, not the primitives.

The last section is the exception: helpers that no library path calls
(a function from its value vector, damping, the partial r-norm and the
factorization check of solve-all's solutions), kept as references on
the library's own kernels for the tests to build inputs with and to
compare against.
"""

import heapq
import math
from fractions import Fraction
from functools import reduce
from math import isqrt

import dirconv as dc
from dirconv.algebra import TruncatedFunction, convolve, unit, weighted_terms
from dirconv.errors import PreconditionFailed
from dirconv.rounding import (abs_bounds, add_dn, add_up, mul_dn, mul_up,
                              sub_up, weight_bounds)
from dirconv.scalars import QC, double_value, exact_value
from dirconv.solver import ConvPolynomial, initial_polynomial


def sieve_mobius(n: int) -> list:
    """mu(0..n) by a linear sieve."""
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    primes = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def sieve_primes(n: int) -> list:
    mark = [True] * (n + 1)
    mark[0:2] = [False, False]
    for i in range(2, isqrt(n) + 1):
        if mark[i]:
            mark[i * i:: i] = [False] * len(mark[i * i:: i])
    return [i for i in range(n + 1) if mark[i]]


def divisor_count_brute(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def binom_half(n: int) -> Fraction:
    """Exact binomial coefficient (1/2 choose n)."""
    num = Fraction(1)
    for i in range(n):
        num *= Fraction(1, 2) - i
    den = 1
    for i in range(2, n + 1):
        den *= i
    return num / den


def zeta_tail_integral(sigma: float, n: int) -> float:
    """Integral-test bound: sum_{m>n} m^-sigma <= n^(1-sigma)/(sigma-1)."""
    assert sigma > 1
    return n ** (1.0 - sigma) / (sigma - 1.0)


def random_exact_function(enum, rng, span=4, denom=3, density=0.85,
                          nonzero_at_zero=False):
    vals = []
    for i in range(len(enum)):
        if rng.random() < density:
            v = Fraction(rng.randint(-span, span), rng.randint(1, denom))
        else:
            v = Fraction(0)
        if i == 0 and nonzero_at_zero and v == 0:
            v = Fraction(rng.randint(1, span))
        vals.append(v)
    return from_values(enum, vals)


def instance_with_anchor_roots(enum, roots, rng, span=2, denom=2):
    """A random exact equation whose anchor polynomial is
    lead * prod (z - r_i); entries above size 0 are random."""
    lead = Fraction(rng.randint(1, 3))
    coeffs = [lead]
    for r in roots:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= c * Fraction(r)
        coeffs = new
    fs = []
    for c0 in coeffs:
        f = random_exact_function(enum, rng, span=span, denom=denom)
        fs.append(from_values(enum, (c0,) + f.values[1:]))
    return dc.ConvPolynomial(tuple(fs))


def ident_add(backend, a, b):
    """The identity of the sum of two elements: divisor identities
    multiply, lattice and generator identities add coordinatewise."""
    if backend.kind == "ordinary-dirichlet":
        return tuple(x * y for x, y in zip(a, b))
    return tuple(x + y for x, y in zip(a, b))


def exact_size(backend, ident):
    """An exact value ordered like the size: the product n_1*...*n_k for
    divisor identities (a monotone image of the sum of logarithms), the
    coordinate sum otherwise."""
    if backend.kind == "ordinary-dirichlet":
        return math.prod(ident)
    return sum(ident)


def pair_scan(enum):
    """For each element index t, all ordered pairs (i, j) with e_i + e_j = e_t.

    The generic scan over ordered pairs of enumerated elements, with its
    own identity arithmetic and exact size comparisons (not the
    library's keys); the early break relies on the size-sorted order.
    Pairs are listed with the first component ascending in the
    enumeration order.
    """
    backend = enum.backend
    elements = enum.elements
    index = {e.ident: i for i, e in enumerate(elements)}
    max_size = exact_size(backend, elements[-1].ident)
    out = [[] for _ in elements]
    for i, a in enumerate(elements):
        ai = a.ident
        for j, b in enumerate(elements):
            s = ident_add(backend, ai, b.ident)
            if exact_size(backend, s) > max_size:
                break
            t = index.get(s)
            if t is not None:
                out[t].append((i, j))
    return [tuple(p) for p in out]


def generator_heap_walk(backend, bound):
    """The identities of the generated semigroup of size <= bound, by a
    heap walk over exact Fraction vectors and sizes."""
    bound = Fraction(bound)
    zero = (Fraction(0),) * backend.k
    if bound < 0:
        return []
    seen = {zero}
    out = [zero]
    heap = [(Fraction(0), zero)]
    while heap:
        size, ident = heapq.heappop(heap)
        for g in backend.generators:
            nxt = tuple(x + y for x, y in zip(ident, g))
            nsize = size + sum(g, Fraction(0))
            if nsize > bound or nxt in seen:
                continue
            seen.add(nxt)
            out.append(nxt)
            heapq.heappush(heap, (nsize, nxt))
    return out


def dot_fractions(a, b, pairs):
    """sum of a[i] * b[j] over the index pairs, one exact product at a time."""
    total = Fraction(0)
    for i, j in pairs:
        total = total + a[i] * b[j]
    return total


def convolve_fractions(g, h, rows=None):
    """g * h by the plain exact loop over the reference pair scan (or its
    ``rows``, scanned once by the caller)."""
    return from_values(g.enum, [dot_fractions(g.values, h.values, pairs)
                                   for pairs in rows or pair_scan(g.enum)])


def invert_fractions(g):
    """The convolution inverse by the triangular exact loop: the value at
    t is fixed by every pair of t except (0, t), which holds it."""
    v = g.values
    inv0 = 1 / v[0]
    out = [inv0]
    for t, pairs in enumerate(pair_scan(g.enum)[1:], 1):
        out.append(-(inv0 * dot_fractions(v, out, [(i, j) for i, j in pairs if j != t])))
    return from_values(g.enum, out)


def residual_fractions(T, g):
    """sum_j a_j * g^{*j} through :func:`convolve_fractions`."""
    total, power = None, dc.unit(g.enum)
    for j, c in enumerate(T.coeffs):
        if j:
            power = convolve_fractions(power, g)
        term = convolve_fractions(c, power)
        total = term if total is None else total + term
    return total


def system_residual_fractions(S, gs):
    """Each equation of S at gs term by term: c * g_1^{*e_1} * ... *
    g_m^{*e_m} through :func:`convolve_fractions`, one factor at a time."""
    out = []
    for eq in S.equations:
        total = None
        for t in eq:
            term = t.coeff
            for g, e in zip(gs, t.exponents):
                for _ in range(e):
                    term = convolve_fractions(term, g)
            total = term if total is None else total + term
        out.append(total)
    return out


def dot_pairs(a, b, pairs):
    """sum of a[i] * b[j] over the index pairs, added left to right from 0."""
    acc = 0
    for i, j in pairs:
        acc = acc + a[i] * b[j]
    return acc


def convolve_pairs(g, h, rows=None):
    """g * h in complex doubles by the plain loop over the reference pair
    scan (or its ``rows``): every pair of every row, in the scan's order."""
    a, b = g.to_double().values, h.to_double().values
    return dc.TruncatedFunction(
        g.enum, [dot_pairs(a, b, pairs) for pairs in rows or pair_scan(g.enum)], False)


def sweep_pairs(enum, equations, z0, exact=False, rows=None):
    """The window functions that equations in at most two unknowns force,
    in complex doubles by plain loops over the reference pair scan (or
    its ``rows``), or with ``exact`` in Gaussian rationals.

    ``equations`` lists, per equation, its terms as (coefficient values,
    exponents).  Every product of unknowns has a table, recomputed at each
    element from its whole pair row: once with the unknowns there set to
    0, which gives each equation's value F(x) apart from the linear part,
    and once more after the base-point Jacobian J has fixed the unknowns
    as -J^(-1) F(x) (Cramer's rule).
    """
    rows, n, m = rows or pair_scan(enum), len(enum), len(z0)
    assert m <= 2
    terms = [[(c, tuple(l for l, e in enumerate(exps) for _ in range(e)))
              for c, exps in eq] for eq in equations]
    prefixes = sorted({fs[:k] for eq in terms for _, fs in eq
                       for k in range(1, len(fs) + 1)}, key=len)
    num, zero = (exact_value, Fraction(0)) if exact else (complex, 0j)
    G = [[num(z)] + [zero] * (n - 1) for z in z0]
    P = {(): [num(1)] + [zero] * (n - 1), **{fs: [zero] * n for fs in prefixes}}

    def fill(x):
        for fs in prefixes:
            P[fs][x] = dot_pairs(P[fs[:-1]], G[fs[-1]], rows[x])

    def slope(fs, l):
        """d/dz_l of the product of the z0 factors fs."""
        return sum(math.prod(num(z0[f]) for f in fs[:i] + fs[i + 1:])
                   for i in range(len(fs)) if fs[i] == l)

    J = [[sum(c[0] * slope(fs, l) for c, fs in eq) for l in range(m)] for eq in terms]
    det = J[0][0] if m == 1 else J[0][0] * J[1][1] - J[0][1] * J[1][0]
    Jinv = [[1 / det]] if m == 1 else [[J[1][1] / det, -J[0][1] / det],
                                        [-J[1][0] / det, J[0][0] / det]]
    fill(0)
    for x in range(1, n):
        fill(x)
        F = [sum(dot_pairs(c, P[fs], rows[x]) for c, fs in eq) for eq in terms]
        for l in range(m):
            G[l][x] = -sum(Jinv[l][i] * F[i] for i in range(m))
        fill(x)
    return [dc.TruncatedFunction(enum, g, exact) for g in G]


def abs_bounds_fractions(q):
    """Verified double bounds of |q| for a Fraction or QC, bracketed by
    exact Fraction squares: the square root of the upward-rounded float
    of |q|^2, two ulps out, then stepped until both squares enclose
    |q|^2.  Defined while |q|^2 is a normal double."""
    def up(x):
        return math.nextafter(x, math.inf)

    def dn(x):
        return math.nextafter(x, -math.inf)

    a2 = q.re * q.re + q.im * q.im if isinstance(q, QC) else Fraction(q) * Fraction(q)
    if a2 == 0:
        return 0.0, 0.0
    f = float(a2)
    x = math.sqrt(f if f == a2 else up(f))
    hi = up(up(x))
    while Fraction(hi) * Fraction(hi) < a2:
        hi = up(hi)
    lo = dn(dn(x))
    if lo < 0.0:
        lo = 0.0
    while lo > 0.0 and Fraction(lo) * Fraction(lo) > a2:
        lo = dn(lo)
    return lo, hi


def char_factor(enum, ident, s):
    """e^{-x.s} for one element on its own; divisor windows take n^{-s_i}
    directly."""
    if enum.backend.kind == "ordinary-dirichlet":
        out = 1 + 0j
        for n, si in zip(ident, s):
            if n != 1:
                out *= complex(n) ** (-si)
        return out
    dot = 0j
    for c, si in zip(ident, s):
        dot += float(c) * si
    z = -dot
    m = math.exp(z.real)
    return complex(m * math.cos(z.imag), m * math.sin(z.imag))


def series_kahan(g, pt):
    """The window sum of g(x) e^{-x.s} at a point given per coordinate,
    converting every value and computing every character element by
    element, with Kahan compensation in window order."""
    total = 0j
    comp = 0j
    for e, v in zip(g.enum.elements, g.values):
        term = complex(v) * char_factor(g.enum, e.ident, pt)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def weighted_terms_per_element(g, r):
    """(size key, round-down, round-up) bounds of |g(x)| e^(-r|x|),
    bracketing every value and weighing every nonzero element on its own
    (with the library's directed primitives and size bounds)."""
    size_bounds = g.enum.backend.size_bounds
    for e, v in zip(g.enum.elements, g.values):
        a_lo, a_hi = abs_bounds(v)
        if not a_hi:
            yield e.key, 0.0, 0.0
            continue
        w_lo, w_hi = weight_bounds(r, r, *size_bounds(e.key))
        yield e.key, mul_dn(a_lo, w_lo), mul_up(a_hi, w_hi)


def level_partial_sums(g, r):
    """Round-up S_r(m) over 0 < |x| <= m for every size level m of the
    window (0.0 at level 0), added up from the per-element terms."""
    terms = list(weighted_terms_per_element(g, r))
    sums, acc = [0.0], 0.0
    for _, idxs in g.enum.levels[1:]:
        for i in idxs:
            acc = add_up(acc, terms[i][2])
        sums.append(acc)
    return sums


def certified_tail(g, cert):
    """The certified norm |z0| + t* minus the round-down window part of
    the r-weighted sum of |g|, from a pass of its own."""
    window = 0.0
    for _, lo, _ in weighted_terms_per_element(g, cert.r):
        window = max(window, add_dn(window, lo))
    return max(0.0, sub_up(add_up(cert.abs_z0, cert.t_star), window))


def compositions_into(enum, x_idx, parts):
    """All ordered tuples of element indices summing to the given element."""
    if parts == 0:
        if x_idx == 0:
            yield ()
        return
    if parts == 1:
        yield (x_idx,)
        return
    for i, rest in enum.decomp[x_idx]:
        for tail in compositions_into(enum, rest, parts - 1):
            yield (i,) + tail


def literal_solve(T, z0):
    """The defining recursion written out naively: at each element the
    value is the full nested sum over (y, x_1, ..., x_j) with no part
    equal to the element itself, divided by the anchor derivative."""
    enum = T.enum
    d = T.degree
    f = [c.values[0] for c in T.coeffs]
    fprime = sum(j * f[j] * z0 ** (j - 1) for j in range(1, d + 1))
    g = [None] * len(enum)
    g[0] = z0
    for t in range(1, len(enum)):
        total = Fraction(0)
        for j in range(d + 1):
            aj = T.coeffs[j].values
            for combo in compositions_into(enum, t, j + 1):
                y, xs = combo[0], combo[1:]
                if any(xi == t for xi in xs):
                    continue
                term = aj[y]
                for xi in xs:
                    term = term * g[xi]
                total = total + term
        g[t] = -(total / fprime)
    return from_values(enum, g)


# ---------------------------------------------------------------------------
# references on the library's own kernels


def from_values(enum: dc.Enumeration, values, exact: bool = True) -> TruncatedFunction:
    conv = exact_value if exact else double_value
    return TruncatedFunction(enum, [conv(v) for v in values], exact)


def r_norm_partial(g: TruncatedFunction, r) -> float:
    """Round-up sum of |g(x)| e^(-r|x|) over the window's x != 0; always
    an upper bound of the exact sum."""
    terms = weighted_terms(g, r)
    next(terms)     # the x = 0 term
    return reduce(add_up, (hi for _, _, hi in terms), 0.0)


def damp(g: TruncatedFunction, rho) -> TruncatedFunction:
    """The rescaled function x -> e^(-rho|x|) g(x), in double mode."""
    rho, size = float(rho), g.enum.backend.size
    return TruncatedFunction(g.enum, [double_value(v) * math.exp(-rho * size(e.key))
                                      for e, v in zip(g.enum.elements, g.values)], False)


#: factorization_check's comparison tolerance in double mode
DEFAULT_TOLERANCE = 1e-10


def factorization_check(T: ConvPolynomial, solutions):
    """Check T g = a_d * (g - g_1) * ... * (g - g_d) coefficientwise.

    Requires the anchor polynomial to have degree d with d simple roots
    and exactly d supplied solutions.  Returns (ok, max_deviation);
    deviation is 0 in exact mode when the identity holds.
    """
    d = T.degree
    if len(solutions) != d:
        raise PreconditionFailed(f"need {d} solutions, got {len(solutions)}")
    report = initial_polynomial(T)
    if report.degree != d or len(report.simple_roots) != d:
        raise PreconditionFailed(
            "factorization needs deg f = d with all roots simple")
    gs = [g if isinstance(g, TruncatedFunction) else g[1] for g in solutions]
    # expand prod (g - g_i) in the indeterminate g; convolve and - put mixed
    # modes in double through one_mode
    c = [unit(T.enum)]
    for gi in gs:
        new = [-convolve(gi, c[0])]
        for k in range(1, len(c)):
            new.append(c[k - 1] - convolve(gi, c[k]))
        new.append(c[-1])
        c = new
    worst = 0.0
    ok = True
    for k in range(d):
        diff = convolve(T.coeffs[-1], c[k]) - T.coeffs[k]
        dev = max(abs(complex(v)) for v in diff.values)
        worst = max(worst, dev)
        if diff.exact:
            ok = ok and diff.is_zero()
        elif dev > DEFAULT_TOLERANCE * max(1.0, T.coeffs[k].max_abs()):
            ok = False
    return ok, worst
