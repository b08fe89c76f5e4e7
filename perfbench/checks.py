"""Output checks, written without dirconv's own algorithms.

* ``mobius``: a linear sieve for the Moebius function.
* ``solve``: a sweep of a polynomial system over a window, by explicit
  decompositions x = y + w listed per element.  In exact arithmetic on
  a small size-complete sub-window (sizes add, so its values equal
  those on any larger window), and in double precision on the full
  window, whose values dirconv returned at every level.
* ``series_sum``: the window part of a series summed term by term.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from fractions import Fraction
from itertools import product


def mobius(n: int) -> list:
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    composite = [False] * (n + 1)
    primes = []
    for i in range(2, n + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            composite[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


# ---------------------------------------------------------------------------
# windows: elements sorted by size, with every decomposition listed


class Window:
    """The elements of size at most ``bound`` and all their decompositions.

    Elements are integer tuples, combined by ``combine`` (product or sum
    per coordinate); ``fits(sy, sw)`` says whether sizes sy and sw still
    combine to a size inside the window.  ``ident`` maps an element to
    the key dirconv's output uses for it.  ``parts_y[i]``, ``parts_w[i]``
    list the indices of every ordered pair (y, w) with y + w = x_i.
    """

    def __init__(self, elements, size, combine, fits, zero, ident=tuple):
        self.elements = sorted(elements, key=lambda x: (size(x), x))
        if self.elements[0] != zero:
            raise ValueError("the neutral element must be the smallest")
        self.keys = [ident(x) for x in self.elements]
        n = len(self.elements)
        index = {x: i for i, x in enumerate(self.elements)}
        sizes = [size(x) for x in self.elements]
        idx = list(range(n))   # shared int objects keep the part lists small
        self.parts_y = [[] for _ in idx]
        self.parts_w = [[] for _ in idx]
        for i, y in zip(idx, self.elements):
            for j, w in zip(idx, self.elements):
                if not fits(sizes[i], sizes[j]):
                    break
                k = index.get(combine(y, w))
                if k is not None:
                    self.parts_y[k].append(i)
                    self.parts_w[k].append(j)

    def __len__(self):
        return len(self.elements)


def _divisor_tuples(k: int, bound: int):
    if k == 0:
        yield ()
        return
    for a in range(1, bound + 1):
        for rest in _divisor_tuples(k - 1, bound // a):
            yield (a,) + rest


def divisor_window(k: int, max_product: int) -> Window:
    return Window(_divisor_tuples(k, max_product), math.prod,
                  lambda y, w: tuple(a * b for a, b in zip(y, w)),
                  lambda sy, sw: sy * sw <= max_product, (1,) * k)


def lattice_window(k: int, bound: int) -> Window:
    elements = [t for t in product(range(bound + 1), repeat=k) if sum(t) <= bound]
    return Window(elements, sum, lambda y, w: tuple(a + b for a, b in zip(y, w)),
                  lambda sy, sw: sy + sw <= bound, (0,) * k)


def generator_window(generators, bound: Fraction) -> Window:
    """Sums of the generators up to size ``bound``, in units of 1/scale."""
    gens = [[Fraction(c) for c in g] for g in generators]
    scale = math.lcm(*(c.denominator for g in gens for c in g))
    steps = [tuple(int(c * scale) for c in g) for g in gens]
    limit = int(Fraction(bound) * scale)
    zero = (0,) * len(steps[0])
    found = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in steps:
                y = tuple(a + b for a, b in zip(x, g))
                if sum(y) <= limit and y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return Window(found, sum, lambda y, w: tuple(a + b for a, b in zip(y, w)),
                  lambda sy, sw: sy + sw <= limit, zero,
                  lambda x: tuple(Fraction(c, scale) for c in x))


def window_for(semigroup: dict, bound=None) -> Window:
    """The window of a spec's semigroup, or its part of size at most ``bound``."""
    kind = semigroup["kind"]
    if kind == "ordinary-dirichlet":
        return divisor_window(semigroup["k"], bound or semigroup["max_product"])
    if kind == "lattice":
        return lattice_window(semigroup["k"], bound or semigroup["size_bound"])
    return generator_window(semigroup["generators"],
                            Fraction(str(bound or semigroup["size_bound"])))


def key(ident) -> tuple:
    """A backend-neutral element key: ``[6]``, ``(6,)`` and ``["6"]`` agree."""
    return tuple(Fraction(c) for c in ident)


def digest(keys) -> str:
    """SHA-256 of a sequence of element keys; int and Fraction keys print alike."""
    h = hashlib.sha256()
    for k in keys:
        h.update((",".join(map(str, k)) + ";").encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# solving on a window


def coefficient(spec: dict, window: Window) -> list:
    """The exact values of a function spec, in window order."""
    n = len(window)
    if spec.get("builtin") == "one":
        return [Fraction(1)] * n
    if spec.get("builtin") == "unit":
        return [Fraction(1)] + [Fraction(0)] * (n - 1)
    if "const" in spec:
        return [Fraction(str(spec["const"]))] * n
    at = key(spec["indicator"])
    v = Fraction(str(spec.get("value", 1)))
    return [v if x == at else Fraction(0) for x in window.keys]


def scalar_equation(coefficient_specs, window: Window) -> list:
    """sum_j a_j g^j = 0 as a one-unknown system."""
    return [[(coefficient(spec, window), (j,))
             for j, spec in enumerate(coefficient_specs)]]


def system_equations(spec: dict, window: Window) -> list:
    return [[(coefficient(t["coeff"], window), tuple(t["exponents"])) for t in eq]
            for eq in spec["equations"]]


def _problem(op, window: Window):
    """An operation's equations on ``window`` and its base points, one per seeded root."""
    spec, expect = op["spec"], op["expect"]
    if op["kind"] == "system":
        return (system_equations(spec, window),
                [[Fraction(z) for z in spec["base_point"]]])
    roots = expect.get("roots") or [expect["root"]]
    return (scalar_equation(spec["equation"]["coefficients"], window),
            [[Fraction(r)] for r in roots])


def solutions(op, bound=None, num=Fraction):
    """(window, one solution per base point) of an equation or system operation.

    The window is the operation's own, or its part of size at most
    ``bound``: sizes add, so values there equal those on the full window.
    """
    window = window_for(op["spec"]["semigroup"], bound)
    equations, bases = _problem(op, window)
    return window, [solve(window, equations, b, num) for b in bases]


def _linear_solve(A, b):
    n = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col])
        M[col], M[piv] = M[piv], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [row[n] for row in M]


def solve(window: Window, equations, base_point, num=Fraction) -> list:
    """The solution of a polynomial system on ``window``, one value list per unknown.

    ``equations`` lists each equation's terms as (coefficient values in
    window order, exponent tuple).  Elements are taken in size order.
    At x every product of unknowns is affine in the new values g_l(x),
    which enter only through the pairs (x, 0) and (0, x).  So F(x) is
    formed with g(x) = 0, then g(x) = -J^{-1} F(x) with J the Jacobian
    at the base point, and each product at x is corrected by its part
    linear in g(x).  ``num`` is ``Fraction`` for an exact solve and
    ``float`` for a double one.
    """
    m, n = len(base_point), len(window)
    z = [num(v) for v in base_point]
    nil = num(0)
    g = [[z[l]] + [nil] * (n - 1) for l in range(m)]
    terms = [[([num(c) for c in cvals], tuple(l for l, e in enumerate(exps)
                                              for _ in range(e)))
              for cvals, exps in eq] for eq in equations]
    # products of two or more unknowns by factor tuple, shortest first,
    # so that each is built from one already known
    chains = sorted({fs[i:] for eq in terms for _, fs in eq
                     for i in range(len(fs) - 1)}, key=len)
    P = {fs: [math.prod((z[f] for f in fs), start=num(1))] + [nil] * (n - 1)
         for fs in chains}

    def series(fs):
        return g[fs[0]] if len(fs) == 1 else P[fs]

    def monomial(exps, skip):
        return math.prod((z[i] ** e for i, e in enumerate(exps) if i != skip), start=num(1))

    J = [[sum((num(c[0]) * exps[l] * z[l] ** (exps[l] - 1) * monomial(exps, l)
               for c, exps in eq if exps[l]), nil) for l in range(m)]
         for eq in equations]
    if num is Fraction and any(sum((c[0] * monomial(exps, None) for c, exps in eq), nil)
                               for eq in equations):
        raise ValueError("base point does not solve the system")
    for i in range(1, n):
        ys, ws = window.parts_y[i], window.parts_w[i]
        for fs in chains:
            head, rest = g[fs[0]], series(fs[1:])
            P[fs][i] = sum([head[y] * rest[w] for y, w in zip(ys, ws)], nil)
        F = []
        for eq in terms:
            total = nil
            for c, fs in eq:
                if fs:
                    q = series(fs)
                    total += sum([c[u] * q[v] for u, v in zip(ys, ws)], nil)
                else:
                    total += c[i]
            F.append(-total)
        dg = _linear_solve(J, F)
        for l in range(m):
            g[l][i] = dg[l]
        delta = {}
        for fs in chains:
            rest = fs[1:]
            rest0, drest = (z[rest[0]], dg[rest[0]]) if len(rest) == 1 else (
                P[rest][0], delta[rest])
            delta[fs] = dg[fs[0]] * rest0 + z[fs[0]] * drest
            P[fs][i] += delta[fs]
    return g


# ---------------------------------------------------------------------------
# comparisons


def compare_values(keys, want, got: dict, what: str, exact_mode: bool,
                   rel: float = 1e-9) -> list:
    """Compare the values ``want`` at ``keys`` with dirconv's ``got`` (key -> value).

    Double-mode tests are written so that a NaN fails them.
    """
    failures = []
    for k, w in zip(keys, want):
        at = "(" + ", ".join(map(str, k)) + ")"
        if k not in got:
            failures.append(f"{what}: element {at} missing from the output")
        elif exact_mode:
            if got[k] != w:
                failures.append(f"{what}: g{at} = {got[k]}, expected {w}")
        elif not abs(complex(got[k]) - float(w)) <= rel * max(1.0, abs(float(w))):
            failures.append(f"{what}: g{at} = {got[k]}, expected {float(w)!r}")
        if len(failures) >= 5:
            break
    return failures


def scalar_from_doc(v) -> complex:
    if isinstance(v, dict):
        return complex(float(Fraction(str(v.get("re", 0)))),
                       float(Fraction(str(v.get("im", 0)))))
    return complex(float(Fraction(str(v))))


def series_sum(idents, values, s) -> tuple:
    """(sum of g(x) e^{-x.s}, sum of |terms|) in plain complex arithmetic."""
    total = 0j
    scale = 0.0
    for ident, v in zip(idents, values):
        term = complex(v) * cmath.exp(-sum(float(c) * si for c, si in zip(ident, s)))
        total += term
        scale += abs(term)
    return total, scale
