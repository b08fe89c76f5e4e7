"""The truncated Dirichlet algebra over an enumerated window.

A :class:`TruncatedFunction` is a dense value vector aligned with the
enumeration order; because sizes add under the semigroup operation, the
window {|x| <= B} is closed under decomposition and convolution of two
window functions agrees with the untruncated convolution everywhere on
the window.

Values are exact Gaussian rationals (``exact=True``) or doubles: a
``float`` where real, a ``complex`` where not.
Norm-flavoured quantities are always floats computed with outward
rounding so that certificates never under-report a sum.

An equation in unknowns g_1, ..., g_m is a list of :class:`Monomial`
terms, the one form :func:`sweep` reads: scalar equations, square
systems and the convolution inverse all reach it that way.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import add, getitem, mul

from .errors import BackendMismatch, MathematicalRefusal, NotASimpleRoot, NotInvertible
from .roots import anchor_gate
from .rounding import abs_bounds, frac_bounds, mul_dn, mul_up, weight_bounds
from .scalars import QC, double_value, exact_value
from .semigroup import Enumeration, step_sums


class TruncatedFunction:
    """An arithmetic function restricted to an enumerated window."""

    __slots__ = ("enum", "values", "exact")

    def __init__(self, enum: Enumeration, values, exact: bool):
        self.enum = enum
        self.values = tuple(values)
        self.exact = exact
        if len(self.values) != len(enum):
            raise ValueError("value vector does not match the enumeration length")

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
        g, h = one_mode((self, other))
        return TruncatedFunction(
            g.enum, tuple(a + b for a, b in zip(g.values, h.values)), g.exact)

    def __sub__(self, other):
        g, h = one_mode((self, other))
        return TruncatedFunction(
            g.enum, tuple(a - b for a, b in zip(g.values, h.values)), g.exact)

    def scale(self, c):
        c = exact_value(c) if self.exact else double_value(c)
        return TruncatedFunction(self.enum, tuple(c * v for v in self.values), self.exact)

    def is_zero(self) -> bool:
        return not any(self.values)

    def to_double(self) -> "TruncatedFunction":
        """The values in doubles; a value past the double range is refused."""
        if not self.exact:
            return self
        try:
            return TruncatedFunction(self.enum, map(double_value, self.values), False)
        except OverflowError:
            raise MathematicalRefusal("an exact value lies outside the double range") from None

    def max_abs(self) -> float:
        """Round-up bound of max |g(x)| over the window; NaN if a value is NaN."""
        return max(0.0, *(abs_bounds(v)[1] for v in self.values), key=lambda v: (v != v, v))


@dataclass(frozen=True)
class Monomial:
    """c * g_1^{*e_1} * ... * g_m^{*e_m}: one term of an equation in m
    unknowns, and the only term form the sweep and the residual read."""

    coeff: TruncatedFunction
    exponents: tuple

    def total_degree(self) -> int:
        return sum(self.exponents)


def one_mode(functions) -> tuple:
    """The functions on one window and in one mode, the one mode rule of
    the package: unchanged when all are exact, else each in doubles (exact
    data that meet doubles run in doubles).  Differing windows raise
    :class:`BackendMismatch`."""
    fs = tuple(functions)
    for f in fs[1:]:
        if f.enum is not fs[0].enum and f.enum.signature != fs[0].enum.signature:
            raise BackendMismatch(
                f"windows differ: {fs[0].enum.signature} vs {f.enum.signature}")
    return fs if all(f.exact for f in fs) else tuple(f.to_double() for f in fs)


# ---------------------------------------------------------------------------
# constructors


def unit(enum: Enumeration, exact: bool = True) -> TruncatedFunction:
    """The convolution identity: 1 at the zero element, 0 elsewhere."""
    return from_pairs(enum, [(enum[0].ident, 1)], exact)


def constant(enum: Enumeration, c, exact: bool = True) -> TruncatedFunction:
    """The constant function c on the whole window."""
    c = exact_value(c) if exact else double_value(c)
    return TruncatedFunction(enum, [c] * len(enum), exact)


def one(enum: Enumeration, exact: bool = True) -> TruncatedFunction:
    """The constant-one function; its inverse is the generalized Moebius function."""
    return constant(enum, 1, exact)


def indicator(enum: Enumeration, ident, value=1, exact: bool = True) -> TruncatedFunction:
    """The point mass ``value`` at one enumerated element."""
    return from_pairs(enum, [(ident, value)], exact)


def from_pairs(enum: Enumeration, pairs, exact: bool = True) -> TruncatedFunction:
    """Build a function from (ident, value) pairs; unnamed entries are 0."""
    vals = [Fraction(0) if exact else 0.0] * len(enum)
    for ident, value in pairs:
        vals[enum.index_of(tuple(ident))] = (
            exact_value(value) if exact else double_value(value))
    return TruncatedFunction(enum, vals, exact)


# ---------------------------------------------------------------------------
# ring operations


def dot(a, b, us, vs, d):
    """Doubles or ints: the sum of a[u] * b[v] + a[v] * b[u] over a half row,
    plus a[d] * b[d] for a middle pair d >= 0 (a plain loop: faster here
    than a chain of ``map`` calls on double values)."""
    acc = a[d] * b[d] if d >= 0 else 0
    for u, v in zip(us, vs):
        acc = acc + a[u] * b[v] + a[v] * b[u]
    return acc


def square(a, us, vs, d):
    """Doubles or ints: :func:`dot` of a with itself, each pair's product once, doubled."""
    acc = 0
    for u, v in zip(us, vs):
        acc = acc + a[u] * a[v]
    return acc + acc + a[d] * a[d] if d >= 0 else acc + acc


def shape(v) -> int:
    """0 if the values vanish off 0, 1 if they are constant on the whole
    window, else 2: the one structure test of every product.  Counted in
    place: a slice would copy the values."""
    c, head = v[-1], v[0] == v[-1]
    return 2 if v.count(c) - head != len(v) - 1 else 0 if not c else 1 if head else 2


def reader(a, b, exact, a_const=False):
    """How one product, the sum of a[u] * b[v] over the ordered pairs of the
    half rows it is handed (whole ones from :func:`convolve`, the sweep's
    after (0, x)) and their middle pairs, reads them; decided once.  With
    ``exact`` every pair goes through :func:`qdot`, over :class:`Ratios`
    built here (the sweep's live tables are Ratios already), one for a
    table times itself, which qdot then reads as a square.  On doubles,
    or on the Python ints of :func:`integral` data, a table times itself
    is the :func:`square`, an ``a`` constant on the rows read (``a_const``)
    gathers b over both columns at C speed, and any other is :func:`dot`."""
    if exact:
        ra = a if type(a) is Ratios else Ratios(a)
        return partial(qdot, ra, ra if a is b else b if type(b) is Ratios else Ratios(b))
    if a is b:
        return partial(square, a)
    if a_const:
        c, get = a[-1], b.__getitem__
        return lambda us, vs, d: c * sum(map(get, vs),
                                         sum(map(get, us), b[d] if d >= 0 else 0))
    return partial(dot, a, b)


def _ratio(v):
    """(numerator, denominator) of an exact value.  A Gaussian rational's
    numerator is the QC of its parts' integer numerators over their
    common denominator."""
    if type(v) is not QC:
        return v.as_integer_ratio()
    den = math.lcm(v.re.denominator, v.im.denominator)
    return QC(v.re * den, v.im * den), den


class Ratios(list):
    """Exact values with their (numerator, denominator) integers beside
    them: the operands of :func:`qdot`, built and dropped in one call."""

    __slots__ = ("nums", "dens")

    def __init__(self, values):
        super().__init__(values)
        self.nums, self.dens = map(list, zip(*map(_ratio, self)))

    def __setitem__(self, x, v):
        super().__setitem__(x, v)
        self.nums[x], self.dens[x] = _ratio(v)


def qdot(a: Ratios, b: Ratios, us, vs, d):
    """Exact mode: :func:`dot` over integers, both products of each pair,
    or for a table times itself (``a is b``) each pair's product once,
    the half row's sum doubled before the middle pair is added.

    A product is skipped as soon as either numerator is 0; the others are
    summed as one numerator over a running common denominator, and one
    Fraction (or QC) is built at the end.
    """
    an, ad, bn, bd = a.nums, a.dens, b.nums, b.dens
    num, den, twice = 0, 1, a is b
    for pairs in (zip(us, vs) if twice else itertools.chain(zip(us, vs), zip(vs, us)),
                  [(d, d)] * (d >= 0)):
        for u, v in pairs:
            p = an[u]
            if p:
                q = bn[v]
                if q:
                    e = ad[u] * bd[v]
                    if den % e:
                        g = math.gcd(den, e)
                        num, den = num * (e // g), den // g * e
                    num += p * q * (den // e)
        if twice:
            num, twice = num + num, False
    return Fraction(num, den) if type(num) is int else exact_value(num / den)


def integral(vectors):
    """Each vector's values as Python ints, keyed by its ``id``, if all are
    Fractions with denominator 1, else None: products on them skip qdot."""
    if all(type(q) is Fraction and q.denominator == 1 for v in vectors for q in v):
        return {id(v): [q.numerator for q in v] for v in vectors}


def convolve(g: TruncatedFunction, h: TruncatedFunction) -> TruncatedFunction:
    """(g*h)(x) = sum over all decompositions x = x' + x'' of g(x')h(x'').

    Exact on the whole window because sizes are additive.  An operand that
    vanishes off 0 scales the other, one constant on a window with ``steps``
    the other's :func:`step_sums`; else each whole half row and its middle
    pair go through one :func:`reader`, on ints if both are :func:`integral`.
    """
    g, h = one_mode((g, h))
    gv, hv = sorted((g.values, h.values), key=shape)     # the more structured first
    shape_g = shape(gv)
    if shape_g == 1 and g.enum.steps:
        shape_g, hv = 0, step_sums(list(hv), g.enum.steps)
    if not shape_g:
        return TruncatedFunction(g.enum, [gv[0] * v for v in hv], g.exact)
    dec = g.enum.decomp
    first, second = dec.first, dec.second
    rows = zip(dec.offsets, dec.offsets[1:], dec.middle)  # a list would outweigh the table
    ints = g.exact and integral([gv, hv])
    gv, hv = (ints[id(gv)], ints[id(hv)]) if ints else (gv, hv)
    read = reader(gv, hv, g.exact and not ints, shape_g == 1)
    values = [read(first[a:b], second[a:b], d) for a, b, d in rows]
    return TruncatedFunction(g.enum, map(Fraction, values) if ints else values, g.exact)


def invert(g: TruncatedFunction) -> TruncatedFunction:
    """The convolution inverse, defined whenever g(0) != 0.

    The inverse h solves the degree-1 equation g * h - unit = 0 with
    h(0) = 1/g(0), and it is that equation's :func:`sweep`: the sweep's
    gate judges the base point, so in double mode |g(0)| <= 1e-6, NaN
    and inf are refused, as :class:`NotInvertible`.
    """
    v0, e = g.values[0], g.enum
    terms = [Monomial(indicator(e, e[0].ident, -1, g.exact), (0,)), Monomial(g, (1,))]
    try:   # g(0) = 0 keeps h(0) = 0, which fails the root test: F = [-1]
        return sweep([terms], (1 / v0 if v0 else v0,))[0]
    except NotASimpleRoot as exc:
        raise NotInvertible(f"g(0) = {v0!r} has no convolution inverse: {exc}") from None


# ---------------------------------------------------------------------------
# the sweep shared by inversion, equations and systems


def prefix_tree(equations, z0, zero):
    """Every distinct prefix of the terms' factor sequences, parents first,
    as (index, nodes, at0, grad): ``index`` maps a prefix to its node
    number; node 0 is the empty product and node k > 0 is (parent node,
    last factor l), the product of its parent with g_l; ``at0[k]`` is the
    node's value at the base point and ``grad[k][l]`` its partial
    derivative in z_l there, both in the number type of z0 and ``zero``."""
    index, nodes, at0, grad = {(): 0}, [None], [zero + 1], [[zero] * len(z0)]
    for fs in dict.fromkeys(fs[:n] for eq in equations for _, fs in eq
                            for n in range(1, len(fs) + 1)):
        k, l = index[fs[:-1]], fs[-1]
        index[fs] = len(nodes)
        nodes.append((k, l))
        at0.append(at0[k] * z0[l])
        grad.append([d * z0[l] + at0[k] if i == l else d * z0[l]
                     for i, d in enumerate(grad[k])])
    return index, nodes, at0, grad


def sweep(equations, z0):
    """The window functions g_1, ..., g_m that the equations force.

    ``equations`` lists, per equation, its :class:`Monomial` terms, whose
    coefficients :func:`one_mode` has put on one window and in one mode:
    the sweep's window and mode are theirs.  ``z0`` holds the values at 0,
    taken into that mode.  F and J are summed over the prefix tree and
    :func:`anchor_gate` judges them: the one gate of every sweep, so a
    scalar equation and its one-unknown system get one verdict and one
    J^{-1}.  Once it passes, if z0, J^{-1} and every coefficient value are
    :func:`integral`, so is every g(x), and the sweep runs on Python ints.
    One table is kept per factor prefix that a pair product reads (g_l for
    one factor), one :func:`reader` per pair product: none for a
    coefficient that vanishes off 0; on a window with ``steps``, running
    step sums of the table (the online :func:`step_sums`) for one constant
    off 0; the pairs (s, x - s) of its support for one whose support off 0
    has fewer pairs than the n - 1 rows.  Each term's c(x) z0-part is
    dropped or fixed once where c is 0 or constant off 0.  At each element
    the tables and equations are evaluated with the unknowns masked out,
    J^{-1} is applied once, and each table gets the linear term z0 fixes.
    A double sweep that overflows is refused at the first element, in
    window order, where an unknown is not finite, naming each such unknown.
    """
    enum, exact = equations[0][0].coeff.enum, equations[0][0].coeff.exact
    zero = Fraction(0) if exact else 0.0
    z0 = tuple(map(exact_value if exact else double_value, z0))
    m, n = len(z0), len(enum)
    # each term as (coefficient values, factor sequence): (0, 0, 1) for g_1 * g_1 * g_2
    equations = [[(t.coeff.values, tuple(l for l, e in enumerate(t.exponents)
                                         for _ in range(e))) for t in eq]
                 for eq in equations]
    index, nodes, at0, grad = prefix_tree(equations, z0, zero)
    F = [sum((c[0] * at0[index[fs]] for c, fs in eq), zero) for eq in equations]
    J = [[sum((c[0] * grad[index[fs]][l] for c, fs in eq), zero)
          for l in range(m)] for eq in equations]
    Jinv = anchor_gate(F, J, [c[0] for eq in equations for c, _ in eq], exact)
    if ints := exact and integral([z0, *Jinv, *(c for eq in equations for c, _ in eq)]):
        zero, z0, Jinv = 0, ints[id(z0)], [ints[id(row)] for row in Jinv]
        equations = [[(ints[id(c)], fs) for c, fs in eq] for eq in equations]
        index, nodes, at0, grad = prefix_tree(equations, z0, zero)
    qs = exact and not ints     # whether products read through qdot
    dec = enum.decomp       # built before the tables below, which would add to its peak
    linear = [[(l, d) for l, d in enumerate(dk) if d] for dk in grad]
    G = [(Ratios if qs else list)([z] + [zero] * (n - 1)) for z in z0]
    Q = [None] + [None if p else G[l] for p, l in nodes[1:]]

    def tab(k):     # the table of node k, made when a product first reads it
        Q[k] = Q[k] or (Ratios if qs else list)([at0[k]] + [zero] * (n - 1))
        return Q[k]

    # per table that a coefficient constant off 0 multiplies on a window with
    # steps, its running step sums S_1..S_m over y != 0, index n kept 0 for
    # x - s off the window: sum_i S_i(x - s_i) is sum_{0<y<x} Q(y)
    steps, sums = enum.steps, {}

    def support(c):     # x -> [(c(s), t)] over the pairs (s, t) of x with s in c's
        at, count = {}, 0   # support off 0; None once they reach the n - 1 rows read
        for s in filter(c.__getitem__, range(1, n)):
            for count, (t, y) in enumerate(enum.partners(s), count + 1):
                at.setdefault(y, []).append((c[s], t))
            if count >= n - 1:
                return None
        return at

    def term_reader(c, k):   # the sweep reads c off 0 only, so it asks shape about c[1:]
        if (gather := shape(c[1:] or c) == 1) and steps:
            _, S = sums[k] = sums.get(k) or (tab(k), [[zero] * (n + 1) for _ in steps])
            return lambda us, vs, d, c=c[-1]: c * sum(map(getitem, S, xs))
        if gather or (at := support(c)) is None:
            return reader(c, tab(k), qs, gather)
        q = tab(k)
        return lambda us, vs, d: reduce(add, [v * q[t] for v, t in at[x]]) if x in at else zero

    # each term as (cx, a, k, scale, read), decided once: c(x) at0[k] is cx[x] * a,
    # or a where c is constant off 0, or 0 (a None); scale is c(0) on a product
    # node (True for a real 1: no product), else 0, as masked[k] is 0 there
    def term(c, fs):
        k, c0 = index[fs], c[0]
        lin = (None, None) if not (shape(c) and at0[k]) else (
            (None, c[-1] * at0[k]) if shape(c[1:] or c) == 1 else (c, at0[k]))
        scale = k and nodes[k][0] and c0 and (c0 == 1 and type(c0) is not complex or c0)
        return *lin, k, scale, term_reader(c, k) if fs and shape(c) else None

    chain = [(k, p, z0[l], reader(tab(p), G[l], qs))
             for k, (p, l) in enumerate(nodes[1:], 1) if p]
    terms = [[term(c, fs) for c, fs in eq] for eq in equations]
    kept = [(Q[k], k, linear[k]) for k in range(1, len(nodes)) if nodes[k][0] and Q[k]]
    negJinv = [[-v for v in row] for row in Jinv]
    # double sums start at +0.0, or -1.0 * 0.0 would leave a value 0 at -0.0
    start = () if exact else (zero,)
    first, second, offsets, middle = dec.first, dec.second, dec.offsets, dec.middle
    for x in range(1, n):
        # (0, x) opens every half row; the pairs after it and the middle
        # pair only touch elements smaller than x
        a, b, d = offsets[x] + 1, offsets[x + 1], middle[x]
        us, vs = first[a:b], second[a:b]
        # table values at x with every g_l(x) taken as 0; one-factor
        # tables and the unit table vanish there
        masked = [zero] * len(nodes)
        for k, p, zl, read in chain:
            prod = read(us, vs, d)
            masked[k] = masked[p] * zl + prod if masked[p] else prod
        xs = [back[x] for back in steps] if sums else None     # the elements x - s
        known = []
        for eq in terms:
            parts = []
            for cx, a, k, scale, read in eq:
                if a is not None and (cx is None or cx[x]):
                    parts.append(a if cx is None else cx[x] * a)
                part = (m if scale is True else scale * m) if scale and (m := masked[k]) else None
                if read:
                    prod = read(us, vs, d)
                    part = prod if part is None else part + prod
                if part:
                    parts.append(part)
            known.append(reduce(add, parts) if parts else zero)
        for l, row in enumerate(negJinv):
            G[l][x] = reduce(add, map(mul, row, known), *start)
        for q, k, lin in kept:
            q[x] = masked[k] + sum([dl * G[l][x] for l, dl in lin])
        if sums:    # S_1(x) = Q(x) + S_1(x - s_1), S_i(x) = S_i-1(x) + S_i(x - s_i)
            for q, S in sums.values():
                v = q[x]
                for s, y in zip(S, xs):
                    v = s[x] = v + s[y]
    if not (exact or all(all(map(cmath.isfinite, g)) for g in G)):
        x = next(x for x, row in enumerate(zip(*G)) if not all(map(cmath.isfinite, row)))
        at = ", ".join(map(str, enum[x].ident))
        bad = [f"g_{l + 1}({at}) = {g[x]}" for l, g in enumerate(G) if not cmath.isfinite(g[x])]
        raise MathematicalRefusal(f"{bad[0]} lies outside the double range"
                                  + "".join(f", as does {b}" for b in bad[1:])
                                  + ": the sweep overflows")
    return tuple(TruncatedFunction(enum, map(Fraction, g) if ints else g, exact) for g in G)


# ---------------------------------------------------------------------------
# norms


def weighted_terms(g: TruncatedFunction, r):
    """Directed bounds of |g(x)| e^(-r|x|), one element at a time.

    Yields (size key, round-down term, round-up term) in window order;
    every norm, partial sum and tail of the package is summed from these.
    The rate r (a double or a rational) is bracketed once: round-down
    terms take it rounded up, round-up terms rounded down.  Zero values
    need no weight; a value repeated in a row is bracketed once, the
    weight is found once per size level (the window is in key order),
    and the term is reused while both repeat.
    """
    prev = level = None
    r_lo, r_hi = frac_bounds(r)
    size_bounds = g.enum.backend.size_bounds
    for e, v in zip(g.enum.elements, g.values):
        if v is not prev:
            prev, terms = v, None
            a_lo, a_hi = abs_bounds(v)
        if not a_hi:
            yield e.key, 0.0, 0.0
            continue
        if e.key != level:
            level, terms = e.key, None
            w_lo, w_hi = weight_bounds(r_lo, r_hi, *size_bounds(level))
        if terms is None:
            terms = mul_dn(a_lo, w_lo), mul_up(a_hi, w_hi)
        yield e.key, *terms

