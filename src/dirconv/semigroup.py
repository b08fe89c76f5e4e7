"""Discrete additive semigroups X inside [0,inf)^k with exact element identity.

Three backend families:

* :class:`Lattice` -- X = N0^k; an element is a tuple of non-negative
  integers and its size is the coordinate sum.
* :class:`OrdinaryDirichlet` -- X = (log N)^k; an element is the integer
  tuple (n_1,...,n_k) with n_i >= 1 standing for (log n_1,...,log n_k).
  Sizes are sums of logarithms and are compared exactly through the
  integer product n_1*...*n_k (a monotone bijection), never through
  floats.
* :class:`RationalGenerators` -- all N0-combinations of finitely many
  positive rational vectors; the identity of an element is its exact
  coordinate vector, so colliding generator combinations merge.

``enumerate_semigroup`` lists the window {x : |x| <= B} (or the N
smallest elements) in the total order "size, then lexicographic
identity".  That order is the induction order of every recursion in the
rest of the library.  The enumeration also owns the shared additive
decomposition table x = x' + x'' used by convolution, a flat
:class:`DecompTable` built by one integer scan: every backend gives each
element an exact integer size key and an integer code of its identity
(see ``scan_plan``), so the scan adds or multiplies ints and looks them
up in one int-keyed dict.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce, total_ordering
from operator import add, mul

from .errors import EmptyTruncation, NotEnumerated, OnlyZero
from .rounding import dn, frac_bounds, up
from .scalars import format_rational, parse_rational


@total_ordering
class LogInt:
    """The size log(n) of an ordinary-Dirichlet element, kept exact as n.

    Comparison, equality and addition (= integer multiplication) are
    exact; ``bounds()`` gives directed float enclosures of log(n).
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("LogInt argument must be a positive integer")
        self.n = n

    def __repr__(self):
        return f"LogInt({self.n})"

    def __eq__(self, other):
        return isinstance(other, LogInt) and self.n == other.n

    def __hash__(self):
        return hash(("LogInt", self.n))

    def __lt__(self, other):
        return self.n < other.n

    def __add__(self, other):
        return LogInt(self.n * other.n)

    def __float__(self):
        return math.log(self.n)

    def __bool__(self):
        return self.n != 1

    def bounds(self) -> tuple[float, float]:
        if self.n == 1:
            return 0.0, 0.0
        v = math.log(self.n)
        return dn(dn(v)), up(up(v))


def size_bounds(size) -> tuple[float, float]:
    """Directed float bounds of an exact size value."""
    if isinstance(size, LogInt):
        return size.bounds()
    return frac_bounds(size)


@dataclass(frozen=True)
class Element:
    """One semigroup element: exact identity and exact size.

    For the ordinary-Dirichlet backend the integer tuple ``ident``
    stands for its componentwise logarithms.
    """

    ident: tuple
    size: object  # int | Fraction | LogInt, homogeneous per backend

    def __repr__(self):
        return f"Element{self.ident}"


# ---------------------------------------------------------------------------
# backends


@dataclass(frozen=True)
class Lattice:
    """X = N0^k under componentwise addition."""

    k: int
    kind = "lattice"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("lattice dimension must be >= 1")

    def zero_ident(self):
        return (0,) * self.k

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def make_element(self, ident) -> Element:
        return Element(ident, sum(ident))

    def validate_ident(self, raw):
        t = tuple(int(v) for v in raw)
        if len(t) != self.k or any(v < 0 for v in t):
            raise ValueError(f"not a point of N0^{self.k}: {raw!r}")
        return t

    def ident_json(self, ident):
        return list(ident)

    def idents_up_to(self, bound):
        return list(_tuples_sum_at_most(self.k, math.floor(bound)))

    def initial_bound(self):
        return 4

    def scan_plan(self, idents):
        """The integer form of a window for the decomposition scan.

        ``idents`` are the window's identities in window order.  Returns
        (keys, codes, limit, sums): exact integer size keys, ascending;
        one integer code per identity; ``limit(key)``, the largest
        partner key whose sum with an element of size key ``key`` stays
        in the window; and ``sums(i, jmax)``, the codes of e_i + e_j for
        j < jmax.  Here the key is the coordinate sum and the code is a
        mixed-radix int, so adding elements adds codes.
        """
        return _additive_plan(idents)


def _radix_weights(k, top):
    """Mixed-radix place values for k coordinates that never exceed ``top``."""
    return [(top + 1) ** m for m in range(k)]


def _additive_plan(points):
    """Scan plan of a window of non-negative integer coordinate vectors
    under addition.  A sum kept in the window has every coordinate at
    most the largest key, so its mixed-radix code is the sum of codes."""
    keys = [sum(p) for p in points]
    top = keys[-1]
    weights = _radix_weights(len(points[0]), top)
    codes = [sum(map(mul, p, weights)) for p in points]

    def sums(i, jmax):
        return map(add, itertools.repeat(codes[i]), itertools.islice(codes, jmax))

    return keys, codes, lambda key: top - key, sums


def _tuples_sum_at_most(k, n):
    if k == 1:
        for i in range(n + 1):
            yield (i,)
        return
    for i in range(n + 1):
        for rest in _tuples_sum_at_most(k - 1, n - i):
            yield (i,) + rest


@dataclass(frozen=True)
class OrdinaryDirichlet:
    """X = (log N)^k; identities are integer tuples (n_1,...,n_k), n_i >= 1."""

    k: int
    kind = "ordinary-dirichlet"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("dimension must be >= 1")

    def zero_ident(self):
        return (1,) * self.k

    def add(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def make_element(self, ident) -> Element:
        return Element(ident, LogInt(math.prod(ident)))

    def validate_ident(self, raw):
        t = tuple(int(v) for v in raw)
        if len(t) != self.k or any(v < 1 for v in t):
            raise ValueError(f"not an index tuple of N^{self.k}: {raw!r}")
        return t

    def ident_json(self, ident):
        return list(ident)

    def idents_up_to(self, bound):
        # bound is the maximal product (an int); the size bound is log(bound)
        return list(_tuples_product_at_most(self.k, int(bound)))

    def initial_bound(self):
        return 4

    def scan_plan(self, idents):
        """As :meth:`Lattice.scan_plan`, with the product n_1*...*n_k as
        the key; a product of elements multiplies keys.  The code of
        e_i * e_j is sum_m (n_m w_m) n'_m for the place values w_m, so the
        codes of one row are k int products per partner, summed."""
        keys = [math.prod(t) for t in idents]
        top = keys[-1]
        weights = _radix_weights(self.k, top)
        columns = list(zip(*idents))

        def sums(i, jmax):
            return reduce(partial(map, add), [
                map(mul, itertools.repeat(n * w), itertools.islice(col, jmax))
                for n, w, col in zip(idents[i], weights, columns)])

        codes = [sum(map(mul, t, weights)) for t in idents]
        return keys, codes, lambda key: top // key, sums


def _tuples_product_at_most(k, n):
    if k == 1:
        for i in range(1, n + 1):
            yield (i,)
        return
    for i in range(1, n + 1):
        for rest in _tuples_product_at_most(k - 1, n // i):
            yield (i,) + rest


@dataclass(frozen=True)
class RationalGenerators:
    """The semigroup generated by finitely many positive rational vectors.

    Discreteness is automatic: all coordinates share a common
    denominator, so sizes live in (1/q)*N0 and cannot accumulate.
    """

    generators: tuple
    kind = "rational-generators"

    def __post_init__(self):
        gens = tuple(tuple(parse_rational(c) for c in g) for g in self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        k = len(gens[0])
        for g in gens:
            if len(g) != k:
                raise ValueError("generators must share one dimension")
            if any(c < 0 for c in g) or not any(c > 0 for c in g):
                # non-negative coordinates with positive size keep every
                # window finite: sizes lie in (1/q) N0 for the common
                # denominator q
                raise ValueError(
                    f"generators need non-negative coordinates and positive size: {g}")
        object.__setattr__(self, "generators", gens)

    @property
    def k(self):
        return len(self.generators[0])

    def zero_ident(self):
        return (Fraction(0),) * self.k

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def make_element(self, ident) -> Element:
        return Element(ident, sum(ident, Fraction(0)))

    def validate_ident(self, raw):
        t = tuple(parse_rational(c) for c in raw)
        if len(t) != self.k or any(c < 0 for c in t):
            raise ValueError(f"not a point of the generated semigroup: {raw!r}")
        return t

    def ident_json(self, ident):
        return [format_rational(c) for c in ident]

    def idents_up_to(self, bound):
        bound = parse_rational(bound) if not isinstance(bound, (int, Fraction)) else bound
        zero = self.zero_ident()
        if bound < 0:
            return []
        seen = {zero}
        out = [zero]
        heap = [(Fraction(0), zero)]
        while heap:
            size, ident = heapq.heappop(heap)
            for g in self.generators:
                nxt = self.add(ident, g)
                nsize = size + sum(g, Fraction(0))
                if nsize > bound or nxt in seen:
                    continue
                seen.add(nxt)
                out.append(nxt)
                heapq.heappush(heap, (nsize, nxt))
        return out

    def initial_bound(self):
        return min(sum(g, Fraction(0)) for g in self.generators) * 8

    def scan_plan(self, idents):
        """As :meth:`Lattice.scan_plan` on the identities scaled by q, the
        lcm of the generator denominators: q*X lies in N0^k, and the key
        is q times the size."""
        q = math.lcm(*(c.denominator for g in self.generators for c in g))
        return _additive_plan([tuple(c.numerator * (q // c.denominator) for c in t)
                               for t in idents])


# ---------------------------------------------------------------------------
# enumeration


class DecompTable:
    """The decomposition pairs of a window in CSR form.

    The ordered pairs (i, j) with e_i + e_j = e_t are ``first[a:b]`` and
    ``second[a:b]`` for a, b = ``offsets[t]``, ``offsets[t + 1]``, first
    component ascending.  ``table[t]`` returns them as a tuple of (i, j)
    pairs, and iterating the table yields those tuples element by element.
    """

    __slots__ = ("offsets", "first", "second")

    def __init__(self, buckets):
        # buckets[t] lists the first components of e_t's pairs, ascending;
        # it is reversed in place.  Every pair (i, j) has its mirror
        # (j, i), and the window order survives translation, so j falls
        # as i rises: the second components are the first ones reversed.
        self.offsets = array("i", itertools.accumulate(map(len, buckets), initial=0))
        self.first = array("i")
        self.second = array("i")
        consume = deque(maxlen=0).extend
        consume(map(self.first.fromlist, buckets))
        consume(map(list.reverse, buckets))
        consume(map(self.second.fromlist, buckets))

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, t):
        t = range(len(self))[t]
        a, b = self.offsets[t], self.offsets[t + 1]
        return tuple(zip(self.first[a:b], self.second[a:b]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class _Buckets(dict):
    """Identity code -> pair bucket; the sum of a pair that a
    ``max_elements`` window cut from its top level lands in a bucket
    that nobody keeps."""

    def __missing__(self, code):
        return []


class Enumeration:
    """A size-complete, totally ordered window of a semigroup backend.

    Immutable after construction; decomposition tables are built lazily
    and shared by every convolution over this window.
    """

    def __init__(self, backend, elements, truncation):
        self.backend = backend
        self.elements = elements
        self.truncation = truncation
        self._index = {e.ident: i for i, e in enumerate(elements)}
        if len(self._index) != len(elements):
            raise AssertionError("duplicate elements in enumeration")
        if not elements or elements[0].ident != backend.zero_ident():
            raise EmptyTruncation("window does not contain the zero element")
        for a, b in itertools.pairwise(elements):
            if not (a.size < b.size or (a.size == b.size and a.ident < b.ident)):
                raise AssertionError("enumeration order violated")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @property
    def signature(self):
        """Equal backends with equal truncations enumerate equal windows."""
        return (self.backend, self.truncation)

    def index_of(self, x) -> int:
        ident = x.ident if isinstance(x, Element) else x
        i = self._index.get(ident)
        if i is None:
            raise NotEnumerated(f"{ident!r} is outside the enumerated window")
        return i

    def __contains__(self, x):
        ident = x.ident if isinstance(x, Element) else x
        return ident in self._index

    @cached_property
    def levels(self):
        """Distinct sizes 0 = m_0 < m_1 < ... with their element index ranges."""
        groups = itertools.groupby(range(len(self)), lambda i: self.elements[i].size)
        return [(size, tuple(ix)) for size, ix in groups]

    @cached_property
    def decomp(self) -> DecompTable:
        """For each element index t, all ordered pairs (i, j) with e_i + e_j = e_t.

        One pass over the elements in window order on the backend's
        integer scan plan: for e_i, the partners e_j whose size keys keep
        the sum in the window form a prefix of the window (the keys
        ascend), and each sum's code is looked up in one int-keyed dict.
        So the pairs of every element come out with the first component
        ascending.  No per-pair object is kept: each element's bucket
        holds the shared int i, and the buckets become a flat table.
        """
        keys, codes, limit, sums = self.backend.scan_plan(
            [e.ident for e in self.elements])
        buckets = [[] for _ in keys]
        index = _Buckets(zip(codes, buckets))
        consume = deque(maxlen=0).extend
        for i, key in enumerate(keys):
            targets = map(index.__getitem__, sums(i, bisect_right(keys, limit(key))))
            consume(map(list.append, targets, itertools.repeat(i)))
        return DecompTable(buckets)

    def decompositions(self, x):
        """All ordered pairs (x', x'') of enumerated elements with x' + x'' = x."""
        t = self.index_of(x)
        els = self.elements
        return [(els[i], els[j]) for i, j in self.decomp[t]]

    @property
    def m1(self):
        """Minimal positive element size in the window."""
        if len(self.elements) < 2:
            raise OnlyZero("window contains no non-zero element")
        return self.elements[1].size


def enumerate_semigroup(backend, size_bound=None, max_elements=None) -> Enumeration:
    """Enumerate the window of ``backend`` in (size, lex-identity) order.

    Exactly one truncation must be given.  ``size_bound`` keeps every
    element of size <= B (for the ordinary-Dirichlet backend the bound
    is the maximal index product, i.e. B = log(bound)).  ``max_elements``
    keeps the N smallest elements in the total order; the window is then
    size-complete below its top size level, which is all convolution
    ever needs.
    """
    if (size_bound is None) == (max_elements is None):
        raise ValueError("specify exactly one of size_bound, max_elements")

    if size_bound is not None:
        if size_bound < 0:
            raise EmptyTruncation(f"size bound {size_bound} is negative")
        idents = backend.idents_up_to(size_bound)
        truncation = ("size_bound", size_bound)
    else:
        n = int(max_elements)
        if n < 1:
            raise EmptyTruncation("max_elements must be >= 1")
        bound = backend.initial_bound()
        idents = backend.idents_up_to(bound)
        while len(idents) < n:
            bound *= 2
            new = backend.idents_up_to(bound)
            if len(new) == len(idents):  # semigroup exhausted below any bound?
                break
            idents = new
        truncation = ("max_elements", n)

    elements = sorted((backend.make_element(i) for i in idents),
                      key=lambda e: (e.size, e.ident))
    if max_elements is not None:
        elements = elements[:max_elements]
    if not elements:
        raise EmptyTruncation("window is empty")
    return Enumeration(backend, elements, truncation)


def min_positive_size(enum: Enumeration):
    """m_1 = min{|x| : x in X, x != 0} within the window."""
    return enum.m1
