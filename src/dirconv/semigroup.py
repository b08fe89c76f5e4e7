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

Every element carries one exact integer size key (the coordinate sum,
the product n_1*...*n_k, or q times the size for the common denominator
q of the generators), and only its backend turns a key into a size.
``enumerate_semigroup`` lists the window {x : |x| <= B} (or the N
smallest elements) in the total order "size, then lexicographic
identity", i.e. by (key, identity).  That order is the induction order
of every recursion in the rest of the library.  The enumeration also
owns the shared additive decomposition table x = x' + x'' used by
convolution, a flat :class:`DecompTable` holding each unordered pair
once, built by one integer scan over the keys and an integer code of
each identity (see ``scan_plan``), so the scan adds or multiplies ints
and looks them up in one int-keyed dict; a window free on finitely many
steps also gets a step index (``Enumeration.steps``).
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import add, mul, sub

from .errors import EmptyTruncation, NotEnumerated, OnlyZero, WindowTooLarge
from .rounding import dn, frac_bounds, up
from .scalars import parse_count, parse_rational

#: windows are refused past these: identities a walk lists, pairs i <= j of a
#: table, and entries a walk holds (k per identity and per step vector)
MAX_ELEMENTS = 10 ** 6
MAX_PAIRS = MAX_ENTRIES = 10 ** 7


@dataclass(frozen=True)
class Element:
    """One semigroup element: exact identity and exact integer size key.

    Keys order sizes exactly; what a key means is the backend's business
    (``backend.size(key)`` is the size as a double).  For the
    ordinary-Dirichlet backend the integer tuple ``ident`` stands for its
    componentwise logarithms.
    """

    ident: tuple
    key: int

    def __repr__(self):
        return f"Element{self.ident}"


# ---------------------------------------------------------------------------
# backends
#
# Every backend maps an identity to its integer size key with ``key``,
# adds two identities with ``plus``, turns a key back into a size with
# ``size`` (a double) and ``size_bounds`` (directed double bounds), and
# gives the decomposition scan its integer form with
# ``scan_plan(idents, keys)``: the window's identities and keys
# in window order go in; out come one integer code per identity,
# ``limit(key)``, the largest partner key whose sum with an element of key
# ``key`` stays in the window, and ``sums(i, jmax)``, the codes of
# e_i + e_j for j < jmax.


def _radix_weights(k, top):
    """Mixed-radix place values for k coordinates that never exceed ``top``."""
    return [(top + 1) ** m for m in range(k)]


class _Additive:
    """Backends whose identities, scaled by the integer ``q``, are the
    N0-combinations of integer steps: the key is q times the size, so
    adding elements adds keys, and the mixed-radix codes of the scaled
    coordinates add too (a sum kept in the window has every scaled
    coordinate at most the largest key)."""

    def zero_ident(self):
        return self._ident((0,) * self.k)

    def key(self, ident):
        return sum(self._scaled(ident))

    def plus(self, a, b):
        return self._ident(tuple(map(add, self._scaled(a), self._scaled(b))))

    def size(self, key):
        return key / self.q

    def size_bounds(self, key):
        return frac_bounds(Fraction(key, self.q))

    def idents_up_to(self, bound):
        """The identities of size <= bound, unordered, lazily: a walk over the
        scaled vectors, whose keys grow by every step, yields each once."""
        top = math.floor(parse_rational(bound) * self.q)
        steps = [(sum(s), s) for s in self._steps]
        zero = (0,) * self.k
        seen = {zero}
        stack = [(0, zero)]
        yield self._ident(zero)
        while stack:
            vkey, v = stack.pop()
            for skey, s in steps:
                if vkey + skey <= top:
                    nxt = tuple(map(add, v, s))
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((vkey + skey, nxt))
                        yield self._ident(nxt)

    def scan_plan(self, idents, keys):
        top = keys[-1]
        weights = _radix_weights(self.k, top)
        codes = [sum(map(mul, self._scaled(t), weights)) for t in idents]

        def sums(i, jmax):
            return map(add, itertools.repeat(codes[i]), codes[i:jmax])

        return codes, lambda key: top - key, sums


@dataclass(frozen=True)
class Lattice(_Additive):
    """X = N0^k under componentwise addition: the q = 1 additive backend
    stepping by the unit vectors, whose key is the coordinate sum."""

    k: int
    kind = "lattice"
    q = 1

    def __post_init__(self):
        if type(self.k) is not int:   # a bool is refused too
            raise TypeError(f"lattice dimension must be an int, not {self.k!r}")
        if self.k < 1:
            raise ValueError("lattice dimension must be >= 1")

    n_steps = property(lambda self: self.k)
    _steps = property(lambda self: [tuple(int(m == i) for m in range(self.k))
                                    for i in range(self.k)])

    def _scaled(self, ident):
        return ident

    def _ident(self, v):
        return v

    def initial_bound(self):
        return 4


@dataclass(frozen=True)
class OrdinaryDirichlet:
    """X = (log N)^k; identities are integer tuples (n_1,...,n_k), n_i >= 1.

    The key is the product n_1*...*n_k, a monotone image of the size
    log n_1 + ... + log n_k; adding elements multiplies keys.
    """

    k: int
    kind = "ordinary-dirichlet"
    n_steps = 0

    def __post_init__(self):
        if type(self.k) is not int:   # a bool is refused too
            raise TypeError(f"dimension must be an int, not {self.k!r}")
        if not 1 <= self.k <= MAX_ELEMENTS:
            raise ValueError(f"dimension must be from 1 to {MAX_ELEMENTS}")

    def zero_ident(self):
        return (1,) * self.k

    def key(self, ident):
        return math.prod(ident)

    def plus(self, a, b):
        return tuple(map(mul, a, b))

    def size(self, key):
        return math.log(key)

    def size_bounds(self, key):
        if key == 1:
            return 0.0, 0.0
        v = math.log(key)
        return dn(dn(v)), up(up(v))

    def idents_up_to(self, bound):
        # bound is the maximal product (an int); the size bound is log(bound)
        return _tuples_product_at_most(self.k, int(bound))

    def initial_bound(self):
        return 4

    def scan_plan(self, idents, keys):
        """The code of e_i * e_j is that of e_j plus (n - 1) w_m n'_m for
        each entry n > 1 of e_i at place value w_m, so a row costs one int
        product per partner and such entry, and the entries 1 cost none."""
        top = keys[-1]
        weights = _radix_weights(self.k, top)
        columns = list(zip(*idents))

        def sums(i, jmax):
            return reduce(partial(map, add), [
                map(mul, itertools.repeat((n - 1) * w), col[i:jmax])
                for n, w, col in zip(idents[i], weights, columns) if n > 1],
                itertools.islice(codes, i, jmax))

        codes = [sum(map(mul, t, weights)) for t in idents]
        return codes, lambda key: top // key, sums


def _tuples_product_at_most(k, n):
    """The k-tuples of positive integers with product <= n, in lexicographic
    order, recursing once per entry v >= 2 (at most log2(n) of them): after
    j ones and v come the tuples with product <= n // v."""
    if n < 1:
        return
    yield (1,) * k
    if n < 2:
        return
    yield from map(((1,) * (k - 1)).__add__, zip(range(2, n + 1)))
    for j in range(k - 2, -1, -1):
        for v in range(2, n + 1):
            yield from map(((1,) * j + (v,)).__add__,
                           _tuples_product_at_most(k - j - 1, n // v))


@dataclass(frozen=True)
class RationalGenerators(_Additive):
    """The semigroup generated by finitely many positive rational vectors.

    Discreteness is automatic: all coordinates share a common
    denominator q, so q*X lies in N0^k, sizes live in (1/q)*N0 and
    cannot accumulate.  The identity of an element is its exact
    coordinate vector, so colliding generator combinations merge.
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
        object.__setattr__(self, "q", math.lcm(*(c.denominator for g in gens for c in g)))

    @property
    def k(self):
        return len(self.generators[0])

    n_steps = property(lambda self: len(self.generators))
    _steps = property(lambda self: list(map(self._scaled, self.generators)))

    def _scaled(self, ident):
        q = self.q
        return tuple(c.numerator * (q // c.denominator) for c in ident)

    def _ident(self, v):
        return tuple(Fraction(c, self.q) for c in v)

    def initial_bound(self):
        return min(sum(g, Fraction(0)) for g in self.generators) * 8


# ---------------------------------------------------------------------------
# enumeration


class DecompTable:
    """The decomposition pairs of a window in CSR form, as half rows.

    The pairs (i, j), i < j, with e_i + e_j = e_t are ``first[a:b]`` and
    ``second[a:b]`` for a, b = ``offsets[t]``, ``offsets[t + 1]``, i
    ascending; ``middle[t]`` is the i with e_i + e_i = e_t, or -1.
    ``table[t]`` returns every ordered pair, first component ascending
    (the half row, the middle pair, the mirrored half row), and iterating
    the table (through ``__getitem__``) yields those tuples in turn.
    """

    __slots__ = ("offsets", "first", "second", "middle")

    def __init__(self, buckets):
        # buckets[t] holds e_t's pairs (i, j), i <= j, flattened with i
        # ascending: the order survives translation, so a middle pair is last
        self.first, self.second = array("i"), array("i")
        self.middle = array("i", [-1]) * len(buckets)
        for t, bucket in enumerate(buckets):
            if bucket and bucket[-1] == bucket[-2]:
                self.middle[t] = bucket[-1]
                del bucket[-2:]
            self.first.extend(bucket[0::2])
            self.second.extend(bucket[1::2])
        ends = itertools.accumulate(map(len, buckets), initial=0)
        self.offsets = array("i", [n >> 1 for n in ends])

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, t):
        t = range(len(self))[t]
        a, b, d = self.offsets[t], self.offsets[t + 1], self.middle[t]
        us, vs = self.first[a:b], self.second[a:b]
        return (*zip(us, vs), *[(d, d)] * (d >= 0), *zip(vs[::-1], us[::-1]))


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
            if not (a.key, a.ident) < (b.key, b.ident):
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
        """Distinct size keys of m_0 = 0 < m_1 < ... with their element index ranges."""
        groups = itertools.groupby(range(len(self)), lambda i: self.elements[i].key)
        return [(key, tuple(ix)) for key, ix in groups]

    @cached_property
    def decomp(self) -> DecompTable:
        """For each element index t, the pairs (i, j), i <= j, with e_i + e_j = e_t.

        One pass over the elements in window order on the backend's
        integer scan plan: the partners e_j, j >= i, that keep e_i + e_j
        in the window form a slice (the keys ascend), which shrinks as i
        rises; the pass stops at the first empty one.  Past ``MAX_PAIRS``
        pairs the table is refused before any bucket exists.  Each sum's
        code is looked up in one int-keyed dict, and its ``array('i')``
        bucket gets i and j appended: no per-pair object is kept.
        """
        keys = [e.key for e in self.elements]
        codes, limit, sums = self.backend.scan_plan([e.ident for e in self.elements], keys)
        ends = map(bisect_right, itertools.repeat(keys), map(limit, keys))
        rows = list(itertools.takewhile(lambda row: row[0] < row[1], enumerate(ends)))
        if (pairs := sum(j - i for i, j in rows)) > MAX_PAIRS:
            raise WindowTooLarge(f"a table of {pairs} pairs passes the limit {MAX_PAIRS}")
        buckets = [array("i") for _ in keys]
        # a sum that a max_elements window cut gets a bucket nobody keeps
        index = defaultdict(partial(array, "i"), zip(codes, buckets))
        for i, j in rows:
            targets = list(map(index.__getitem__, sums(i, j)))
            deque(map(array.append, targets + targets,
                      itertools.chain(itertools.repeat(i, j - i), range(i, j))), maxlen=0)
        return DecompTable(buckets)

    @cached_property
    def steps(self):
        """Per step s of the backend, an ``array('i')`` of the index of e - s
        for each element e, or -1 off the window.  None unless each element
        is one sum of steps (:func:`step_sums` of the unit counts them) and
        the m steps by n elements entries are at most the table's pairs."""
        b, n = self.backend, len(self)
        if b.n_steps and b.n_steps * n <= len(self.decomp.first):
            index = {b._scaled(e.ident): i for i, e in enumerate(self.elements)}
            steps = [array("i", [index.get(tuple(map(sub, v, s)), -1) for v in index])
                     for s in b._steps]
            return steps if step_sums([1] + [0] * (n - 1), steps) == [1] * n else None

    def partners(self, s):
        """(t, x) for each t > 0 with e_s + e_t = e_x in the window: the keys
        of the sums grow with t, so the walk stops at the first past the top."""
        b, ident, top = self.backend, self.elements[s].ident, self.elements[-1].key
        sums = itertools.takewhile(lambda v: b.key(v) <= top, (
            b.plus(ident, e.ident) for e in itertools.islice(self.elements, 1, None)))
        return [(t, self._index[v]) for t, v in enumerate(sums, 1) if v in self._index]

    @property
    def m1(self):
        """Key of the minimal positive element size in the window."""
        if len(self.elements) < 2:
            raise OnlyZero("window contains no non-zero element")
        return self.elements[1].key


def step_sums(values, steps):
    """In place, each values[x] becomes the sum of values[x - t], t a sum of steps."""
    for back in steps:
        for x, y in enumerate(back):
            if y >= 0:
                values[x] += values[y]
    return values


def enumerate_semigroup(backend, size_bound=None, max_elements=None) -> Enumeration:
    """Enumerate the window of ``backend`` in (size, lex-identity) order.

    Exactly one truncation must be given.  ``size_bound`` keeps every
    element of size <= B (for the ordinary-Dirichlet backend the bound
    is the maximal index product, i.e. B = log(bound)).  ``max_elements``,
    read as a count (an integer rational, not a bool) before any walk,
    keeps the N smallest elements in the total order; the window is then
    size-complete below its top size level, which is all convolution
    ever needs.  A walk past ``MAX_ELEMENTS`` identities or ``MAX_ENTRIES``
    entries (k per identity and per step vector) is cut and refused.
    """
    if (size_bound is None) == (max_elements is None):
        raise ValueError("specify exactly one of size_bound, max_elements")
    n = None if max_elements is None else parse_count(max_elements)
    cap = min(MAX_ELEMENTS, MAX_ENTRIES // backend.k - backend.n_steps)

    def walk(bound):
        return list(itertools.islice(backend.idents_up_to(bound), max(0, cap + 1)))

    if n is None:
        if size_bound < 0:
            raise EmptyTruncation(f"size bound {size_bound} is negative")
        idents = walk(size_bound)
        truncation = ("size_bound", size_bound)
    else:
        if n < 1:
            raise EmptyTruncation("max_elements must be >= 1")
        bound = backend.initial_bound()
        idents = walk(bound)
        while len(idents) < min(n, cap + 1):   # each doubling adds elements
            bound *= 2
            idents = walk(bound)
        truncation = ("max_elements", n)
    if len(idents) > cap:
        raise WindowTooLarge(f"the walk passes the limit of {MAX_ELEMENTS} elements"
                             if cap == MAX_ELEMENTS else
                             f"the walk passes {MAX_ENTRIES} identity entries")

    order = sorted(zip(map(backend.key, idents), idents))[:n]
    if not order:
        raise EmptyTruncation("window is empty")
    return Enumeration(backend, [Element(i, key) for key, i in order], truncation)
