import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dirconv as dc

from oracles import ident_add


def test_lattice_window_order():
    e = dc.enumerate_semigroup(dc.Lattice(2), size_bound=2)
    assert [x.ident for x in e] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_rational_generators_merge_collisions():
    # 6 is reachable as 2+2+2 and 3+3 but must appear once
    e = dc.enumerate_semigroup(dc.RationalGenerators((("2",), ("3",))), size_bound=6)
    assert [x.key for x in e] == [0, 2, 3, 4, 5, 6]
    assert [e.backend.size(x.key) for x in e] == [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_ordinary_dirichlet_is_natural_order():
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=5)
    assert [x.ident for x in e] == [(1,), (2,), (3,), (4,), (5,)]


def test_ordinary_dirichlet_k2_tie_break_on_index_tuple():
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(2), size_bound=4)
    assert [x.ident for x in e] == [
        (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]


@pytest.mark.parametrize("k, n", [(1, 12), (2, 30), (3, 24), (4, 17)])
def test_divisor_tuples_are_every_tuple_with_product_at_most_n_in_order(k, n):
    every = [t for t in itertools.product(range(1, n + 1), repeat=k) if math.prod(t) <= n]
    assert list(dc.OrdinaryDirichlet(k).idents_up_to(n)) == every


def test_a_divisor_window_with_many_coordinates_needs_no_deep_recursion():
    # 2000 coordinates and product <= 2: the unit, and a 2 in one place;
    # the walk recurses once per entry above 1, not once per coordinate
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(2000), size_bound=2)
    assert len(e) == 2001
    assert sorted(x.ident.index(2) for x in e if x.key == 2) == list(range(2000))


def test_divisor_walks_are_refused_past_the_identity_entry_limit(monkeypatch):
    # a walk holds k entries per identity: with room for 10**5 entries, 50
    # identities of 2000 entries; product <= 4 lists about 2 million of them
    monkeypatch.setattr(dc.semigroup, "MAX_ENTRIES", 10**5)
    for window in ({"size_bound": 4}, {"max_elements": 100}, {"size_bound": 2}):
        with pytest.raises(dc.WindowTooLarge, match="passes 100000 identity entries"):
            dc.enumerate_semigroup(dc.OrdinaryDirichlet(2000), **window)
    with pytest.raises(ValueError, match="dimension"):
        dc.OrdinaryDirichlet(dc.semigroup.MAX_ELEMENTS + 1)


def test_lattice_walks_are_refused_before_their_entries_exist(monkeypatch):
    # Lattice(200) to size 2 has 20,301 identities of 200 entries, about 4
    # million, and its walk holds 200 unit steps of 200 entries: with room
    # for 10**5 entries the walk stops after 500 - 200 identities
    monkeypatch.setattr(dc.semigroup, "MAX_ENTRIES", 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(dc.WindowTooLarge, match="passes 100000 identity entries"):
            dc.enumerate_semigroup(dc.Lattice(200), size_bound=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6   # the whole walk peaks near 38 MB
    # more steps than entries: refused before the steps are built
    with pytest.raises(dc.WindowTooLarge, match="identity entries"):
        dc.enumerate_semigroup(dc.Lattice(10**6), max_elements=1)


def test_fractional_generators():
    e = dc.enumerate_semigroup(
        dc.RationalGenerators((("1/2", "0"), ("0", "1/3"))), size_bound=1)
    sizes = [sum(x.ident) for x in e]
    assert sizes == sorted(sizes)
    assert (Fraction(1, 2), Fraction(1, 3)) in [x.ident for x in e]
    assert all(s <= 1 for s in sizes)
    # the key is the size times the common denominator 6
    assert [x.key for x in e] == [6 * s for s in sizes]


def test_max_elements_takes_smallest():
    e = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), max_elements=7)
    assert [x.ident for x in e] == [(n,) for n in range(1, 8)]
    e2 = dc.enumerate_semigroup(dc.Lattice(2), max_elements=4)
    assert [x.ident for x in e2] == [(0, 0), (0, 1), (1, 0), (0, 2)]


@pytest.mark.parametrize("backend, size_bound", [
    (dc.Lattice(2), 20),
    (dc.OrdinaryDirichlet(2), 300),
    (dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))),
     Fraction(7)),
])
def test_max_elements_is_a_prefix_of_a_size_bound_window(backend, size_bound):
    big = list(dc.enumerate_semigroup(backend, size_bound=size_bound))
    for n in (1, 2, 7, 16, 41, 100, 150):
        assert len(big) > n
        window = dc.enumerate_semigroup(backend, max_elements=n)
        assert list(window) == big[:n]


@pytest.mark.parametrize("call, error, match", [
    (lambda: dc.Lattice(0), ValueError, "dimension must be >= 1"),
    (lambda: dc.RationalGenerators(()), ValueError, "at least one generator"),
    (lambda: dc.RationalGenerators((("1",), ("1", "1"))), ValueError, "one dimension"),
    (lambda: dc.RationalGenerators((("1", "-1"),)), ValueError, "non-negative"),
    (lambda: dc.RationalGenerators((("0", "0"),)), ValueError, "positive size"),
    (lambda: dc.RationalGenerators((("1", True),)), TypeError, "booleans"),
    (lambda: dc.enumerate_semigroup(dc.Lattice(1)), ValueError, "exactly one of"),
    (lambda: dc.enumerate_semigroup(dc.Lattice(1), size_bound=2, max_elements=3),
     ValueError, "exactly one of"),
    (lambda: dc.enumerate_semigroup(dc.Lattice(1), max_elements=0),
     dc.EmptyTruncation, "max_elements must be >= 1"),
    (lambda: dc.enumerate_semigroup(dc.Lattice(1), max_elements=2.5),
     ValueError, "not an integer"),
    (lambda: dc.enumerate_semigroup(dc.Lattice(1), max_elements=Fraction(5, 2)),
     ValueError, "not an integer"),
    (lambda: dc.enumerate_semigroup(dc.Lattice(1), max_elements=True),
     TypeError, "not rationals"),
    (lambda: dc.Lattice(2.0), TypeError, "must be an int"),
    (lambda: dc.Lattice(True), TypeError, "must be an int"),
    (lambda: dc.OrdinaryDirichlet(2.0), TypeError, "must be an int"),
    (lambda: dc.OrdinaryDirichlet(True), TypeError, "must be an int"),
])
def test_malformed_semigroups_and_windows_are_refused(monkeypatch, call, error, match):
    def no_walk(self, bound):
        raise AssertionError("a malformed window must be refused before any walk")

    monkeypatch.setattr(dc.Lattice, "idents_up_to", no_walk)
    monkeypatch.setattr(dc.OrdinaryDirichlet, "idents_up_to", no_walk)
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("count", [6, Fraction(6), "6", 6.0])
def test_an_integer_count_cuts_the_window(count):
    window = dc.enumerate_semigroup(dc.Lattice(2), max_elements=count)
    assert window.truncation == ("max_elements", 6)
    assert list(window) == list(dc.enumerate_semigroup(dc.Lattice(2), max_elements=6))


def test_empty_truncation_rejected():
    with pytest.raises(dc.EmptyTruncation):
        dc.enumerate_semigroup(dc.Lattice(1), size_bound=-1)
    with pytest.raises(dc.EmptyTruncation):
        dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=0)


def test_only_zero():
    e = dc.enumerate_semigroup(dc.Lattice(1), size_bound=0)
    with pytest.raises(dc.OnlyZero):
        e.m1


def _decompositions(enum, ident):
    """The ordered pairs (x', x'') with x' + x'' = x, read off the table."""
    return [(enum[i], enum[j]) for i, j in enum.decomp[enum.index_of(ident)]]


def test_decompositions_divisor_pairs(od20):
    pairs = [(a.ident[0], b.ident[0]) for a, b in _decompositions(od20, (6,))]
    assert pairs == [(1, 6), (2, 3), (3, 2), (6, 1)]


def test_decomposition_of_zero(od20):
    assert _decompositions(od20, (1,)) == [(od20[0], od20[0])]


def test_decompositions_rational(gens23):
    pairs = [(a.key, b.key) for a, b in _decompositions(gens23, (Fraction(6),))]
    assert pairs == [(0, 6), (2, 4), (3, 3), (4, 2), (6, 0)]


def test_not_enumerated(od20):
    with pytest.raises(dc.NotEnumerated):
        od20.decomp[od20.index_of((21,))]


def test_min_positive_size(od20, lat2, gens23):
    assert (od20.m1, lat2.m1, gens23.m1) == (2, 1, 2)
    assert od20.backend.size(od20.m1) == math.log(2)
    assert lat2.backend.size(lat2.m1) == 1.0
    assert gens23.backend.size(gens23.m1) == 2.0


def test_order_soundness(od20, lat2, gens23):
    for enum in (od20, lat2, gens23):
        keys = [(x.key, x.ident) for x in enum]
        for a, b in zip(keys, keys[1:]):
            assert a < b


def test_levels_partition(lat2):
    seen = []
    for key, idxs in lat2.levels:
        assert len(idxs) > 0
        assert all(lat2[i].key == key for i in idxs)
        seen.extend(idxs)
    assert sorted(seen) == list(range(len(lat2)))
    keys = [k for k, _ in lat2.levels]
    assert keys == sorted(keys)


def test_decomposition_symmetry(od20, lat2, gens23):
    for enum in (od20, lat2, gens23):
        for t in range(len(enum)):
            pairs = set(enum.decomp[t])
            assert {(j, i) for i, j in pairs} == pairs


@given(st.data())
def test_closure(od20, data):
    i = data.draw(st.integers(0, len(od20) - 1))
    j = data.draw(st.integers(0, len(od20) - 1))
    a, b = od20[i], od20[j]
    if a.ident[0] * b.ident[0] > od20[-1].ident[0]:
        return
    s = ident_add(od20.backend, a.ident, b.ident)
    t = od20.index_of(s)
    assert (i, j) in od20.decomp[t]


def test_size_additivity():
    rng = random.Random(7)
    for backend in (dc.Lattice(3), dc.OrdinaryDirichlet(2),
                    dc.RationalGenerators((("1/2", "1"), ("2", "1/3")))):
        e = dc.enumerate_semigroup(backend, max_elements=40)
        for _ in range(60):
            a = e[rng.randrange(len(e))]
            b = e[rng.randrange(len(e))]
            key = backend.key(ident_add(backend, a.ident, b.ident))
            if backend.kind == "ordinary-dirichlet":
                assert key == a.key * b.key
            else:
                assert key == a.key + b.key


def test_size_bounds_enclose():
    lo, hi = dc.OrdinaryDirichlet(1).size_bounds(3)
    assert lo < math.log(3) < hi
    assert dc.OrdinaryDirichlet(2).size_bounds(1) == (0.0, 0.0)
    lo, hi = dc.RationalGenerators((("1/3",),)).size_bounds(1)
    assert Fraction(lo) < Fraction(1, 3) < Fraction(hi)
    assert dc.Lattice(2).size_bounds(5) == (5.0, 5.0)


def test_enumeration_signature_distinguishes_windows(od20, od100):
    assert od20.signature != od100.signature


def test_decomposition_pairs_listed_first_component_ascending(od20, lat2, gens23):
    for enum in (od20, lat2, gens23):
        for pairs in enum.decomp:
            firsts = [i for i, _ in pairs]
            assert firsts == sorted(firsts)
