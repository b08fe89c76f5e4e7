"""Size keys and the flat decomposition table against independent
references (the generic pair scan, exact sizes and the Fraction heap walk
of generator windows), and the reads of the table that the benchmark and
the scripts make."""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import dirconv as dc
from dirconv import semigroup
from dirconv.semigroup import MAX_ELEMENTS, MAX_PAIRS, Enumeration

from oracles import exact_size, generator_heap_walk, pair_scan

ROOT = Path(__file__).resolve().parent.parent

COLLIDING = dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/2", "1/3")))

WINDOWS = {
    "lattice1-size": (dc.Lattice(1), {"size_bound": 30}),
    "lattice2-size": (dc.Lattice(2), {"size_bound": 9}),
    "lattice3-size": (dc.Lattice(3), {"size_bound": 6}),
    "lattice2-max": (dc.Lattice(2), {"max_elements": 40}),
    "lattice3-max": (dc.Lattice(3), {"max_elements": 75}),
    "divisor1-size": (dc.OrdinaryDirichlet(1), {"size_bound": 300}),
    "divisor2-size": (dc.OrdinaryDirichlet(2), {"size_bound": 120}),
    "divisor3-size": (dc.OrdinaryDirichlet(3), {"size_bound": 40}),
    "divisor1-max": (dc.OrdinaryDirichlet(1), {"max_elements": 77}),
    "divisor2-max": (dc.OrdinaryDirichlet(2), {"max_elements": 150}),
    "divisor3-max": (dc.OrdinaryDirichlet(3), {"max_elements": 90}),
    # one pair per element, partnered with (1, ..., 1), whose entries
    # add nothing to a code
    "divisor2000-size": (dc.OrdinaryDirichlet(2000), {"size_bound": 2}),
    "generators1-size": (dc.RationalGenerators((("2/3",), ("5/4",))),
                         {"size_bound": 9}),
    "generators2-size": (dc.RationalGenerators((("1/2", "1"), ("2", "1/3"))),
                         {"size_bound": 6}),
    "generators3-size": (dc.RationalGenerators((("1/2", "0", "1/5"),
                                                ("0", "1/3", "0"),
                                                ("1", "1/2", "1/3"))),
                         {"size_bound": 3}),
    "generators2-max": (dc.RationalGenerators((("1/2", "1"), ("2", "1/3"))),
                        {"max_elements": 60}),
    "colliding-size": (COLLIDING, {"size_bound": 4}),
    "colliding-max": (COLLIDING, {"max_elements": 100}),
    "zero-coordinate": (dc.RationalGenerators((("0", "3/2"), ("1/3", "1/3"))),
                        {"size_bound": 7}),
    "one-element-lattice": (dc.Lattice(2), {"size_bound": 0}),
    "one-element-divisor": (dc.OrdinaryDirichlet(3), {"max_elements": 1}),
    "one-element-generators": (COLLIDING, {"size_bound": Fraction(1, 4)}),
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_table_matches_the_pair_scan(name):
    backend, truncation = WINDOWS[name]
    enum = dc.enumerate_semigroup(backend, **truncation)
    expected = pair_scan(enum)
    table = enum.decomp
    assert len(table) == len(enum)
    assert list(table) == expected
    # the flat arrays hold each row's pairs i < j in the same order, and
    # middle its pair i = j
    for arr in (table.offsets, table.first, table.second, table.middle):
        assert isinstance(arr, array) and arr.typecode == "i"
    halves = [[(i, j) for i, j in ps if i < j] for ps in expected]
    assert list(table.offsets) == [0, *itertools.accumulate(map(len, halves))]
    assert list(zip(table.first, table.second)) == [p for ps in halves for p in ps]
    assert list(table.middle) == [next((i for i, j in ps if i == j), -1)
                                  for ps in expected]


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_keys_ascend_and_give_the_sizes(name):
    """Keys strictly ascend from level to level and are shared inside one;
    ``size`` is the double of the exact size, bit for bit, and
    ``size_bounds`` encloses the exact size."""
    backend, truncation = WINDOWS[name]
    enum = dc.enumerate_semigroup(backend, **truncation)
    keys = [key for key, _ in enum.levels]
    assert all(type(k) is int for k in keys)
    assert keys == sorted(set(keys))
    for key, idxs in enum.levels:
        assert {enum[i].key for i in idxs} == {key}
    for e in enum:
        exact = exact_size(backend, e.ident)
        lo, hi = backend.size_bounds(e.key)
        if backend.kind == "ordinary-dirichlet":
            assert backend.size(e.key) == math.log(exact)
            assert lo <= math.log(exact) <= hi
            assert lo < hi or exact == 1
        else:
            assert backend.size(e.key) == float(Fraction(exact))
            assert Fraction(lo) <= exact <= Fraction(hi)


@pytest.mark.parametrize("name", sorted(n for n in WINDOWS if WINDOWS[n][0].kind
                                        == "rational-generators"))
def test_generator_windows_equal_the_heap_walk(name):
    backend, truncation = WINDOWS[name]
    enum = dc.enumerate_semigroup(backend, **truncation)
    top = sum(enum[-1].ident)
    walk = sorted(generator_heap_walk(backend, top), key=lambda t: (sum(t), t))
    if "max_elements" in truncation:
        walk = walk[:truncation["max_elements"]]
    else:
        assert top <= truncation["size_bound"]
        assert sorted(generator_heap_walk(backend, truncation["size_bound"])) == sorted(walk)
    assert [e.ident for e in enum] == walk


def test_colliding_generators_merge_and_single_element_windows():
    enum = dc.enumerate_semigroup(COLLIDING, size_bound=2)
    # (1/2, 1/3) is both a generator and the sum of the other two
    t = enum.index_of((Fraction(1, 2), Fraction(1, 3)))
    half, third = (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))
    idents = [(enum[i].ident, enum[j].ident) for i, j in enum.decomp[t]]
    assert idents[1:3] == [(third, half), (half, third)]
    assert len(idents) == 4
    one = dc.enumerate_semigroup(dc.Lattice(1), size_bound=0)
    assert list(one.decomp) == [((0, 0),)]


def _workloads():
    with open(ROOT / "perfbench" / "workloads.json") as fh:
        return json.load(fh)["workloads"].values()


def test_the_limits_sit_ten_times_above_every_benchmark_window():
    counters = [w["counters"] for w in _workloads()]
    assert MAX_ELEMENTS >= 10 * max(c["semigroup.elements"] for c in counters)
    assert MAX_PAIRS >= 10 * max(c["semigroup.pairs"] for c in counters)


@pytest.mark.parametrize("backend, truncation, refused", [
    (dc.OrdinaryDirichlet(1), {"size_bound": 1000}, False),
    (dc.OrdinaryDirichlet(1), {"size_bound": 1001}, True),
    (dc.OrdinaryDirichlet(2), {"size_bound": 400}, True),
    (dc.OrdinaryDirichlet(2), {"max_elements": 10 ** 9}, True),
    (dc.Lattice(1), {"size_bound": 999}, False),
    (dc.Lattice(2), {"size_bound": 60}, True),
    (dc.Lattice(3), {"max_elements": 100}, False),
    (dc.Lattice(3), {"max_elements": 1000}, True),     # the walk overshoots
    (dc.Lattice(3), {"max_elements": 10 ** 9}, True),
    (COLLIDING, {"size_bound": 30}, True),
    (COLLIDING, {"max_elements": 10 ** 9}, True),
])
def test_walks_past_the_element_limit_are_refused(monkeypatch, backend, truncation,
                                                   refused):
    monkeypatch.setattr(semigroup, "MAX_ELEMENTS", 1000)
    if refused:
        with pytest.raises(dc.WindowTooLarge, match="limit of 1000 elements"):
            dc.enumerate_semigroup(backend, **truncation)
    else:
        assert len(dc.enumerate_semigroup(backend, **truncation)) <= 1000


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_tables_past_the_pair_limit_are_refused(monkeypatch, name):
    """The scan counts the pairs (i, j), i <= j, before any bucket exists:
    exactly the stored pairs of a size window, at least those of a
    max_elements window, whose top level may lose some."""
    backend, truncation = WINDOWS[name]
    stored = sum(1 for ps in pair_scan(dc.enumerate_semigroup(backend, **truncation))
                 for i, j in ps if i <= j)
    monkeypatch.setattr(semigroup, "MAX_PAIRS", stored - 1)
    with pytest.raises(dc.WindowTooLarge, match="pairs passes the limit"):
        dc.enumerate_semigroup(backend, **truncation).decomp
    if "size_bound" in truncation:
        monkeypatch.setattr(semigroup, "MAX_PAIRS", stored)
        table = dc.enumerate_semigroup(backend, **truncation).decomp
        assert len(table.first) + sum(d >= 0 for d in table.middle) == stored


def _workload(name):
    with open(ROOT / "perfbench" / "workloads.json") as fh:
        return json.load(fh)["workloads"][name]["counters"]


@pytest.mark.parametrize("name, backend, bound", [
    ("dirichlet-exact", dc.OrdinaryDirichlet(1), 10 ** 4),
    ("generators-solve-all",
     dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))), 8),
])
def test_benchmark_reads_of_the_table(name, backend, bound):
    """The benchmark wraps the cached property's function and counts
    pairs by iterating the table; both reads keep working."""
    assert isinstance(Enumeration.__dict__["decomp"], functools.cached_property)
    enum = dc.enumerate_semigroup(backend, size_bound=bound)
    counters = _workload(name)
    assert len(enum) == counters["semigroup.elements"]
    assert sum(len(p) for p in enum.decomp) == counters["semigroup.pairs"]
    first = Counter(u for pairs in enum.decomp for u, _ in pairs)
    assert sum(first.values()) == counters["semigroup.pairs"]
    assert enum.decomp is enum.decomp


def test_mobius_script_prints_its_pair_count():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mobius_inversion.py"), "--n", "100"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    enum = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=100)
    pairs = sum(len(p) for p in pair_scan(enum))
    assert f"100 elements, {pairs} divisor pairs" in proc.stdout
