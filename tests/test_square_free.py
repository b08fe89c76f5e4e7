"""The root pipeline: one exact square-free split in both modes.

``roots.find_roots`` reads the anchor coefficients exactly in both modes
(a double is a dyadic rational) and splits them by exact gcds, so a
multiplicity is a fact about the polynomial that was read, the same in
exact and double mode, and no merge radius decides it.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import dirconv as dc
import dirconv.cli as cli
from dirconv.roots import _divisors, _gcd, find_roots, poly_derivative, square_free
from dirconv.scalars import QC

A, B = 720720, 720721


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _product(factors):
    """Integer coefficients of the product of (coefficients, power) pairs."""
    out = [1]
    for f, m in factors:
        for _ in range(m):
            out = _mul(out, f)
    return out


def run_spec(tmp_path, coeffs, mode, entries=None):
    """solve-all on the divisor window to 30 with constant coefficients,
    or a table a_0 of ``entries``; returns (document, exit code)."""
    a = [{"const": str(c)} for c in coeffs]
    if entries:
        a[0] = {"table": [[[n], str(v)] for n, v in entries]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "semigroup": {"kind": "ordinary-dirichlet", "k": 1, "max_product": 30},
        "arithmetic": {"mode": mode}, "equation": {"coefficients": a},
        "task": {"type": "solve-all"}}))
    return cli.run(str(path))


N40 = 963761198400
WILKINSON = _product([([-k, 1], 1) for k in range(1, 13)])


@pytest.mark.parametrize("mode", ["exact", "double"])
@pytest.mark.parametrize("coeffs, n_roots", [
    # two real roots 0.99743 and 1.00258, while 1e-8 (1 + max|f_j|) is 1e4
    ([519440040720, -1038880800720, 519437318400], 2),
    # N + z + N z^2: roots near +-i, while 1e-8 (1 + N) is about 1e4
    ([N40, 1, N40], 2),
    # the Wilkinson polynomial of degree 12
    (WILKINSON, 12),
])
def test_distinct_close_roots_are_simple_in_both_modes(tmp_path, mode, coeffs, n_roots):
    doc, code = run_spec(tmp_path, coeffs, mode)
    assert code == 0, doc.get("diagnostic")
    roots = doc["root_report"]["roots"]
    assert len(roots) == n_roots == len(doc["solutions"])
    assert all(r["multiplicity"] == 1 and r["simple"] for r in roots)


def test_wilkinson_roots_are_the_integers_in_doubles(od20):
    T = dc.ConvPolynomial(tuple(dc.constant(od20, c, False) for c in WILKINSON))
    assert [r.value for r in dc.initial_polynomial(T).roots] == list(range(1, 13))


def test_two_roots_1_over_a_apart_have_multiplicity_1_in_doubles(od20):
    # (A z - B)(A z - B - 1): |f'| = A at both roots, below the simplicity
    # gate of the coefficients (about 5.2e5), so neither is simple in doubles
    f = _product([([-B, A], 1), ([-B - 1, A], 1)])
    T = dc.ConvPolynomial(tuple(dc.constant(od20, c, False) for c in f))
    roots = dc.initial_polynomial(T).roots
    assert [(r.value, r.multiplicity, r.simple) for r in roots] == [
        (B / A, 1, False), ((B + 1) / A, 1, False)]


@pytest.mark.parametrize("mode", ["exact", "double"])
def test_no_obstruction_is_claimed_at_a_root_of_multiplicity_1(tmp_path, mode):
    # a_0(1) = B(B+1) makes the anchor polynomial (A z - B)(A z - B - 1);
    # a_0(2) is off by 10^6, which would obstruct a double root but proves
    # nothing at a simple one, where g(2) absorbs it
    f = [B * (B + 1), -A * (2 * B + 1), A * A]
    entries = [(1, f[0]), (2, f[0] + 10**6)]
    doc, code = run_spec(tmp_path, f, mode, entries)
    if mode == "exact":
        assert code == 0
        assert [(r["multiplicity"], r["simple"], r["exact"])
                for r in doc["root_report"]["roots"]] == [(1, True, True)] * 2
    else:
        assert code == 2
        assert "existence is undecided" in doc["diagnostic"]
        assert "unsolvable" not in doc["diagnostic"]


def _random_factors(rng):
    """Distinct, pairwise coprime integer factors with powers 1 to 3:
    linear q z - p, and quadratics irreducible over Q."""
    factors = {}
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            q = rng.randint(1, 6)
            p = rng.randint(-9, 9)
            g = math.gcd(p, q)
            f = (-p // g, q // g)
        else:
            while True:
                b, c = rng.randint(-6, 6), rng.randint(-9, 9)
                disc = b * b - 4 * c
                if disc < 0 or math.isqrt(disc) ** 2 != disc:
                    break
            f = (c, b, 1)
        factors[f] = rng.choice((1, 1, 2, 3))
    return list(factors.items())


def test_a_seeded_sweep_agrees_on_multiplicities_in_both_modes():
    rng = random.Random("square-free-sweep")
    repeated = 0
    for _ in range(150):
        factors = _random_factors(rng)
        f = _product([(list(g), m) for g, m in factors])
        want = Counter()
        for g, m in factors:
            want[m] += len(g) - 1
        got = {}
        for exact in (True, False):
            coeffs = [Fraction(c) for c in f] if exact else [float(c) for c in f]
            got[exact] = Counter(r.multiplicity for r in find_roots(coeffs, exact))
        assert got[True] == got[False] == want, factors
        repeated += max(want) > 1
    assert repeated > 50


def _expand(split, lead):
    out = [lead]
    for i, f in split:
        for _ in range(i):
            out = _mul(out, f)
    return out


@pytest.mark.parametrize("factors", [
    [([-1, 1], 3)],
    [([Fraction(-1, 3), 1], 2), ([2, 0, 1], 1), ([5, 1], 3)],
    [([0, 1], 2), ([Fraction(1, 2), 1, 1], 2), ([-7, 1], 1)],
    [([QC(0, -1), 1], 2), ([QC(1, 1), 0, 1], 1), ([QC(0, 2), 1], 3)],
    [([QC(3, Fraction(1, 2)), QC(0, 1), 1], 2), ([0, 1], 1)],
])
def test_the_split_reproduces_f_with_square_free_factors(factors):
    lead = QC(3, -2)
    f = [lead * c for c in _product(factors)]
    split = square_free(f)
    assert [i for i, _ in split] == sorted({m for _, m in factors})
    assert _expand(split, lead) == f
    for _, g in split:
        assert g[-1] == 1
        # coprime to its derivative: a gcd of degree 0
        assert len(square_free(g)) == 1 and square_free(g)[0][0] == 1
        assert len(_gcd(g, poly_derivative(g))) == 1


@pytest.mark.parametrize("n", [1, 2, 12, 97, 2**39, 3**7 * 5**3, 720720**2, -36])
def test_divisors_agree_with_trial_division_up_to_the_square_root(n):
    # the rational root search reads them for the dyadic denominators of
    # double coefficients too, where large powers of two are common
    m = abs(n)
    want = {d for k in range(1, math.isqrt(m) + 1) if m % k == 0 for d in (k, m // k)}
    assert _divisors(n) == sorted(want)
