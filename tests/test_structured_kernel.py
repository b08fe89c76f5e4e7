"""Products read by structure agree with the plain pair loop.

In double mode ``convolve`` and the sweep decide once per product how it
reads the decomposition table, by ``algebra.shape``: an operand that
vanishes off 0 scales the other, a coefficient constant on the whole
window gathers the other operand over both columns of the half row, and
a table times itself takes each stored pair's product once.  Each rule
must give the values of the plain pair loop over the reference scan
(``oracles.convolve_pairs``, ``oracles.sweep_pairs``) up to rounding.
On a window free on its steps, ``convolve`` reads no table for an
operand constant on the whole window: it takes the other's step sums,
in exact mode too, where they must give the exact pair loop's values.
The sweep reads no table there for a coefficient constant off 0: it
keeps running step sums of the table the coefficient multiplies.
"""

import functools
import random
from fractions import Fraction

import pytest

import dirconv as dc
from dirconv.scalars import QC

from oracles import (convolve_fractions, convolve_pairs, from_values, ident_add,
                     literal_solve, pair_scan, sweep_pairs)
from test_decomp_table import WINDOWS as TABLE_WINDOWS

WINDOWS = {
    "divisor-1": (dc.OrdinaryDirichlet(1), 48),
    "divisor-2": (dc.OrdinaryDirichlet(2), 24),
    "lattice-1": (dc.Lattice(1), 12),
    "lattice-2": (dc.Lattice(2), 5),
    "lattice-3": (dc.Lattice(3), 3),
    "generators": (dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))),
                   Fraction(3, 2)),
}


@pytest.fixture(scope="module", params=sorted(WINDOWS))
def window(request):
    backend, bound = WINDOWS[request.param]
    return dc.enumerate_semigroup(backend, size_bound=bound)


def _close(got, want):
    """Equal to 1e-12 of the reference's largest |value|."""
    scale = max(abs(v) for v in want.values)
    assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= 1e-12 * scale


def _cplx(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _operands(enum, rng):
    """Every structure the readers tell apart, as double-mode functions."""
    n, c = len(enum), _cplx(rng)

    def f(values):
        return dc.TruncatedFunction(enum, values, False)

    def changed(values, i, v):
        values = list(values)
        values[i] = v
        return f(values)

    dense = f([_cplx(rng) for _ in range(n)])
    return {
        "unit": dc.unit(enum, False),
        "point mass": f([_cplx(rng)] + [0j] * (n - 1)),
        "one": dc.one(enum, False),
        "const": dc.constant(enum, c, False),
        "const off 0": changed([c] * n, 0, _cplx(rng)),
        "indicator at 1": changed([0j] * n, 1, _cplx(rng)),
        "indicator at top": changed([0j] * n, n - 1, _cplx(rng)),
        "const but at 1": changed([c] * n, 1, _cplx(rng)),
        "const but at top": changed([c] * n, n - 1, _cplx(rng)),
        "dense": dense,
        "square": dc.convolve(dense, dense),
    }


@pytest.mark.parametrize("name", sorted(TABLE_WINDOWS))
def test_every_table_row_is_mirrored(name):
    """The stored half row, its middle pair and the half row's mirrors
    rebuild every row of the reference scan: the half-row kernels rest
    on this."""
    backend, truncation = TABLE_WINDOWS[name]
    enum = dc.enumerate_semigroup(backend, **truncation)
    dec = enum.decomp
    for t, row in enumerate(pair_scan(enum)):
        a, b, d = dec.offsets[t], dec.offsets[t + 1], dec.middle[t]
        half = list(zip(dec.first[a:b], dec.second[a:b]))
        assert all(i < j for i, j in half)
        mirrors = [(j, i) for i, j in half]
        assert sorted(half + [(d, d)] * (d >= 0) + mirrors) == sorted(row)


def test_the_windows_hold_every_row_shape():
    """Inner rows (the pairs that avoid 0) of lengths 0, 1, 2 and odd
    lengths of 3 and more all occur."""
    lengths = set()
    for backend, bound in WINDOWS.values():
        rows = pair_scan(dc.enumerate_semigroup(backend, size_bound=bound))
        lengths |= {len(pairs) - 2 for pairs in rows[1:]}
    assert {0, 1, 2} <= lengths
    assert any(k >= 3 and k % 2 for k in lengths)


@pytest.mark.parametrize("seed", [1, 2])
def test_convolve_matches_the_pair_loop(window, seed):
    ops = _operands(window, random.Random(seed))
    for a in ops.values():
        for b in ops.values():
            _close(dc.convolve(a, b), convolve_pairs(a, b))
        _close(dc.convolve(a, a), convolve_pairs(a, a))


@pytest.mark.parametrize("seed", [1, 2])
def test_invert_matches_the_pair_loop(window, seed):
    for g in _operands(window, random.Random(seed)).values():
        if abs(g.values[0]) > 0.1:
            terms = [(dc.unit(window, False).scale(-1).values, (0,)), (g.values, (1,))]
            _close(dc.invert(g), sweep_pairs(window, [terms], [1 / g.values[0]])[0])


def _solvable(coeffs, z0):
    """Set a_0(0) so that z0 is a root of the anchor polynomial; None
    unless the root is well separated from a double one."""
    at0 = [c.values[0] for c in coeffs]
    fprime = sum(j * a * z0 ** (j - 1) for j, a in enumerate(at0) if j)
    if abs(fprime) < 0.3:
        return None
    a0 = list(coeffs[0].values)
    a0[0] = -sum(a * z0 ** j for j, a in enumerate(at0) if j)
    return [dc.TruncatedFunction(coeffs[0].enum, a0, False)] + coeffs[1:]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_matches_the_pair_loop(window, seed):
    """Degree 1 to 3 equations over every operand kind: squares in the
    sweep, Q*G chains (g^2 * g), gathered and scaled coefficients."""
    rng = random.Random(seed)
    ops = list(_operands(window, rng).values())
    done = 0
    while done < 12:
        d = rng.randint(1, 3)
        z0 = _cplx(rng) + 0.5
        coeffs = _solvable([rng.choice(ops) for _ in range(d + 1)], z0)
        if coeffs is None or coeffs[-1].is_zero():
            continue
        T = dc.ConvPolynomial(tuple(coeffs))
        terms = [(c.values, (j,)) for j, c in enumerate(coeffs)]
        _close(dc.solve(T, z0), sweep_pairs(window, [terms], [z0])[0])
        done += 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_system_matches_the_pair_loop(window, seed):
    """Quadratic systems in two unknowns: g1*g1 and g2*g2 read half rows,
    g1*g2 is the plain dot, and every coefficient kind meets them."""
    rng = random.Random(seed)
    ops = list(_operands(window, rng).values())
    shapes = [[(2, 0), (0, 1), (1, 1), (0, 0)], [(0, 2), (1, 1), (1, 0), (0, 0)]]
    done = 0
    while done < 6:
        z0 = [_cplx(rng) + 0.5, _cplx(rng) - 0.5]
        eqs = []
        for shape in shapes:
            cs = [rng.choice(ops) for _ in shape]
            at0 = sum(c.values[0] * z0[0] ** e1 * z0[1] ** e2
                      for c, (e1, e2) in zip(cs[:-1], shape))
            const = list(cs[-1].values)
            const[0] = -at0
            cs[-1] = dc.TruncatedFunction(window, const, False)
            eqs.append(list(zip(cs, shape)))
        S = dc.PolySystem(2, [[dc.Monomial(c, e) for c, e in eq] for eq in eqs], z0)
        try:
            gs = dc.solve_system(S)
        except dc.NotASimpleRoot:
            continue
        want = sweep_pairs(window, [[(c.values, e) for c, e in eq] for eq in eqs], z0)
        for g, w in zip(gs, want):
            _close(g, w)
        done += 1


@pytest.mark.parametrize("exact", [True, False])
def test_shape_tells_vanishing_constant_and_other_values_apart(window, exact):
    """0 for values that vanish off 0, 1 for values constant on the whole
    window, 2 for anything else, "const off 0" included."""
    want = {"unit": 0, "point mass": 0, "one": 1, "const": 1,
            "const off 0": 2, "const but at top": 2, "dense": 2}
    ops = _operands(window, random.Random(3))
    for name, shape in want.items():
        g = ops[name]
        if exact:
            g = from_values(window, [Fraction(v.real).limit_denominator(99)
                                        for v in g.values])
        assert dc.algebra.shape(g.values) == shape, name


def test_the_sweep_gathers_a_coefficient_constant_off_0(monkeypatch):
    """The sweep reads a coefficient off 0 only, so one + unit (2 at 0, 1
    elsewhere) is gathered there, while ``convolve``, which reads whole
    rows, reads it as dense values; both give the pair loop's values."""
    enum = dc.enumerate_semigroup(dc.OrdinaryDirichlet(1), size_bound=48)
    c = dc.one(enum, False) + dc.unit(enum, False)
    rng = random.Random(5)
    dense = dc.TruncatedFunction(enum, [_cplx(rng) for _ in enum], False)
    gathered, reader = [], dc.algebra.reader
    monkeypatch.setattr(dc.algebra, "reader", lambda a, b, exact, a_const=False: (
        gathered.append(a_const) if a is c.values else None) or reader(a, b, exact, a_const))
    _close(dc.convolve(dc.invert(c), c), dc.unit(enum, False))
    _close(dc.convolve(c, dense), convolve_pairs(c, dense))
    assert gathered == [True, False]


def _row_operands(n, rng):
    """Seeded dense, sparse and constant operands, exact and double."""
    def exact(density):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                if rng.random() < density else Fraction(0) for _ in range(n)]

    def double(density):
        return [_cplx(rng) if rng.random() < density else 0j for _ in range(n)]

    c, c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(1, 9))
    z, z0 = _cplx(rng), _cplx(rng)
    return {True: (exact(1.0), exact(0.3), [c] * n, [c0] + [c] * (n - 1)),
            False: (double(1.0), double(0.3), [z] * n, [z0] + [z] * (n - 1))}


@pytest.mark.parametrize("name", sorted(TABLE_WINDOWS))
def test_every_reader_matches_the_ordered_pair_sum(name):
    """Each reader of a half row and its middle pair (``dot``, ``square``,
    the constant gather and ``qdot``, over plain value lists) gives the
    plain sum of a[u] * b[v] over the reference scan's ordered pairs:
    exactly in exact mode, to 1e-12 of the sum of |a[u] * b[v]| in double
    mode.  Whole rows are read, as ``convolve`` reads them, and inner rows
    (the pairs after (0, x), as the sweep reads them) from row 1 on; a
    coefficient constant off 0 only, as the sweep gathers it, on inner
    rows only."""
    backend, truncation = TABLE_WINDOWS[name]
    enum = dc.enumerate_semigroup(backend, **truncation)
    dec, rows, n = enum.decomp, pair_scan(enum), len(enum)
    rng = random.Random(sum(map(ord, name)))
    for exact, (dense, sparse, const, const_off_0) in _row_operands(n, rng).items():
        for a, b, gather in [(dense, sparse, False), (sparse, dense, False),
                             (dense, dense, False), (sparse, sparse, False),
                             (const, dense, True), (const, sparse, True),
                             (const_off_0, dense, True)]:
            read = dc.algebra.reader(a, b, exact, gather)
            for t, row in enumerate(rows):
                lo, hi, d = dec.offsets[t], dec.offsets[t + 1], dec.middle[t]
                for skip in (0, 1) if t else (0,):
                    if skip == 0 and a is const_off_0:
                        continue        # the gather reads a off 0 only
                    pairs = row[skip:len(row) - skip]
                    want = sum((a[u] * b[v] for u, v in pairs), a[0] * 0)
                    got = read(dec.first[lo + skip:hi], dec.second[lo + skip:hi], d)
                    if exact:
                        assert got == want
                    else:
                        scale = sum(abs(a[u] * b[v]) for u, v in pairs)
                        assert abs(got - want) <= 1e-12 * scale


def test_the_table_windows_hold_every_half_row_shape():
    """Row 0, rows with and without a middle pair, and rows whose inner
    half row is empty, with and without a middle pair, all occur."""
    shapes = set()
    for backend, truncation in TABLE_WINDOWS.values():
        dec = dc.enumerate_semigroup(backend, **truncation).decomp
        for t in range(1, len(dec)):
            inner = dec.offsets[t + 1] - dec.offsets[t] - 1
            shapes.add((inner > 0, dec.middle[t] >= 0))
        assert dec.middle[0] == 0 and dec.offsets[1] == 0
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


#: windows free on their steps, with fewer step-index entries than table
#: pairs: a product with a constant operand is the other's step sums; the
#: last holds the generators of perfbench's generators-solve-all workload
STEP_WINDOWS = {
    "lattice-1-size": (dc.Lattice(1), {"size_bound": 30}),
    "lattice-2-size": (dc.Lattice(2), {"size_bound": 9}),
    "lattice-3-size": (dc.Lattice(3), {"size_bound": 6}),
    "lattice-1-max": (dc.Lattice(1), {"max_elements": 17}),
    "lattice-2-max": (dc.Lattice(2), {"max_elements": 40}),
    "lattice-3-max": (dc.Lattice(3), {"max_elements": 75}),
    "generators-size-8": (dc.RationalGenerators((("1/2", "0"), ("0", "1/3"), ("1/5", "1/7"))),
                          {"size_bound": 8}),
}

#: windows without a step index: the divisor backend has no finite step
#: set, 1 = 1/2 + 1/2 = 1/3 + 1/3 + 1/3 and (1, 1) = (1, 0) + (0, 1) are two
#: sums of steps, and Lattice(200) to size 2 holds 200 x 20,301 index
#: entries against 40,200 pairs
GATHER_WINDOWS = {
    "divisor-1": (dc.OrdinaryDirichlet(1), {"size_bound": 48}),
    "divisor-2": (dc.OrdinaryDirichlet(2), {"max_elements": 60}),
    "halves-and-thirds": (dc.RationalGenerators((("1/2",), ("1/3",))), {"size_bound": 6}),
    "unit-and-diagonal": (dc.RationalGenerators(((1, 0), (0, 1), (1, 1))), {"size_bound": 6}),
    "lattice-200": (dc.Lattice(200), {"size_bound": 2}),
}

@functools.cache
def _window_rows(name):
    """The window of ``name`` and its pair rows, made once: the reference
    scan's, or past 1000 elements, where that scan takes seconds, the
    table's ordered rows (``test_decomp_table`` checks the table against
    the scan on smaller windows of the same backends)."""
    backend, truncation = {**STEP_WINDOWS, **GATHER_WINDOWS}[name]
    enum = dc.enumerate_semigroup(backend, **truncation)
    return enum, pair_scan(enum) if len(enum) <= 1000 else list(enum.decomp)


@pytest.mark.parametrize("name", sorted(STEP_WINDOWS))
def test_the_step_index_holds_each_element_less_each_step(name):
    """steps[s][x] is the y with e_y + s = e_x, or -1 where the window has
    none; every element is one sum of steps, and the step index has fewer
    entries than the table has pairs."""
    enum, _ = _window_rows(name)
    backend = enum.backend
    gens = getattr(backend, "generators", None) or [
        tuple(int(m == i) for m in range(backend.k)) for i in range(backend.k)]
    assert len(enum.steps) == len(gens) == backend.n_steps
    for s, back in zip(gens, enum.steps):
        plus_s = {ident_add(backend, e.ident, s): y for y, e in enumerate(enum)}
        assert list(back) == [plus_s.get(e.ident, -1) for e in enum]
    assert len(gens) * len(enum) <= len(enum.decomp.first)


def _constant_operands(enum, rng, exact):
    """one, const and a value vector constant on the whole window, with
    seeded operands: Gaussian rationals and integers in exact mode,
    complex values in double mode."""
    n = len(enum)
    if exact:
        c = QC(Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(1, 5), 3))
        ops = [from_values(enum, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                     if rng.random() < density else 0 for _ in range(n)])
               for density in (1.0, 0.3)]
        ops.append(from_values(enum, [rng.randint(-99, 99) for _ in range(n)]))
    else:
        c = _cplx(rng)
        ops = [dc.TruncatedFunction(enum, [_cplx(rng) if rng.random() < density else 0j
                                           for _ in range(n)], False)
               for density in (1.0, 0.3)]
    consts = [dc.one(enum, exact), dc.constant(enum, c, exact),
              dc.TruncatedFunction(enum, [ops[0].values[-1]] * n, exact)]
    return consts, ops + consts


@pytest.mark.parametrize("name, exact", [
    (name, exact) for name in sorted(STEP_WINDOWS) + sorted(GATHER_WINDOWS)
    for exact in (True, False) if (name, exact) != ("lattice-200", True)])
def test_constant_products_match_the_pair_loop(name, exact, monkeypatch):
    """A product with an operand constant on the whole window gives the
    pair loop's values, exactly in exact mode (on integers too) and to
    1e-12 in double mode.  On a window with a step index it reads no
    table: it takes the step sums, and no reader is made; elsewhere the
    gather reads the table (Lattice(200)'s in double mode only, where its
    exact pair loop would take seconds)."""
    enum, rows = _window_rows(name)
    assert (enum.steps is not None) == (name in STEP_WINDOWS)
    if name in ("halves-and-thirds", "unit-and-diagonal"):   # not free, cheap enough
        assert enum.backend.n_steps * len(enum) <= len(enum.decomp.first)
    made, reader = [], dc.algebra.reader
    monkeypatch.setattr(dc.algebra, "reader", lambda a, b, exact, a_const=False: (
        made.append(a_const) or reader(a, b, exact, a_const)))
    consts, ops = _constant_operands(enum, random.Random(len(enum)), exact)
    combos = [(c, h) for c in consts for h in ops]
    if len(enum) > 1000:    # the exact pair loop is slow: one operand per constant
        combos = combos[1::len(ops) + 1]
    for c, h in combos:
        got = [dc.convolve(c, h), dc.convolve(h, c)]
        if exact:
            assert got[0] == got[1] == convolve_fractions(c, h, rows)
        else:
            for g in got:
                _close(g, convolve_pairs(c, h, rows))
    if enum.steps:
        assert made == []
    else:
        assert made and all(made)


#: windows the sweep tests run on: Lattice(200)'s 20,301 elements would
#: take the reference loops minutes
SWEEP_WINDOWS = sorted(STEP_WINDOWS) + sorted(set(GATHER_WINDOWS) - {"lattice-200"})


def _sweep_data(enum, mode, rng, gaussian):
    """A maker of seeded scalars and of the coefficients the sweep tests
    below share, in double mode, on integers or through qdot (Gaussian
    rationals or real ones): constants on the whole window or off 0 only,
    dense values with a chosen value at 0, and one + unit."""
    exact = mode != "double"

    def scalar():
        if mode == "double":
            return _cplx(rng)
        if mode == "integral":
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        return QC(re, Fraction(rng.randint(-5, 5), 3)) if gaussian else re

    def dense(at0):
        return dc.TruncatedFunction(enum, [at0] + [scalar() for _ in range(len(enum) - 1)],
                                    exact)

    def const(c, at0=None):     # c on the whole window, or off 0 only
        return dc.TruncatedFunction(enum, [c if at0 is None else at0] + [c] * (len(enum) - 1),
                                    exact)

    return scalar, dense, const, dc.one(enum, exact) + dc.unit(enum, exact)


def _made_readers(monkeypatch):
    """The (exact, a_const) arguments of every reader the sweep makes."""
    made, reader = [], dc.algebra.reader
    monkeypatch.setattr(dc.algebra, "reader", lambda a, b, exact, a_const=False: (
        made.append((exact, a_const)) or reader(a, b, exact, a_const)))
    return made


def _check_readers(name, mode, made):
    """Exact data that are all integers are read as ints, other exact data
    through qdot; a coefficient constant off 0 is gathered only on a
    window without a step index."""
    assert made and all(exact == (mode == "qdot") for exact, _ in made)
    assert any(gather for _, gather in made) == (name in GATHER_WINDOWS)


def _reference_window(enum, gs, coefficients):
    """The window an exact reference runs on, the solutions there and the
    coefficients restricted to it: past 1000 elements (perfbench's
    generators to size 8) the part of size <= 3/2, where the values are
    the full window's because sizes add."""
    if len(enum) <= 1000:
        return enum, gs, coefficients
    sub = dc.enumerate_semigroup(enum.backend, size_bound=Fraction(3, 2))

    def cut(f):
        return dc.TruncatedFunction(sub, [f(e.ident) for e in sub], f.exact)

    return sub, [cut(g) for g in gs], [cut(f) for f in coefficients]


@pytest.mark.parametrize("mode", ["double", "integral", "qdot"])
@pytest.mark.parametrize("name", SWEEP_WINDOWS)
def test_solve_reads_constants_by_step_sums(name, mode, monkeypatch):
    """a_0 + (one + unit) g + c_2 g^2 + a_3 g^3 = 0, with c_2 constant and
    a_3 constant off 0 only: the constant products read the tables of g,
    g^2 and g^3, the last two with a value z0^2, z0^3 at 0 that the
    running step sums must leave out.  Double values agree with the pair
    loop to 1e-12, exact ones (integral or real rationals) equal the
    literal recursion."""
    enum, rows = _window_rows(name)
    rng = random.Random(f"{name}-{mode}")
    scalar, dense, const, one_unit = _sweep_data(enum, mode, rng, gaussian=False)
    while True:     # on integers f'(z0) = +-1 keeps 1 / f'(z0) integral
        z0, c2, c3, e = (scalar() for _ in range(4))
        fprime = 2 + 2 * c2 * z0 + 3 * e * z0 * z0
        if (fprime in (1, -1)) if mode == "integral" else abs(complex(fprime)) >= 0.3:
            break
    coeffs = (dense(-(2 * z0 + c2 * z0 ** 2 + e * z0 ** 3)), one_unit, const(c2),
              const(c3, e))
    made = _made_readers(monkeypatch)
    g = dc.solve(dc.ConvPolynomial(coeffs), z0)
    _check_readers(name, mode, made)
    if mode == "double":
        terms = [(c.values, (j,)) for j, c in enumerate(coeffs)]
        _close(g, sweep_pairs(enum, [terms], [z0], rows=rows)[0])
    else:
        _, [g], coeffs = _reference_window(enum, [g], coeffs)
        assert g == literal_solve(dc.ConvPolynomial(tuple(coeffs)), z0)


@pytest.mark.parametrize("mode", ["double", "integral", "qdot"])
@pytest.mark.parametrize("name", SWEEP_WINDOWS)
def test_solve_system_reads_constants_by_step_sums(name, mode, monkeypatch):
    """g1^2 + alpha g2 + (one + unit) g1 + b_1 = 0 and g2^2 + gamma g1 g2
    + delta g2 + c g1^2 + b_2 = 0 at z1 z2 != 0: gamma reads the product
    table g1 g2, whose value z1 z2 at 0 the step sums must leave out;
    alpha and delta read one table, g2, whose sums are kept once; c reads
    g1^2; one + unit is constant off 0 only.  Double values agree with
    the pair loop to 1e-12, exact ones (integral or Gaussian rationals,
    real ones on the largest window) equal its exact twin."""
    enum, rows = _window_rows(name)
    rng = random.Random(f"{name}-{mode}")
    # Gaussian rationals through qdot take 20 s on the generators' 1838 elements
    scalar, dense, const, one_unit = _sweep_data(enum, mode, rng, len(enum) <= 1000)
    while True:     # on integers det J = +-1 keeps J^-1 integral
        z1, z2, alpha, gamma, delta, c = (scalar() for _ in range(6))
        det = ((2 * z1 + 2) * (2 * z2 + gamma * z1 + delta)
               - alpha * (gamma * z2 + 2 * c * z1))
        if (det in (1, -1)) if mode == "integral" else abs(complex(det)) >= 0.3:
            break
    coeffs = [dc.unit(enum, mode != "double"), const(alpha), one_unit,
              dense(-(z1 * z1 + alpha * z2 + 2 * z1)), const(gamma), const(delta),
              const(c), dense(-(z2 * z2 + gamma * z1 * z2 + delta * z2 + c * z1 * z1))]
    exponents = [[(2, 0), (0, 1), (1, 0), (0, 0)], [(0, 2), (1, 1), (0, 1), (2, 0), (0, 0)]]

    def equations(coeffs):
        return [list(zip(coeffs[:4], exponents[0])), list(zip([coeffs[0]] + coeffs[4:],
                                                              exponents[1]))]

    S = dc.PolySystem(2, [[dc.Monomial(f, e) for f, e in eq] for eq in equations(coeffs)],
                      (z1, z2))
    made = _made_readers(monkeypatch)
    gs = dc.solve_system(S)
    _check_readers(name, mode, made)
    if mode != "double":
        enum, gs, coeffs = _reference_window(enum, gs, coeffs)
        rows = None
    want = sweep_pairs(enum, [[(f.values, e) for f, e in eq] for eq in equations(coeffs)],
                       (z1, z2), exact=mode != "double", rows=rows)
    for g, w in zip(gs, want):
        if mode == "double":
            _close(g, w)
        else:
            assert g == w


@pytest.mark.parametrize("name", sorted(TABLE_WINDOWS))
def test_qdot_reads_a_square_once_per_pair(name):
    """qdot of a table with itself, which takes each stored pair's product
    once and doubles the half row's sum before the middle pair, equals
    qdot of the table with an equal copy, which takes both products of
    each pair: on every row, whole and inner, over real rationals,
    Gaussian rationals and data that are mostly 0.  ``reader`` hands a
    table times itself to qdot as one Ratios, so squares take the branch."""
    backend, truncation = TABLE_WINDOWS[name]
    enum = dc.enumerate_semigroup(backend, **truncation)
    dec, n = enum.decomp, len(enum)
    rng = random.Random(sum(map(ord, name)))

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    data = [[rational() for _ in range(n)],
            [QC(rational(), rational()) if rng.random() < 0.5 else rational()
             for _ in range(n)],
            [rational() if rng.random() < 0.1 else Fraction(0) for _ in range(n)]]
    for values in data:
        a, b = dc.algebra.Ratios(values), dc.algebra.Ratios(values)
        for t in range(n):
            lo, hi, d = dec.offsets[t], dec.offsets[t + 1], dec.middle[t]
            for skip in (0, 1) if t else (0,):
                us, vs = dec.first[lo + skip:hi], dec.second[lo + skip:hi]
                assert dc.algebra.qdot(a, a, us, vs, d) == dc.algebra.qdot(a, b, us, vs, d)
        read = dc.algebra.reader(values, values, True)
        assert read.args[0] is read.args[1]


def _sparse(enum, at0, support, scalar, exact):
    """at0 at 0 and a seeded scalar at each index of ``support``, 0 elsewhere."""
    values = [at0] + [0 * at0] * (len(enum) - 1)
    for s in support:
        values[s] = scalar()
    return dc.TruncatedFunction(enum, values, exact)


@pytest.mark.parametrize("mode", ["double", "integral", "qdot"])
@pytest.mark.parametrize("name", SWEEP_WINDOWS)
def test_solve_reads_a_small_support_by_its_pairs(name, mode, monkeypatch):
    """a_0 + a_1 g + a_2 g^2 = 0 with a_1 and a_2 supported off 0 on the
    middle element and the last, whose sums leave the window: both read
    their pairs (s, x - s) only, a_1 from the table of g, a_2 from that
    of g^2 with its value z0^2 at 0, and no reader is made for either.
    Double values agree with the pair loop to 1e-12, exact ones equal the
    literal recursion."""
    enum, rows = _window_rows(name)
    n, exact = len(enum), mode != "double"
    rng = random.Random(f"support-{name}-{mode}")
    scalar, dense, _, _ = _sweep_data(enum, mode, rng, gaussian=False)
    while True:     # on integers f'(z0) = +-1 keeps 1 / f'(z0) integral
        z0, c1, c2 = (scalar() for _ in range(3))
        fprime = c1 + 2 * c2 * z0
        if (fprime in (1, -1)) if mode == "integral" else abs(complex(fprime)) >= 0.3:
            break
    support = [n // 2, n - 1]
    coeffs = (dense(-(c1 * z0 + c2 * z0 * z0)), _sparse(enum, c1, support, scalar, exact),
              _sparse(enum, c2, support, scalar, exact))
    assert sum(len(enum.partners(s)) for s in support) < n - 1
    made = _made_readers(monkeypatch)
    g = dc.solve(dc.ConvPolynomial(coeffs), z0)
    assert made == [(mode == "qdot", False)]     # g * g's only
    if mode == "double":
        terms = [(c.values, (j,)) for j, c in enumerate(coeffs)]
        _close(g, sweep_pairs(enum, [terms], [z0], rows=rows)[0])
    else:
        _, [g], coeffs = _reference_window(enum, [g], coeffs)
        assert g == literal_solve(dc.ConvPolynomial(tuple(coeffs)), z0)


def _shaped(enum, shape, at0, scalar, exact):
    """A coefficient of one shape off 0, with ``at0`` at 0 (``const`` and
    ``unit`` fix their own)."""
    n, v = len(enum), scalar()
    off = {"vanishes off 0": [0 * v] * (n - 1),
           "at 1 only": [v] + [0 * v] * (n - 2),
           "at top only": [0 * v] * (n - 2) + [v],
           "const off 0": [v] * (n - 1),
           "const": [v] * (n - 1),
           "unit": [0 * v] * (n - 1),
           "dense": [scalar() for _ in range(n - 1)]}[shape]
    first = {"const": v, "unit": 1 + 0 * v.real}.get(shape, at0)
    return dc.TruncatedFunction(enum, [first] + off, exact)


SHAPES = ["vanishes off 0", "at 1 only", "at top only", "const off 0", "const", "unit",
          "dense"]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("z0_is_0", [False, True])
def test_fixed_parts_hold_for_every_coefficient_shape(window, exact, z0_is_0):
    """Each term's c(x) z0-part is dropped where c vanishes off 0 or the
    node's value at 0 is 0 (z0 = 0), fixed once where c is constant off
    0, and read per element otherwise, c(1) != 0 = c(x > 1) included,
    whose c[1:] ``shape`` reads as vanishing; c(0) times the masked
    product table is formed on product nodes only, without a product for
    a real 1.  Degree 3 equations with every shape in every place give
    the literal recursion's values exactly, the pair loop's in doubles."""
    rng = random.Random(f"{len(window)}-{exact}-{z0_is_0}")
    scalar, dense, _, _ = _sweep_data(window, "qdot" if exact else "double", rng, False)
    for i in range(len(SHAPES)):
        shapes = [SHAPES[(i + j) % len(SHAPES)] for j in range(3)]
        while True:
            z0 = 0 * scalar() if z0_is_0 else scalar()
            cs = [_shaped(window, s, scalar(), scalar, exact) for s in shapes]
            at0 = [c.values[0] for c in cs]
            fprime = at0[0] + 2 * at0[1] * z0 + 3 * at0[2] * z0 * z0
            if abs(complex(fprime)) >= 0.3 and not cs[-1].is_zero():
                break
        a0 = dense(-(at0[0] * z0 + at0[1] * z0 ** 2 + at0[2] * z0 ** 3))
        T = dc.ConvPolynomial((a0, *cs))
        g = dc.solve(T, z0)
        if exact:
            assert g == literal_solve(T, z0)
        else:
            terms = [(c.values, (j,)) for j, c in enumerate(T.coeffs)]
            _close(g, sweep_pairs(window, [terms], [z0])[0])
