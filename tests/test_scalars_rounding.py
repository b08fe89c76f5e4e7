import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dirconv.rounding import (abs_bounds, add_dn, add_up, exp_dn, exp_up,
                              frac_bounds, log_dn, mul_dn, mul_up,
                              weight_bounds)
from dirconv.scalars import (QC, exact_value, format_rational, format_scalar,
                             parse_rational, parse_scalar)

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=50)


# -- Gaussian rationals -------------------------------------------------------

@pytest.mark.parametrize("call, error, match", [
    (lambda: QC(1, 2) / QC(0), ZeroDivisionError, "zero Gaussian rational"),
    (lambda: exact_value(True), TypeError, "booleans are not scalars"),
    (lambda: exact_value(0.5), TypeError, "floating-point value in exact mode"),
    (lambda: exact_value([1]), TypeError, "cannot interpret"),
    (lambda: parse_scalar({"re": "1", "x": "2"}, True), ValueError, "bad scalar object"),
])
def test_malformed_scalars_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_qc_field_arithmetic():
    a = QC(Fraction(1, 2), Fraction(3))
    b = QC(Fraction(-2), Fraction(1, 3))
    assert a + b == QC(Fraction(-3, 2), Fraction(10, 3))
    assert a * b == QC(Fraction(1, 2) * Fraction(-2) - 3 * Fraction(1, 3),
                       Fraction(1, 2) * Fraction(1, 3) + 3 * Fraction(-2))
    assert (a / b) * b == a
    assert a - a == QC(0)
    assert -a + a == QC(0)


def test_qc_mixes_with_fractions():
    a = QC(1, 2)
    assert a + Fraction(1, 2) == QC(Fraction(3, 2), 2)
    assert Fraction(2) * a == QC(2, 4)
    assert 1 / QC(0, 1) == QC(0, -1)
    assert a == a + 0


def test_qc_equality_with_rationals():
    assert QC(Fraction(3, 4)) == Fraction(3, 4)
    assert Fraction(3, 4) == QC(Fraction(3, 4))
    assert QC(1, 1) != 1
    assert hash(QC(Fraction(5))) == hash(Fraction(5))


def test_qc_powers():
    assert QC(0, 1) ** 2 == Fraction(-1)
    assert QC(1, 1) ** 4 == QC(-4) == QC(-4, 0)


@given(fractions_st, fractions_st)
def test_exact_value_prefers_fractions(re, im):
    v = exact_value(QC(re, im))
    if im == 0:
        assert isinstance(v, Fraction)
    else:
        assert isinstance(v, QC)


def test_exact_value_rejects_floats():
    with pytest.raises(TypeError):
        exact_value(0.5)


def test_scalar_serialization_round_trip():
    for v in (Fraction(22, 7), QC(Fraction(1, 3), Fraction(-2, 5)),
              Fraction(-4)):
        assert parse_scalar(format_scalar(v), exact=True) == v
    assert parse_scalar(format_scalar(1.5 + 2j), exact=False) == 1.5 + 2j
    assert format_rational(parse_rational("22/7")) == "22/7"


# -- outward rounding ----------------------------------------------------------

@given(fractions_st)
def test_frac_bounds_enclose(q):
    lo, hi = frac_bounds(q)
    assert Fraction(lo) <= q <= Fraction(hi)


def test_frac_bounds_beyond_the_double_range():
    big = sys.float_info.max
    assert frac_bounds(Fraction(10 ** 400)) == (big, math.inf)
    assert frac_bounds(-Fraction(10 ** 400)) == (-math.inf, -big)
    assert frac_bounds(10 ** 400) == (big, math.inf)
    assert frac_bounds(Fraction(10 ** 400, 3)) == (big, math.inf)
    # the largest double itself is exact
    assert frac_bounds(Fraction(big)) == (big, big)


@given(fractions_st, fractions_st)
def test_abs_bounds_exact_enclose(re, im):
    lo, hi = abs_bounds(QC(re, im))
    a2 = re * re + im * im
    assert Fraction(lo) ** 2 <= a2 <= Fraction(hi) ** 2


def test_abs_bounds_complex():
    lo, hi = abs_bounds(3.0 + 4.0j)
    assert lo <= 5.0 <= hi
    assert abs_bounds(0j) == (0.0, 0.0)


@given(st.floats(min_value=-30, max_value=30))
def test_exp_bounds_enclose(x):
    assert exp_dn(x) <= math.exp(x) <= exp_up(x)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_log_bounds_enclose(x):
    assert log_dn(x) <= math.log(x)


def test_directed_sums_keep_zero_exact():
    assert add_up(0.0, 0.0) == 0.0
    assert mul_up(0.0, 1e308) == 0.0
    assert mul_dn(5.0, 0.0) == 0.0
    assert add_dn(1.0, -1.0) == 0.0


@given(st.floats(min_value=-4, max_value=4), st.floats(min_value=-4, max_value=4),
       st.floats(min_value=0, max_value=10))
@example(-0.5, 0.0, 3.0)
@example(-0.5, 0.25, 3.0)
def test_weight_bounds_enclose(r, s, size):
    # a point rate, then the bracket r_lo <= r_hi of two rates (r_lo < 0 <= r_hi
    # among them): the bounds hold e^(-r size) at both ends
    lo, hi = weight_bounds(r, r, size, size)
    assert lo <= math.exp(-r * size) <= hi
    r_lo, r_hi = sorted((r, s))
    lo, hi = weight_bounds(r_lo, r_hi, size, size)
    assert all(lo <= math.exp(-q * size) <= hi for q in (r_lo, r_hi))


def test_directed_ops_bracket():
    a, b = 1.1, 2.2
    assert mul_dn(a, b) <= a * b <= mul_up(a, b)
    assert add_dn(a, b) <= a + b <= add_up(a, b)
