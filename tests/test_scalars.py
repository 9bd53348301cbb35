"""ComplexRational against a reference model of Fraction pairs.

The model is the plain textbook arithmetic on (re, im) pairs of
``fractions.Fraction``; the class under test keeps one Gaussian-integer
numerator over one denominator, so every result is compared with the model
and checked to be in lowest terms.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gauduchon.scalars import ONE, ZERO, ComplexRational, _rational_str, format_complex
from gauduchon.search import POSITIVITY_PADDING, sample_positive_metric

# -- the reference model -----------------------------------------------------


def m_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def m_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def m_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def m_div(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den


def m_format(x):
    re, im = x
    if not re and not im:
        return "0"
    if im == 0:
        return str(re)
    imag = f"{im}i"
    if re == 0:
        return imag
    return f"{re}+{imag}" if im > 0 else f"{re}{imag}"


# -- strategies and helpers ----------------------------------------------------

small = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
big = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20))
rationals = st.one_of(small, big, st.integers(-20, 20).map(Fraction))
pairs = st.tuples(rationals, rationals)


def make(x):
    return ComplexRational(*x)


def model(z):
    return z.re, z.im


def assert_canonical(z):
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1


def check(z, expected):
    assert_canonical(z)
    assert model(z) == expected


# -- operations ----------------------------------------------------------------


@given(pairs, pairs)
def test_ring_operations_match_model(x, y):
    zx, zy = make(x), make(y)
    check(zx + zy, m_add(x, y))
    check(zx - zy, m_sub(x, y))
    check(zx * zy, m_mul(x, y))
    check(zy * zx, m_mul(y, x))


@given(pairs, pairs)
def test_division_matches_model(x, y):
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            make(x) / make(y)
    else:
        check(make(x) / make(y), m_div(x, y))


@given(pairs, st.one_of(st.integers(-9, 9), rationals))
def test_mixed_operands(x, r):
    z, y = make(x), (Fraction(r), Fraction(0))
    check(z + r, m_add(x, y))
    check(r + z, m_add(y, x))
    check(z - r, m_sub(x, y))
    check(r - z, m_sub(y, x))
    check(z * r, m_mul(x, y))
    check(r * z, m_mul(y, x))
    if r:
        check(z / r, m_div(x, y))
    if x != (0, 0):
        check(r / z, m_div(y, x))


@given(pairs, st.integers(0, 6))
def test_unary_operations_and_powers(x, k):
    z = make(x)
    check(-z, (-x[0], -x[1]))
    check(z.conjugate(), (x[0], -x[1]))
    expected = (Fraction(1), Fraction(0))
    for _ in range(k):
        expected = m_mul(expected, x)
    check(z**k, expected)


@given(pairs)
def test_division_by_zero(x):
    z = make(x)
    for zero in (ZERO, 0, Fraction(0), ComplexRational("0", "0")):
        with pytest.raises(ZeroDivisionError):
            z / zero


# -- comparisons -----------------------------------------------------------------


@given(pairs, pairs)
def test_equality_and_hash(x, y):
    zx, zy = make(x), make(y)
    assert (zx == zy) == (x == y)
    assert zx == make(x) and hash(zx) == hash(make(x))
    if zx == zy:
        assert hash(zx) == hash(zy)
    assert bool(zx) == (x != (0, 0))


@given(rationals, st.integers(-20, 20))
def test_equality_with_int_and_fraction(r, n):
    z = ComplexRational(r)
    assert z == r and r == z and hash(z) == hash(r)
    assert ComplexRational(n) == n and hash(ComplexRational(n)) == hash(n)
    assert (z == n) == (r == n)
    assert ComplexRational(r, 1) != r


# -- conversions -----------------------------------------------------------------


@given(pairs)
def test_conversions(x):
    z = make(x)
    assert format_complex(z) == m_format(x) == repr(z)
    if x[1]:
        with pytest.raises(ValueError):
            z.real_part()
    else:
        assert z.real_part() == x[0]
        assert type(z.real_part()) is Fraction
    assert z.is_real == (x[1] == 0)


@given(pairs)
def test_string_and_int_constructors(x):
    assert ComplexRational(str(x[0]), str(x[1])) == make(x)
    assert_canonical(ComplexRational(str(x[0]), str(x[1])))


def test_constructor_accepts_what_fraction_accepts():
    assert ComplexRational(" 1/2 ", "0.25") == ComplexRational(Fraction(1, 2), Fraction(1, 4))
    assert ComplexRational("-6/4") == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        ComplexRational("1/0")
    with pytest.raises(ValueError):
        ComplexRational("1/x")


def test_float_and_complex_operands_raise():
    for bad in (0.5, 1j):
        with pytest.raises(TypeError):
            ONE + bad
        with pytest.raises(TypeError):
            bad * ONE


def test_float_and_complex_arguments_raise():
    # a float would enter as its binary fraction: 0.1 is 3602879701896397/2**55
    for args in ((0.5,), (1j,), (0, 0.1), (Fraction(1, 2), 1j), (0.0, 0)):
        with pytest.raises(TypeError):
            ComplexRational(*args)
    assert ComplexRational("0.1", "-2.5e-1") == ComplexRational(Fraction(1, 10), Fraction(-1, 4))


def test_zero_is_canonical():
    z = ComplexRational(Fraction(3, 7), Fraction(-3, 7))
    for zero in (ZERO, z - z, z + -z, z * 0, ComplexRational("0/5")):
        assert (zero._a, zero._b, zero._d) == (0, 0, 1)


# -- the sampler keeps the metrics it drew with Fraction entries -------------------


def old_sample_positive_metric(rng, n):
    """The sampler's X = i (M M* + delta I) in Fraction pairs, entry by entry."""
    m = [
        [
            (
                Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))),
                Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))),
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    zero = (Fraction(0), Fraction(0))
    x = [[zero] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            acc = zero
            for t in range(n):
                acc = m_add(acc, m_mul(m[j][t], (m[k][t][0], -m[k][t][1])))
            if j == k:
                acc = m_add(acc, (POSITIVITY_PADDING, Fraction(0)))
            x[j][k] = m_mul((Fraction(0), Fraction(1)), acc)
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sampler_matches_fraction_formula(n):
    for seed in range(300):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        metric = sample_positive_metric(new_rng, n)
        assert [[model(v) for v in row] for row in metric.x] == old_sample_positive_metric(
            old_rng, n
        )
        assert new_rng.getstate() == old_rng.getstate()


@given(st.integers(), st.integers(min_value=1), st.integers(min_value=1, max_value=10**30))
@example(0, 7, 1)
@example(5, 1, 1)
@example(-3, 1, 4)
@example(-(10**40) - 1, 3**80, 12)
@example(2**200, 1, 2**100)
def test_rational_str_matches_fraction(a, d, g):
    """_rational_str(a, d) == str(Fraction(a, d)), also when both share the factor g."""
    assert _rational_str(a, d) == str(Fraction(a, d))
    assert _rational_str(a * g, d * g) == str(Fraction(a * g, d * g))


@given(st.integers(), st.integers(), st.integers(min_value=1))
@example(0, 0, 5)
@example(3, 0, 6)
@example(0, -4, 6)
@example(-1, 1, 2)
@example(2**90 + 1, -(3**60), 10**25)
def test_format_complex_matches_fraction_str(a, b, d):
    """format_complex writes each part as str(Fraction(part, d)) would."""
    z = ComplexRational(Fraction(a, d), Fraction(b, d))
    re, im = str(Fraction(a, d)), str(Fraction(b, d))
    if not b:
        want = re
    elif not a:
        want = f"{im}i"
    else:
        want = f"{re}{'+' if b > 0 else ''}{im}i"
    assert format_complex(z) == want
