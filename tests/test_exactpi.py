import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereint.exactpi import (
    DomainError,
    PiRational,
    gamma_half,
    to_float,
)


def test_gamma_at_small_points():
    assert gamma_half(Fraction(1, 2)) == PiRational(Fraction(1), 1)
    assert gamma_half(1) == PiRational(Fraction(1))
    assert gamma_half(Fraction(5, 2)) == PiRational(Fraction(3, 4), 1)
    assert gamma_half(4) == PiRational(Fraction(6))


def test_gamma_matches_factorials():
    for k in range(1, 21):
        assert gamma_half(k) == PiRational(Fraction(math.factorial(k - 1)))


def test_gamma_recurrence_on_half_grid():
    # Gamma(a+1) = a Gamma(a) for every half-integer step up to 50
    a = Fraction(1, 2)
    while a < 50:
        assert gamma_half(a + 1) == gamma_half(a) * a
        a += Fraction(1, 2)


def test_gamma_against_lgamma():
    a = Fraction(1, 2)
    while a <= 50:
        ours = to_float(gamma_half(a))
        ref = math.exp(math.lgamma(float(a)))
        assert ours == pytest.approx(ref, rel=1e-12)
        a += Fraction(1, 2)


def test_gamma_rejects_poles_and_junk():
    with pytest.raises(DomainError):
        gamma_half(0)
    with pytest.raises(DomainError):
        gamma_half(Fraction(-1, 2))
    with pytest.raises(ValueError):
        gamma_half(Fraction(1, 3))
    with pytest.raises(TypeError):
        gamma_half(0.5)


def test_gamma_ratio_is_a_rising_factorial():
    # Gamma(a + k) / Gamma(a) = a (a+1) ... (a+k-1), k steps of the recurrence at once
    for a in (Fraction(5, 2), Fraction(1, 2), 3):
        for k in range(8):
            rising = math.prod((a + i for i in range(k)), start=Fraction(1))
            assert gamma_half(a) * rising == gamma_half(a + k)


def test_rendering():
    assert str(PiRational(Fraction(8, 3), 2)) == "8/3 * pi^1"
    assert str(PiRational(Fraction(2), 4)) == "2 * pi^2"
    assert str(PiRational(Fraction(1), 1)) == "1 * pi^(1/2)"
    assert str(PiRational(Fraction(3, 4), -1)) == "3/4 * pi^(-1/2)"
    assert str(PiRational(Fraction(-5, 2))) == "-5/2"
    assert str(PiRational(Fraction(0), 6)) == "0"


def test_rendering_has_no_digit_limit():
    # str(int) refuses past 4300 digits; a coefficient prints every digit
    text = str(PiRational(Fraction(10**5000 + 1, 3), 2))
    assert text == "1" + "0" * 4999 + "1/3 * pi^1"
    assert str(PiRational(Fraction(-1, 10**5000))) == "-1/1" + "0" * 5000


def test_zero_canonicalizes_pi_power():
    assert PiRational(Fraction(0), 6) == PiRational(Fraction(0), 0)
    assert PiRational(Fraction(0), 6).m == 0


def test_addition_requires_matching_power():
    with pytest.raises(ValueError):
        PiRational(Fraction(1), 2) + PiRational(Fraction(1), 1)
    # zero is the identity regardless of its (canonical) power
    z = PiRational(Fraction(0))
    x = PiRational(Fraction(3, 2), 5)
    assert z + x == x
    assert x + z == x


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        PiRational(0.5, 1)


def test_to_float_reference_values():
    assert to_float(PiRational(Fraction(1), 2)) == pytest.approx(math.pi, rel=1e-15)
    assert to_float(PiRational(Fraction(4), 2)) == pytest.approx(4 * math.pi, rel=1e-15)
    # (3/4) sqrt(pi), evaluated independently
    assert to_float(PiRational(Fraction(3, 4), 1)) == pytest.approx(
        0.75 * math.sqrt(math.pi), rel=1e-15
    )
    assert to_float(PiRational(Fraction(0))) == 0.0


def test_to_float_overflow_is_reported():
    with pytest.raises(OverflowError):
        to_float(PiRational(Fraction(10 ** 400)))
    # nonzero values below the normal range (subnormal or zero as doubles)
    for q in (Fraction(1, 10 ** 400), Fraction(-1, 10 ** 310)):
        with pytest.raises(OverflowError, match="below the double-precision range"):
            to_float(PiRational(q, 3))


_MAX, _MIN = sys.float_info.max, sys.float_info.min
_LOG2_SQRT_PI = math.log2(math.pi) / 2


@st.composite
def _near_double_range(draw):
    """q * pi^(m/2), |m| <= 50,000, scaled by 2^k to land in or just past the double range."""
    num = draw(st.integers(-10 ** 60, 10 ** 60).filter(bool))
    den = draw(st.integers(1, 10 ** 60))
    m = draw(st.integers(-50_000, 50_000))
    log2 = draw(st.integers(-1080, 1030))
    k = log2 - round(math.log2(abs(num)) - math.log2(den) + m * _LOG2_SQRT_PI)
    return PiRational(Fraction(num, den) * Fraction(2) ** k, m)


def _mpmath_to_float(value):
    """to_float's contract, evaluated by mpmath at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(value.q.numerator) / value.q.denominator
        out = float(x * mpmath.power(mpmath.pi, mpmath.mpf(value.m) / 2))
    if math.isinf(out):
        raise OverflowError("value exceeds the double-precision range")
    if abs(out) < _MIN:
        raise OverflowError("value is below the double-precision range")
    return out


def _outcome(convert, value):
    try:
        return convert(value).hex()
    except OverflowError as e:
        return str(e)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_near_double_range())
@example(PiRational(Fraction(_MAX)))
@example(PiRational(Fraction(_MAX) + Fraction(2) ** 969))  # rounds down onto DBL_MAX
@example(PiRational(Fraction(_MAX) + Fraction(2) ** 970))  # half an ulp past: overflows
@example(PiRational(Fraction(_MAX) / Fraction(math.sqrt(math.pi)), 1))
@example(PiRational(Fraction(_MIN)))
@example(PiRational(Fraction(_MIN) - Fraction(2) ** -1076))  # rounds up onto the range
@example(PiRational(Fraction(_MIN) - Fraction(2) ** -1074))  # the largest subnormal
@example(PiRational(-Fraction(_MIN) / Fraction(math.sqrt(math.pi)), 1))
@example(PiRational(Fraction(1), 10 ** 9))
@example(PiRational(Fraction(-1), -10 ** 9))
def test_to_float_matches_mpmath(value):
    assert _outcome(to_float, value) == _outcome(_mpmath_to_float, value)


def test_to_float_rounds_rationals_correctly():
    # a few units below a rounding midpoint: a conversion that first rounds
    # q to 40 or 60 digits lands on the midpoint and rounds the wrong way
    assert to_float(PiRational(Fraction(_MAX) + Fraction(2) ** 970 - 1)) == _MAX
    q = Fraction((2 ** 53 + 1) * 2 ** 300 + 1, 2 ** 300)
    assert to_float(PiRational(q)) == 2.0 ** 53 + 2
    assert to_float(PiRational(q - Fraction(2, 2 ** 300))) == 2.0 ** 53


def test_division_and_powers():
    x = PiRational(Fraction(3, 2), 3)
    y = PiRational(Fraction(1, 2), 1)
    assert x / y == PiRational(Fraction(3), 2)
    with pytest.raises(ZeroDivisionError):
        x / PiRational(Fraction(0))


_small = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
_pirat = st.builds(PiRational, _small, st.integers(min_value=-6, max_value=6))


@settings(max_examples=200, derandomize=True)
@given(_pirat, _pirat, _pirat)
def test_multiplication_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=200, derandomize=True)
@given(_pirat, _small, _small)
def test_distributivity_within_fixed_power(a, q1, q2):
    b = PiRational(q1, 3)
    c = PiRational(q2, 3)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, derandomize=True)
@given(_pirat)
def test_float_conversion_is_multiplicative(a):
    two = PiRational(Fraction(2), 2)
    assert to_float(a * two) == pytest.approx(to_float(a) * to_float(two), rel=1e-14, abs=1e-300)
