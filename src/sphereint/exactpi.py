"""Exact arithmetic over values of the form q * pi^(m/2).

Integrals of monomials over round spheres always come out as a rational
multiple of an integer power of sqrt(pi), so a pair (q, m) with q an exact
rational and m an integer is a closed value domain for everything computed
by this package.  Values canonicalize on construction (zero forces m = 0),
which makes equality and hashing structural.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class BudgetError(ValueError):
    """An input is past a documented work or memory bound; refused before any work."""


# Largest argument the exact Gamma accepts.  Gamma(a) is built from
# factorials of up to 2a, and the Fraction arithmetic on them grows about
# quadratically with a: at this cap the slowest closed form found takes
# about 1 s on a 2-vCPU x86-64 host.
_MAX_GAMMA_ARG = 25_000


def check_gamma_arg(num: int, den: int = 1) -> None:
    """Raise BudgetError when the exact Gamma argument num/den is past the cap."""
    if num > _MAX_GAMMA_ARG * den:  # integer compare: this runs on every exact call
        raise BudgetError(
            f"exact Gamma argument {Fraction(num, den)} is past the cap of "
            f"{_MAX_GAMMA_ARG}: its factorials would take too long to build"
        )


def _as_half_integer(a: int | Fraction) -> Fraction:
    """Validate that a is an exact integer or half-integer and return it as a Fraction."""
    if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
        raise TypeError(f"expected an exact integer or half-integer, got {a!r}")
    a = Fraction(a)
    if a.denominator not in (1, 2):
        raise ValueError(f"{a} is not an integer or half-integer")
    return a


@dataclass(frozen=True)
class PiRational:
    """Exact value q * pi^(m/2).

    q is kept fully reduced (Fraction does that), and q == 0 forces m == 0,
    so two PiRational values are equal iff they are the same mathematical
    number.  Addition demands matching powers of pi; mixing powers is a bug
    in the caller, never something to coerce through floats.
    """

    q: Fraction
    m: int = 0

    def __post_init__(self) -> None:
        q = self.q
        if isinstance(q, float):
            raise TypeError("PiRational coefficient must be exact (int or Fraction)")
        q = Fraction(q)
        m = self.m
        if isinstance(m, bool) or not isinstance(m, int):
            raise TypeError("pi power m must be an integer")
        if q == 0:
            m = 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    def __mul__(self, other):
        if isinstance(other, PiRational):
            return PiRational(self.q * other.q, self.m + other.m)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return PiRational(self.q * other, self.m)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiRational):
            if other.q == 0:
                raise ZeroDivisionError("division by zero PiRational")
            return PiRational(self.q / other.q, self.m - other.m)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return PiRational(self.q / Fraction(other), self.m)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if self.q == 0:
                raise ZeroDivisionError("division by zero PiRational")
            return PiRational(Fraction(other) / self.q, -self.m)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, PiRational):
            return NotImplemented
        # Zero is the additive identity whatever the other power is.
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if self.m != other.m:
            raise ValueError(
                f"cannot add pi^({self.m}/2) and pi^({other.m}/2) terms exactly; "
                "powers of pi must match"
            )
        return PiRational(self.q + other.q, self.m)

    def __sub__(self, other):
        if not isinstance(other, PiRational):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self) -> "PiRational":
        return PiRational(-self.q, self.m)

    def __pow__(self, k):
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError("PiRational exponent must be an integer")
        if k < 0 and self.q == 0:
            raise ZeroDivisionError("zero PiRational to a negative power")
        return PiRational(self.q ** k, self.m * k)

    def __str__(self) -> str:
        if self.q == 0:
            return "0"
        if self.m == 0:
            return str(self.q)
        if self.m % 2 == 0:
            power = str(self.m // 2)
        else:
            power = f"({self.m}/2)"
        return f"{self.q} * pi^{power}"


def pi_power(m: int) -> PiRational:
    """pi^(m/2) as an exact value."""
    return PiRational(Fraction(1), m)


def to_float(value: PiRational) -> float:
    """Decimal value of q * pi^(m/2), correctly rounded to double precision.

    Computed at 40 significant digits before the final rounding, so the
    relative error is below 1e-15 whenever the result is representable.
    Raises OverflowError outside the double range: above it, or nonzero
    and below the smallest normal double.
    """
    if not isinstance(value, PiRational):
        raise TypeError(f"expected PiRational, got {value!r}")
    if value.q == 0:
        return 0.0
    with mpmath.workdps(40):
        x = mpmath.mpf(value.q.numerator) / mpmath.mpf(value.q.denominator)
        if value.m != 0:
            x = x * mpmath.power(mpmath.pi, mpmath.mpf(value.m) / 2)
        out = float(x)
    if math.isinf(out):
        raise OverflowError("value exceeds the double-precision range")
    if abs(out) < sys.float_info.min:
        raise OverflowError("value is below the double-precision range")
    return out


def gamma_half(a: int | Fraction) -> PiRational:
    """Gamma(a) for positive integer or half-integer a, exactly.

    Gamma(k) = (k-1)! and Gamma(k + 1/2) = (2k)!/(4^k k!) * sqrt(pi); both
    follow from Gamma(1) = 1, Gamma(1/2) = sqrt(pi) and the recurrence
    Gamma(a+1) = a Gamma(a).  Raises BudgetError for a > 25000.
    """
    a = _as_half_integer(a)
    if a <= 0:
        raise DomainError(
            f"gamma_half({a}) hits a pole or the negative axis; argument must be positive"
        )
    check_gamma_arg(a.numerator, a.denominator)
    if a.denominator == 1:
        return PiRational(Fraction(math.factorial(a.numerator - 1)))
    k = (a.numerator - 1) // 2  # a = k + 1/2
    q = Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))
    return PiRational(q, 1)


def pochhammer(a: int | Fraction, k: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+k-1), exactly; empty product for k = 0."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"pochhammer order must be a non-negative integer, got {k!r}")
    if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
        raise TypeError(f"pochhammer base must be exact (int or Fraction), got {a!r}")
    out = Fraction(1)
    base = Fraction(a)
    for i in range(k):
        out *= base + i
    return out
