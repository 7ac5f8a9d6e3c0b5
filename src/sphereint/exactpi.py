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
from decimal import Decimal
from fractions import Fraction


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class BudgetError(ValueError):
    """An input is past a documented work or memory bound; refused before any work."""


# Largest argument the exact Gamma accepts.  Gamma(a) is built from
# integers of up to (2a)!/a!, and the Fraction arithmetic on them grows
# about quadratically with a; a closed form on S^n also multiplies n + 1
# Gamma factors.  At this cap the slowest closed form found,
# dirichlet_abs(49998, (0,) * 49999), takes about 0.45 s on a 2-vCPU
# x86-64 host.
_MAX_GAMMA_ARG = 25_000


def _as_half_integer(a: int | Fraction) -> Fraction:
    """Validate that a is an exact integer or half-integer and return it as a Fraction."""
    if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
        raise TypeError(f"expected an exact integer or half-integer, got {a!r}")
    a = Fraction(a)
    if a.denominator not in (1, 2):
        raise ValueError(f"{a} is not an integer or half-integer")
    return a


class _Frozen:
    """Base of the immutable value types: the fields are the __slots__, in order.

    Equal fields make equal values with equal hashes, and only values of the
    same class compare; there is no ordering.  __init__ validates and sets
    the fields with object.__setattr__; any later assignment raises
    AttributeError.  Copies and pickles rebuild through the constructor.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class PiRational(_Frozen):
    """Exact value q * pi^(m/2).

    q is kept fully reduced (Fraction does that), and q == 0 forces m == 0,
    so two PiRational values are equal iff they are the same mathematical
    number.  The operators are the ones the closed forms use: products with
    a PiRational, int or Fraction, division by a nonzero PiRational, and
    addition.  Addition demands matching powers of pi; mixing powers is a
    bug in the caller, never something to coerce through floats.
    """

    __slots__ = ("q", "m")

    def __init__(self, q: Fraction, m: int = 0):
        if isinstance(q, float):
            raise TypeError("PiRational coefficient must be exact (int or Fraction)")
        q = Fraction(q)
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
        if not isinstance(other, PiRational):
            return NotImplemented
        if other.q == 0:
            raise ZeroDivisionError("division by zero PiRational")
        return PiRational(self.q / other.q, self.m - other.m)

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

    def __str__(self) -> str:
        if self.q == 0:
            return "0"
        # Decimal renders an int of any length exactly; str(Fraction) refuses
        # past 4300 digits, the limit parse_polynomial relies on
        num, den = (str(Decimal(i)) for i in self.q.as_integer_ratio())
        q = num if den == "1" else f"{num}/{den}"
        if self.m == 0:
            return q
        if self.m % 2 == 0:
            power = str(self.m // 2)
        else:
            power = f"({self.m}/2)"
        return f"{q} * pi^{power}"


# Mantissa width of the fixed-point sqrt(pi) and of its powers in to_float.
_PREC = 256


def _atan_inv(x: int, one: int) -> int:
    """atan(1/x) * one, truncated, from its alternating Taylor series."""
    power = total = one // x
    x2, k, sign = x * x, 3, -1
    while power:
        power //= x2
        total += sign * (power // k)
        k, sign = k + 2, -sign
    return total


def _sqrt_pi_fixed() -> int:
    """floor(sqrt(pi) * 2^_PREC) to within a few units, from Machin's formula."""
    guard = 32
    one = 1 << (2 * _PREC + guard)
    pi = 16 * _atan_inv(5, one) - 4 * _atan_inv(239, one)
    return math.isqrt(pi >> guard)


_SQRT_PI = _sqrt_pi_fixed()


def _truncate(man: int, exp: int) -> tuple[int, int]:
    """man * 2^exp with man cut to its _PREC leading bits."""
    drop = man.bit_length() - _PREC
    return (man >> drop, exp + drop) if drop > 0 else (man, exp)


def to_float(value: PiRational) -> float:
    """Decimal value of q * pi^(m/2), correctly rounded to double precision.

    sqrt(pi) is held as a 256-bit fixed-point integer (Machin's formula,
    then an integer square root), and (sqrt pi)^|m| is formed as a
    (mantissa, binary exponent) pair by square-and-multiply, truncating to
    256 bits after each product.  Its relative error is about |m| * 2^-250
    before the final rounding, which is one int / int true division that
    CPython rounds correctly.  Raises OverflowError outside the double
    range: above it, or nonzero and below the smallest normal double.
    Out-of-range values are refused from bit lengths, before any big shift.
    """
    if not isinstance(value, PiRational):
        raise TypeError(f"expected PiRational, got {value!r}")
    if value.q == 0:
        return 0.0
    num, den = value.q.numerator, value.q.denominator
    man, exp = 1, 0
    base, base_exp = _SQRT_PI, -_PREC
    k = abs(value.m)
    while k:
        if k & 1:
            man, exp = _truncate(man * base, exp + base_exp)
        k >>= 1
        if k:
            base, base_exp = _truncate(base * base, 2 * base_exp)
    if value.m < 0:
        den, exp = den * man, -exp
    else:
        num *= man
    # |num / den * 2^exp| lies in (2^(bits - 1), 2^(bits + 1)); refuse with
    # a bit to spare, so a value that rounds onto the range reaches the division
    bits = num.bit_length() - den.bit_length() + exp
    if bits > 1025:
        raise OverflowError("value exceeds the double-precision range")
    if bits < -1024:
        raise OverflowError("value is below the double-precision range")
    if exp >= 0:
        num <<= exp
    else:
        den <<= -exp
    try:
        out = num / den
    except OverflowError:
        raise OverflowError("value exceeds the double-precision range") from None
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
    if a.numerator > _MAX_GAMMA_ARG * a.denominator:  # integer compare: runs on every call
        raise BudgetError(
            f"exact Gamma argument {a} is past the cap of {_MAX_GAMMA_ARG}: "
            "its factorials would take too long to build"
        )
    if a.denominator == 1:
        return PiRational(Fraction(math.factorial(a.numerator - 1)))
    k = (a.numerator - 1) // 2  # a = k + 1/2
    return PiRational(Fraction(math.perm(2 * k, k), 4 ** k), 1)  # (2k)!/k! = perm(2k, k)

