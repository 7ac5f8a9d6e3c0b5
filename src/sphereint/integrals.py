"""Closed-form integrals over round unit spheres.

Two families, both exact in PiRational arithmetic when the exponents are
integers and evaluated through an independent log-Gamma floating path
otherwise:

* monomials in the embedding coordinates over S^n (signed, or with
  absolute values), and
* products of powers of the polar radii mu_j over S^D, where S^D is
  charted by n + eps radii/angle pairs (D = 2n + eps) plus, for even D,
  one leftover sign-carrying coordinate mu_{n+1}.

The two families are linked by a reduction identity that trades the
(2 pi)^(n+eps) angle volume and the mu_j Jacobian factors for one lower
sphere: integral over S^D of prod mu_j^(a_j) equals
pi^(n+eps) * integral over S^n of prod |mu_j|^(a_j + 1), zero-padded to
all n + 1 coordinates.  reduction_rhs evaluates that right-hand side.
poly_integrate extends the signed monomial integral linearly to
polynomials with rational coefficients.

Every closed form is one Gamma quotient
2 pi^(m/2) prod Gamma((c + a_j)/2) / Gamma((base + sum a_j)/2), named by
its shape (m, c, alphas, base): the volume of S^D is (D+1, 0, (), D+1),
the monomial integrals over S^n are (0, 1, alphas, n+1), and the
polar-radius powers over S^D are (D+1, 2, alphas, D+1).  Two kernels
evaluate it and share no code: _gamma_quotient exactly, and
_lgamma_quotient from log-Gamma floats.  The exact kernel refuses, with
BudgetError, a Gamma argument above 25000 before it builds any factorial.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .exactpi import DomainError, PiRational, _Frozen, gamma_half

Number = int | float

# the float paths refuse a result whose estimated relative error exceeds this
_FLOAT_MAX_REL_ERR = 1e-10


class SphereDim(_Frozen):
    """Dimension bookkeeping for the unit sphere S^D in R^(D+1).

    D = 2n + eps with eps = D mod 2.  There are n + eps angle/radius pairs
    and n + 1 polar radii; for even D the last radius mu_{n+1} is the lone
    unpaired coordinate and carries a sign.
    """

    __slots__ = ("D",)

    def __init__(self, D: int):
        if isinstance(D, bool) or not isinstance(D, int):
            raise TypeError(f"sphere dimension must be an integer, got {D!r}")
        if D < 1:
            raise DomainError(f"sphere dimension must be >= 1, got {D}")
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.D // 2

    @property
    def eps(self) -> int:
        return self.D % 2

    @property
    def n_angles(self) -> int:
        # floor((D+1)/2) rotation angles, one per coordinate pair
        return self.n + self.eps

    @property
    def n_mu(self) -> int:
        return self.n + 1


def as_dim(dim: SphereDim | int) -> SphereDim:
    if isinstance(dim, SphereDim):
        return dim
    return SphereDim(dim)


def _check_exponents(
    alphas: Sequence[Number], expected_len: int, minimum: int, what: str
) -> tuple:
    alphas = tuple(alphas)
    if len(alphas) != expected_len:
        raise ValueError(
            f"{what} takes {expected_len} exponents here, got {len(alphas)}; "
            "pass exactly one per coordinate"
        )
    for a in alphas:
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise TypeError(
                f"exponents must be int (exact path) or float (floating path), got {a!r}"
            )
        if isinstance(a, float) and not math.isfinite(a):
            raise DomainError(f"exponent {a!r} is not finite")
        if a < minimum:
            raise DomainError(
                f"{what} requires every exponent >= {minimum}, got {a}"
            )
    return alphas


def _all_int(alphas: Sequence[Number]) -> bool:
    return all(isinstance(a, int) for a in alphas)


def _gamma_quotient(m: int, c: int, alphas: Sequence[int], base: int) -> PiRational:
    """2 pi^(m/2) prod Gamma((c + a_j)/2) / Gamma((base + sum a_j)/2), exactly.

    Every exact closed form here has this shape, with the bottom its
    largest argument, so building that Gamma first lets gamma_half's cap
    refuse before any other factorial is built.
    """
    denom = gamma_half(Fraction(base + sum(alphas), 2))
    out = PiRational(Fraction(2), m)
    for a in alphas:
        out = out * gamma_half(Fraction(c + a, 2))
    return out / denom


def _lgamma_quotient(m: int, c: int, alphas: Sequence[Number], base: int) -> float:
    """The float twin of _gamma_quotient, from log-Gamma terms alone.

    It shares no code with the exact kernel, so the two check each other.
    Each log-Gamma term carries rounding of order 2^-52 |term|, and exp
    turns the log's absolute error into relative error; huge exponents
    make the terms cancel, so a bound past _FLOAT_MAX_REL_ERR raises
    DomainError.  Outside the double range this raises OverflowError:
    math.exp does above it; below it, where exp would return a subnormal
    or 0.0, this raises as the exact path's to_float does.
    """
    terms = [math.log(2.0), 0.5 * m * math.log(math.pi)]
    terms += [math.lgamma((c + float(a)) / 2.0) for a in alphas]  # int a rounds before c is added
    terms.append(-math.lgamma((base + math.fsum(alphas)) / 2.0))
    log = 0.0
    for t in terms:  # left to right, not fsum, so every float result keeps its bits
        log += t
    bound = sys.float_info.epsilon * math.fsum(map(abs, terms))
    if bound > _FLOAT_MAX_REL_ERR:
        raise DomainError(
            f"the floating path's log-Gamma terms cancel: its relative error "
            f"could reach {bound:.2g}, above {_FLOAT_MAX_REL_ERR:g}"
        )
    out = math.exp(log)
    if out < sys.float_info.min:
        raise OverflowError("value is below the double-precision range")
    return out


def sphere_volume(dim: SphereDim | int) -> PiRational:
    """Total volume of S^D: 2 pi^((D+1)/2) / Gamma((D+1)/2), exactly."""
    dim = as_dim(dim)
    return _gamma_quotient(dim.D + 1, 0, (), dim.D + 1)


def _check_n(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"sphere index n must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"sphere index n must be >= 0, got {n}")
    return n


def dirichlet_signed(n: int, alphas: Sequence[int]) -> PiRational:
    """Integral over S^n of prod x_j^(a_j) for integer a_j >= 0, exactly.

    Odd exponents kill the integral by the x_j -> -x_j symmetry; otherwise
    the value is 2 prod Gamma((1+a_j)/2) / Gamma((n+1)/2 + sum a_j / 2).
    """
    n = _check_n(n)
    alphas = _check_exponents(alphas, n + 1, 0, "dirichlet_signed")
    if not _all_int(alphas):
        raise TypeError(
            "dirichlet_signed needs integer exponents; use dirichlet_abs for real ones"
        )
    if any(a % 2 for a in alphas):
        return PiRational(Fraction(0))
    return _gamma_quotient(0, 1, alphas, n + 1)


def poly_integrate(n: int, poly: Mapping[Sequence[int], int | Fraction]) -> PiRational:
    """Exact integral over S^n of a polynomial in the embedding coordinates.

    poly maps exponent tuples (length n+1, non-negative ints) to rational
    coefficients.  Linearity over the signed monomial integrals; odd
    monomials drop out exactly.
    """
    total = PiRational(Fraction(0))
    for exps in sorted(poly):  # fixed term order, deterministic accumulation
        coeff = poly[exps]
        if isinstance(coeff, float):
            raise TypeError(
                f"coefficient for {exps} is a float; exact integration needs int or Fraction"
            )
        if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
            raise TypeError(f"bad coefficient {coeff!r} for {exps}")
        total = total + dirichlet_signed(n, tuple(exps)) * Fraction(coeff)
    return total


def dirichlet_abs(n: int, alphas: Sequence[Number]) -> PiRational | float:
    """Integral over S^n of prod |x_j|^(a_j) for real a_j >= 0.

    Exact PiRational when every exponent is an int; floating otherwise.
    """
    n = _check_n(n)
    alphas = _check_exponents(alphas, n + 1, 0, "dirichlet_abs")
    kernel = _gamma_quotient if _all_int(alphas) else _lgamma_quotient
    return kernel(0, 1, alphas, n + 1)


def dirichlet_abs_float(n: int, alphas: Sequence[Number]) -> float:
    """Floating-point path for dirichlet_abs, via log-Gamma only.

    Kept independent of the exact path so the two can check each other.
    Raises DomainError for exponents so large that the log-Gamma terms
    cancel past a 1e-10 relative error.
    """
    n = _check_n(n)
    alphas = _check_exponents(alphas, n + 1, 0, "dirichlet_abs")
    return _lgamma_quotient(0, 1, alphas, n + 1)


def mu_power_integral(dim: SphereDim | int, alphas: Sequence[Number]) -> PiRational | float:
    """Integral over S^D of prod mu_j^(a_j), one exponent per polar radius pair.

    Value: 2 pi^((D+1)/2) prod Gamma(1 + a_j/2) / Gamma((D+1)/2 + sum a_j / 2)
    for a_j >= -1 (the Jacobian factor mu_j keeps a_j = -1 integrable).
    Exact PiRational when every exponent is an int; floating otherwise.
    """
    dim = as_dim(dim)
    alphas = _check_exponents(alphas, dim.n_angles, -1, "mu_power_integral")
    kernel = _gamma_quotient if _all_int(alphas) else _lgamma_quotient
    return kernel(dim.D + 1, 2, alphas, dim.D + 1)


def mu_power_float(dim: SphereDim | int, alphas: Sequence[Number]) -> float:
    """Floating-point path for mu_power_integral, via log-Gamma only.

    Raises DomainError for exponents so large that the log-Gamma terms
    cancel past a 1e-10 relative error.
    """
    dim = as_dim(dim)
    alphas = _check_exponents(alphas, dim.n_angles, -1, "mu_power_integral")
    return _lgamma_quotient(dim.D + 1, 2, alphas, dim.D + 1)


def reduction_rhs(dim: SphereDim | int, alphas: Sequence[Number]) -> PiRational | float:
    """Right-hand side of the sphere-within-a-sphere reduction.

    pi^(n+eps) times the S^n integral of prod |mu_j|^(a_j + 1), the
    exponent vector zero-padded on the polar radii absent from the product
    so its length is n + 1.  Structurally equal to mu_power_integral for
    integer exponents; agrees through the floating path otherwise.
    """
    dim = as_dim(dim)
    alphas = _check_exponents(alphas, dim.n_angles, -1, "reduction_rhs")
    pad = dim.n_mu - dim.n_angles  # 1 for even D, 0 for odd
    if _all_int(alphas):
        shifted = tuple(a + 1 for a in alphas) + (0,) * pad
        return PiRational(1, 2 * dim.n_angles) * dirichlet_abs(dim.n, shifted)
    shifted = tuple(float(a) + 1.0 for a in alphas) + (0.0,) * pad
    return math.pi ** dim.n_angles * dirichlet_abs_float(dim.n, shifted)


def term_integral(dim: SphereDim | int, ks: Sequence[int]) -> PiRational:
    """Integral over S^D of prod mu_j^(2 k_j) for non-negative integers k_j.

    Specializing the Gamma factors to integers gives
    2 pi^((D+1)/2) prod k_j! / Gamma((D+1)/2 + k) with k = sum k_j.
    Computed from factorials directly, so structural equality with
    mu_power_integral(dim, 2 ks) is a genuine cross-check.
    """
    dim = as_dim(dim)
    ks = tuple(ks)
    if len(ks) != dim.n_angles:
        raise ValueError(
            f"term_integral takes {dim.n_angles} orders for D={dim.D}, got {len(ks)}"
        )
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError(f"term orders must be non-negative integers, got {k!r}")
    denom = gamma_half(Fraction(dim.D + 1, 2) + sum(ks))  # first: its cap bounds every k_j!
    q = Fraction(2)
    for k in ks:
        q *= math.factorial(k)
    return PiRational(q, dim.D + 1) / denom
