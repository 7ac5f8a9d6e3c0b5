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
BudgetError, a Gamma argument past exactpi._MAX_GAMMA_ARG before it
builds any factorial.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .exactpi import BudgetError, DomainError, PiRational, gamma_half

Number = int | float

# the float paths refuse a result whose estimated relative error exceeds this
_FLOAT_MAX_REL_ERR = 1e-10


def _check_D(D: int, low: int = 1) -> int:
    """Validate the dimension D >= low of the unit sphere S^D in R^(D+1).

    D = 2n + eps with n = D // 2 and eps = D % 2.  There are n + eps =
    (D + 1) // 2 angle/radius pairs, one per coordinate circle, and n + 1
    polar radii; for even D the last radius mu_{n+1} is the lone unpaired
    coordinate and carries a sign.  The monomials over S^n pass low = 0.
    """
    if isinstance(D, bool) or not isinstance(D, int):
        raise TypeError(f"sphere dimension must be an integer, got {D!r}")
    if D < low:
        raise DomainError(f"sphere dimension must be >= {low}, got {D}")
    return D


_MIN_QUAD_NODES = 8  # below it, |I(2N) - I(N)| can miss the error of I(2N)
# refined nodes per axis, 2N: a rule of 2N nodes costs O(N^2) to build
_MAX_QUAD_AXIS_NODES = 2048
# the tensor grid (quad_integrate): its dimension is n, so D <= 9 caps it at
# 4 axes, and it holds (2N)^n nodes; 2^24 is the default N = 32 grid at D = 9
_MAX_QUAD_D = 9
_MAX_QUAD_GRID_NODES = 1 << 24
# the product rule (quad_product): its refined pass sums n axes of 2N nodes
_MAX_PRODUCT_NODES = 1 << 20


def _check_quad(D: int, nodes_per_axis: int, grid: bool = True) -> int:
    """Validate a quadrature's arguments without numpy, so the CLI refuses first; returns D.

    grid selects the tensor grid's limits (quad_integrate); without it,
    the product rule's (quad_product), which has no cap on D.
    """
    D = _check_D(D)
    if grid and D > _MAX_QUAD_D:
        raise DomainError(
            f"quadrature grid supports D <= {_MAX_QUAD_D}, got D={D}; "
            "use mc_integrate (--oracle mc) for higher dimensions"
        )
    if isinstance(nodes_per_axis, bool) or not isinstance(nodes_per_axis, int):
        raise TypeError("nodes_per_axis must be an integer")
    if nodes_per_axis < _MIN_QUAD_NODES:
        raise ValueError(f"nodes_per_axis must be >= {_MIN_QUAD_NODES}")
    refined, n = 2 * nodes_per_axis, D // 2
    nodes, most, what = ((refined ** n, _MAX_QUAD_GRID_NODES, f"grid of {refined}^{n}") if grid
                         else (n * refined, _MAX_PRODUCT_NODES, f"pass of {n} x {refined} axis"))
    if refined > _MAX_QUAD_AXIS_NODES or nodes > most:
        raise BudgetError(
            f"nodes_per_axis {nodes_per_axis} on S^{D} is past the quadrature budget: "
            f"its refined {what} nodes may have at most "
            f"{_MAX_QUAD_AXIS_NODES} per axis and {most} in all"
        )
    return D


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


def _lgamma_log(m: int, c: int, alphas: Sequence[Number], base: int) -> tuple:
    """The log of the _gamma_quotient value from log-Gamma terms, and its relative error bound.

    exp turns the log's absolute error into the value's relative error.
    Each of the k nonzero terms carries a rounding, and the left-to-right
    sum k - 1 more (a zero, log Gamma(1) or log Gamma(2), adds exactly), so
    the bound is (k/2) eps sum |term| + eps, the last eps for exp's own
    rounding.  Huge exponents make the terms cancel, and the bound grows.
    """
    terms = [math.log(2.0), 0.5 * m * math.log(math.pi)]
    terms += [math.lgamma((c + float(a)) / 2.0) for a in alphas]  # int a rounds before c is added
    terms.append(-math.lgamma((base + math.fsum(alphas)) / 2.0))
    log = 0.0
    for t in terms:  # left to right, not fsum, so every float result keeps its bits
        log += t
    eps = sys.float_info.epsilon
    return log, 0.5 * sum(t != 0.0 for t in terms) * eps * math.fsum(map(abs, terms)) + eps


def _lgamma_quotient(m: int, c: int, alphas: Sequence[Number], base: int) -> float:
    """The float twin of _gamma_quotient, from log-Gamma terms alone.

    It shares no code with the exact kernel, so the two check each other.
    A relative error bound past _FLOAT_MAX_REL_ERR raises DomainError.
    Outside the double range this raises OverflowError: math.exp does
    above it; below it, where exp would return a subnormal or 0.0, this
    raises as the exact path's to_float does.
    """
    log, bound = _lgamma_log(m, c, alphas, base)
    if bound > _FLOAT_MAX_REL_ERR:
        # the fewest digits, at least 2, whose text reads above the limit
        shown = next(t for d in range(2, 18)
                     if float(t := f"{bound:.{d}g}") > _FLOAT_MAX_REL_ERR)
        raise DomainError(
            f"the floating path's log-Gamma terms cancel: its relative error "
            f"could reach {shown}, above {_FLOAT_MAX_REL_ERR:g}"
        )
    out = math.exp(log)
    if out < sys.float_info.min:
        raise OverflowError("value is below the double-precision range")
    return out


def sphere_volume(D: int) -> PiRational:
    """Total volume of S^D: 2 pi^((D+1)/2) / Gamma((D+1)/2), exactly."""
    D = _check_D(D)
    return _gamma_quotient(D + 1, 0, (), D + 1)


def dirichlet_signed(n: int, alphas: Sequence[int]) -> PiRational:
    """Integral over S^n of prod x_j^(a_j) for integer a_j >= 0, exactly.

    Odd exponents kill the integral by the x_j -> -x_j symmetry; otherwise
    the value is 2 prod Gamma((1+a_j)/2) / Gamma((n+1)/2 + sum a_j / 2).
    """
    n = _check_D(n, 0)
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
    n = _check_D(n, 0)
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
    n = _check_D(n, 0)
    alphas = _check_exponents(alphas, n + 1, 0, "dirichlet_abs")
    kernel = _gamma_quotient if _all_int(alphas) else _lgamma_quotient
    return kernel(0, 1, alphas, n + 1)


def dirichlet_abs_float(n: int, alphas: Sequence[Number]) -> float:
    """dirichlet_abs on the log-Gamma float kernel, whatever the exponent types."""
    n = _check_D(n, 0)
    alphas = _check_exponents(alphas, n + 1, 0, "dirichlet_abs_float")
    return _lgamma_quotient(0, 1, alphas, n + 1)


def mu_power_integral(D: int, alphas: Sequence[Number]) -> PiRational | float:
    """Integral over S^D of prod mu_j^(a_j), one exponent per polar radius pair.

    Value: 2 pi^((D+1)/2) prod Gamma(1 + a_j/2) / Gamma((D+1)/2 + sum a_j / 2)
    for a_j >= -1 (the Jacobian factor mu_j keeps a_j = -1 integrable).
    Exact PiRational when every exponent is an int; floating otherwise.
    """
    D = _check_D(D)
    alphas = _check_exponents(alphas, (D + 1) // 2, -1, "mu_power_integral")
    kernel = _gamma_quotient if _all_int(alphas) else _lgamma_quotient
    return kernel(D + 1, 2, alphas, D + 1)


def mu_power_float(D: int, alphas: Sequence[Number]) -> float:
    """mu_power_integral on the log-Gamma float kernel, whatever the exponent types."""
    D = _check_D(D)
    alphas = _check_exponents(alphas, (D + 1) // 2, -1, "mu_power_float")
    return _lgamma_quotient(D + 1, 2, alphas, D + 1)


def reduction_rhs(D: int, alphas: Sequence[Number]) -> PiRational | float:
    """Right-hand side of the sphere-within-a-sphere reduction.

    pi^(n+eps) times the S^n integral of prod |mu_j|^(a_j + 1), the
    exponent vector zero-padded on the polar radii absent from the product
    so its length is n + 1.  One route: dirichlet_abs picks the exact or
    the floating kernel, and the pi^(n+eps) factor follows its result's
    type.  Structurally equal to mu_power_integral for integer exponents.
    """
    D = _check_D(D)
    circles = (D + 1) // 2
    alphas = _check_exponents(alphas, circles, -1, "reduction_rhs")
    shifted = tuple(a + 1 for a in alphas) + (0,) * (1 - D % 2)  # pad: even D's mu_{n+1}
    value = dirichlet_abs(D // 2, shifted)
    scale = PiRational(1, 2 * circles) if isinstance(value, PiRational) else math.pi ** circles
    return scale * value


def term_integral(D: int, ks: Sequence[int]) -> PiRational:
    """Integral over S^D of prod mu_j^(2 k_j) for non-negative integers k_j.

    Specializing the Gamma factors to integers gives
    2 pi^((D+1)/2) prod k_j! / Gamma((D+1)/2 + k) with k = sum k_j.
    Computed from factorials directly, so structural equality with
    mu_power_integral(D, 2 ks) is a genuine cross-check.
    """
    D = _check_D(D)
    ks = _check_exponents(ks, (D + 1) // 2, 0, "term_integral")
    if not _all_int(ks):
        raise TypeError("term_integral needs integer orders; use mu_power_integral for real ones")
    denom = gamma_half(Fraction(D + 1, 2) + sum(ks))  # first: its cap bounds every k_j!
    q = Fraction(2)
    for k in ks:
        q *= math.factorial(k)
    return PiRational(q, D + 1) / denom
