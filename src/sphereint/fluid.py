"""The rigidly rotating fluid integral over S^D.

A rotation with angular velocity w_i on each of the n + eps coordinate
circles gives a local speed v^2 = sum mu_i^2 w_i^2 and Lorentz factor
gamma = 1 / sqrt(1 - v^2).  The integral of gamma^(D+1) over S^D has the
closed form V_D / prod (1 - w_j^2).  The truncated binomial series
evaluated here converges to it from below; its shell of total order k
is V_D h_k(w_1^2, ..., w_r^2), with h_k the complete homogeneous
symmetric polynomial.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from .exactpi import BudgetError, DomainError, to_float
from .integrals import SphereDim, as_dim, sphere_volume

# fluid_series refuses above this; the closed form stays available to 1.
_SERIES_W2_LIMIT = 0.99
# fluid_series work caps: truncation order K, and C(K + r, r) multi-indices
# over r rotation circles.  C(K + r, r) >= 1 + K r, so the terms cap also
# bounds the K r steps of the h_k recurrence, and it keeps every h_k (a sum
# of at most C(K + r, r) monomials, each below 1) under 10^6, far from overflow.
_SERIES_MAX_ORDER = 1000
_SERIES_MAX_TERMS = 10**6


@dataclass(frozen=True)
class FluidParams:
    """Sphere dimension plus one angular velocity per coordinate circle.

    Every w_j must satisfy w_j^2 < 1, otherwise the fluid would reach the
    speed of light somewhere on the sphere and the integral diverges.
    """

    dim: SphereDim
    omegas: Tuple[float, ...]

    def __init__(self, dim: Union[SphereDim, int], omegas: Sequence[float]):
        dim = as_dim(dim)
        omegas = tuple(float(w) for w in omegas)
        if len(omegas) != dim.n_angles:
            raise ValueError(
                f"D={dim.D} has {dim.n_angles} rotation circles, got "
                f"{len(omegas)} angular velocities"
            )
        for w in omegas:
            if not math.isfinite(w) or w * w >= 1.0:
                raise DomainError(
                    f"angular velocity {w} has w^2 >= 1; the integral diverges"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "omegas", omegas)


def fluid_closed(params: FluidParams) -> float:
    """Integral of gamma^(D+1) over S^D: V_D / prod (1 - w_j^2).

    Raises OverflowError when the product is below the normal double
    range, as many circles near light speed make it, even where the
    quotient itself would fit.
    """
    denom = 1.0
    for w in params.omegas:
        denom *= 1.0 - w * w
    if denom < sys.float_info.min:
        raise OverflowError("prod (1 - w^2) is below the double-precision range")
    return to_float(sphere_volume(params.dim)) / denom


@dataclass(frozen=True)
class SeriesResult:
    """Truncated series value plus convergence bookkeeping.

    last_term_magnitude is the contribution of the boundary shell (total
    order k = truncation_order); partial sums are monotone non-decreasing
    in the truncation order since every term is non-negative.
    """

    value: float
    terms_used: int
    last_term_magnitude: float
    truncation_order: int


def fluid_series(params: FluidParams, truncation_order: int) -> SeriesResult:
    """Binomial-series evaluation of the gamma^(D+1) integral.

    Expanding gamma^(D+1) = (1 - sum w_j^2 mu_j^2)^(-(D+1)/2) and
    integrating each monomial prod mu_j^(2 k_j) with term_integral, every
    multi-index of total order k contributes V_D prod w_j^(2 k_j): the
    Pochhammer coefficient and the k_j! cancel against
    Gamma((D+1)/2 + k).  Shell k is therefore V_D h_k(w_1^2, ..., w_r^2),
    with h_k the complete homogeneous symmetric polynomial, built by the
    recurrence h_k += w_j^2 h_(k-1) one circle at a time.  Truncation is
    by total order: shells k = 0..truncation_order, summed in ascending k,
    so the reduction order is deterministic.  terms_used counts the
    multi-indices those shells cover, C(order + r, r).

    Refuses when max w_j^2 > 0.99: convergence goes as (max w_j^2)^k, so
    the shell count needed there is enormous; use fluid_closed instead.
    Refuses up front, with BudgetError (a ValueError), a truncation order
    above 1000 or one whose multi-index count C(order + r, r) exceeds 10^6.
    """
    if isinstance(truncation_order, bool) or not isinstance(truncation_order, int):
        raise TypeError("truncation_order must be an integer")
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    K, r = truncation_order, params.dim.n_angles
    if K > _SERIES_MAX_ORDER or math.comb(K + r, r) > _SERIES_MAX_TERMS:
        raise BudgetError(
            f"truncation_order {K} over {r} rotation circles is past the series caps: "
            f"order <= {_SERIES_MAX_ORDER} and C(order + {r}, {r}) <= {_SERIES_MAX_TERMS} terms"
        )
    w2 = [w * w for w in params.omegas]
    if max(w2) > _SERIES_W2_LIMIT:
        raise DomainError(
            f"max w^2 = {max(w2)!r} > {_SERIES_W2_LIMIT}: the series needs "
            "impractically many shells this close to divergence; evaluate "
            "fluid_closed instead"
        )
    h = [1.0] + [0.0] * K  # h[k] = h_k of the circles folded in so far
    for x in w2:
        for k in range(1, K + 1):
            h[k] += x * h[k - 1]
    volume = to_float(sphere_volume(params.dim))
    total = 0.0
    for hk in h:
        total += volume * hk
    return SeriesResult(
        value=total,
        terms_used=math.comb(K + r, r),
        last_term_magnitude=volume * h[K],
        truncation_order=K,
    )


def gamma_power_values(mus, params: FluidParams):
    """Vectorized gamma^(D+1) for the oracle integrators; mus is (M, n+1)."""
    k = params.dim.n_angles
    # 1 - v^2 built in the matmul result: negating the weights negates every
    # rounded product and sum exactly, so -v^2 + 1 is the bits of 1 - v^2
    out = (mus[:, :k] ** 2) @ [-w * w for w in params.omegas]
    out += 1.0
    out **= -0.5 * (params.dim.D + 1)
    return out
