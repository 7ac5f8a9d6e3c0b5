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
from collections import namedtuple
from collections.abc import Sequence

from .exactpi import BudgetError, DomainError, _Frozen, to_float
from .integrals import SphereDim, as_dim, mu_power_float, sphere_volume

# fluid_series refuses above this; the closed form stays available to 1.
_SERIES_W2_LIMIT = 0.99
# fluid_series's one work cap, on the truncation order K.  V_D is computed
# first and leaves the double range past D = 437, so r <= 219 circles and
# the recurrence does at most 219,000 multiply-adds.  With w^2 <= 0.99,
# h_k <= C(k + r - 1, k) 0.99^k, about 10^248 at r = 219, k = 1000: finite.
_SERIES_MAX_ORDER = 1000


class FluidParams(_Frozen):
    """Sphere dimension plus one angular velocity per coordinate circle.

    Every w_j must satisfy w_j^2 < 1, otherwise the fluid would reach the
    speed of light somewhere on the sphere and the integral diverges.
    """

    __slots__ = ("dim", "omegas")

    def __init__(self, dim: SphereDim | int, omegas: Sequence[float]):
        dim = as_dim(dim)
        omegas = tuple(float(w) for w in omegas)
        if len(omegas) != dim.n_angles:
            raise ValueError(
                f"D={dim.D} has {dim.n_angles} rotation circles, got "
                f"{len(omegas)} angular velocities"
            )
        for w in omegas:
            if not math.isfinite(w):
                raise DomainError(f"angular velocity {w} is not finite")
            if w * w >= 1.0:
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


class SeriesResult(namedtuple(
        "SeriesResult", "value terms_used last_term_magnitude truncation_order")):
    """Truncated series value plus convergence bookkeeping.

    terms_used counts the shells summed, truncation_order + 1.
    last_term_magnitude is the contribution of the boundary shell (total
    order k = truncation_order); partial sums are monotone non-decreasing
    in the truncation order since every term is non-negative.
    """

    __slots__ = ()


def fluid_series(params: FluidParams, truncation_order: int) -> SeriesResult:
    """Binomial-series evaluation of the gamma^(D+1) integral.

    Expanding gamma^(D+1) = (1 - sum w_j^2 mu_j^2)^(-(D+1)/2) and
    integrating each monomial prod mu_j^(2 k_j) over S^D, every
    multi-index of total order k contributes V_D prod w_j^(2 k_j): the
    Pochhammer coefficient and the k_j! cancel against
    Gamma((D+1)/2 + k).  Shell k is therefore V_D h_k(w_1^2, ..., w_r^2),
    with h_k the complete homogeneous symmetric polynomial, built by the
    recurrence h_k += w_j^2 h_(k-1) one circle at a time.  Truncation is
    by total order: shells k = 0..truncation_order, summed in ascending k,
    so the reduction order is deterministic.

    Refuses when max w_j^2 > 0.99: convergence goes as (max w_j^2)^k, so
    the shell count needed there is enormous; use fluid_closed instead.
    Refuses up front, with BudgetError (a ValueError), a truncation order
    above 1000.  V_D comes from the log-Gamma float kernel, not from
    the exact route fluid_closed takes, so a wrong V_D in either shows as
    a gap between the two.  Raises OverflowError past D = 437, where V_D
    leaves the double range, before the recurrence runs.
    """
    if isinstance(truncation_order, bool) or not isinstance(truncation_order, int):
        raise TypeError("truncation_order must be an integer")
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    K = truncation_order
    if K > _SERIES_MAX_ORDER:
        raise BudgetError(
            f"truncation_order {K} is past the series cap: order <= {_SERIES_MAX_ORDER}"
        )
    w2 = [w * w for w in params.omegas]
    if max(w2) > _SERIES_W2_LIMIT:
        raise DomainError(
            f"max w^2 = {max(w2)!r} > {_SERIES_W2_LIMIT}: the series needs "
            "impractically many shells this close to divergence; evaluate "
            "fluid_closed instead"
        )
    volume = mu_power_float(params.dim, (0,) * params.dim.n_angles)
    h = [1.0] + [0.0] * K  # h[k] = h_k of the circles folded in so far
    for x in w2:
        for k in range(1, K + 1):
            h[k] += x * h[k - 1]
    total = 0.0
    for hk in h:
        total += volume * hk
    return SeriesResult(
        value=total,
        terms_used=K + 1,
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
