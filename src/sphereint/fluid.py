"""The rigidly rotating fluid integral over S^D.

A rotation with angular velocity w_i on each of the n + eps coordinate
circles gives a local speed v^2 = sum mu_i^2 w_i^2 and Lorentz factor
gamma = 1 / sqrt(1 - v^2).  The integral of gamma^(D+1) over S^D has the
closed form V_D / prod (1 - w_j^2), which the truncated binomial series
evaluated here converges to from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from .exactpi import DomainError, PiRational, gamma_half, pi_power, pochhammer, to_float
from .integrals import SphereDim, as_dim, sphere_volume

# fluid_series refuses above this; the closed form stays available to 1.
_SERIES_W2_LIMIT = 0.99
# fluid_series work caps: truncation order K, and C(K + r, r) multi-indices
# over r rotation circles (the Pochhammer/Gamma precompute grows with K)
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


def fluid_closed_factors(params: FluidParams) -> Tuple[PiRational, float]:
    """The closed form split into its exact prefactor V_D and the float divergence factor."""
    denom = 1.0
    for w in params.omegas:
        denom *= 1.0 - w * w
    return sphere_volume(params.dim), denom


def fluid_closed(params: FluidParams) -> float:
    """Integral of gamma^(D+1) over S^D: V_D / prod (1 - w_j^2)."""
    volume, denom = fluid_closed_factors(params)
    return to_float(volume) / denom


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

    gamma^(D+1) = sum over multi-indices (k_1..k_r) of
    pochhammer((D+1)/2, k) * prod w_j^(2 k_j) / k_j!  times the monomial
    prod mu_j^(2 k_j), which integrates term by term through the factorial
    closed form (the unsimplified route; coefficients stay exact rationals
    and floats enter only at the w-power multiplication).  Truncation is by
    total order: all multi-indices with sum k_j <= truncation_order, summed
    shell by shell in ascending k, lexicographic within a shell, so the
    reduction order is deterministic.

    Refuses when max w_j^2 > 0.99: convergence goes as (max w_j^2)^k, so
    the shell count needed there is enormous; use fluid_closed instead.
    Refuses up front, with ValueError, a truncation order above 1000 or
    one whose multi-index count C(order + r, r) exceeds 10^6.
    """
    if isinstance(truncation_order, bool) or not isinstance(truncation_order, int):
        raise TypeError("truncation_order must be an integer")
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    K, r = truncation_order, params.dim.n_angles
    if K > _SERIES_MAX_ORDER or math.comb(K + r, r) > _SERIES_MAX_TERMS:
        raise ValueError(
            f"truncation_order {K} over {r} rotation circles is past the series caps: "
            f"order <= {_SERIES_MAX_ORDER} and C(order + {r}, {r}) <= {_SERIES_MAX_TERMS} terms"
        )
    w2 = [w * w for w in params.omegas]
    if max(w2) > _SERIES_W2_LIMIT:
        raise DomainError(
            f"max w^2 = {max(w2):.4g} > {_SERIES_W2_LIMIT}: the series needs "
            "impractically many shells this close to divergence; evaluate "
            "fluid_closed instead"
        )
    dim = params.dim
    half = Fraction(dim.D + 1, 2)

    factorials = [math.factorial(k) for k in range(K + 1)]
    pochs = [pochhammer(half, k) for k in range(K + 1)]
    gammas = [gamma_half(half + k) for k in range(K + 1)]
    # every term carries the same power of pi: (D+1) from the volume factor
    # minus the sqrt(pi) living in Gamma((D+1)/2 + k) when D is even
    pi_factor = to_float(pi_power(dim.D + 1 - gammas[0].m))

    total = 0.0
    terms = 0
    last_shell = 0.0
    for k in range(K + 1):
        shell = 0.0
        for ks in _shell_indices(k, r):
            terms += 1
            wpow = 1.0
            for kj, w2j in zip(ks, w2):
                if kj:
                    wpow *= w2j ** kj
            if wpow == 0.0:
                continue
            fact_prod = 1
            for kj in ks:
                fact_prod *= factorials[kj]
            coeff = pochs[k] / fact_prod               # series coefficient
            term_q = Fraction(2 * fact_prod) / gammas[k].q  # term-wise integral
            shell += float(coeff * term_q) * wpow
        shell_value = shell * pi_factor
        total += shell_value
        last_shell = abs(shell_value)
    return SeriesResult(
        value=total,
        terms_used=terms,
        last_term_magnitude=last_shell,
        truncation_order=K,
    )


def _shell_indices(total: int, slots: int):
    """Multi-indices with the given total over `slots` entries, lexicographic."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _shell_indices(total - first, slots - 1):
            yield (first,) + rest


def gamma_power_values(mus, params: FluidParams):
    """Vectorized gamma^(D+1) for the oracle integrators; mus is (M, n+1)."""
    k = params.dim.n_angles
    w2 = np.array([w * w for w in params.omegas])
    v2 = (mus[:, :k] ** 2) @ w2
    return (1.0 - v2) ** (-0.5 * (params.dim.D + 1))
