"""Sphere integrals in closed form, with exact pi-rational values and
brute-force oracles that re-derive every formula numerically."""

from .exactpi import (
    DomainError,
    PiRational,
    gamma_half,
    pi_power,
    pochhammer,
    to_float,
)
from .integrals import (
    SphereDim,
    as_dim,
    dirichlet_abs,
    dirichlet_abs_float,
    dirichlet_signed,
    mu_power_float,
    mu_power_integral,
    reduction_rhs,
    sphere_volume,
    term_integral,
)
from .fluid import (
    FluidParams,
    SeriesResult,
    fluid_closed,
    fluid_series,
    gamma_power_values,
)
from .oracle import (
    IntegrandError,
    MCConfig,
    OracleEstimate,
    PointBatch,
    SpherePoint,
    mc_integrate,
    monomial_values,
    mu_power_values,
    poly_integrate,
    polynomial_values,
    quad_integrate,
    sample_batch,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PiRational",
    "gamma_half",
    "pi_power",
    "pochhammer",
    "to_float",
    "SphereDim",
    "as_dim",
    "dirichlet_abs",
    "dirichlet_abs_float",
    "dirichlet_signed",
    "mu_power_float",
    "mu_power_integral",
    "reduction_rhs",
    "sphere_volume",
    "term_integral",
    "FluidParams",
    "SeriesResult",
    "fluid_closed",
    "fluid_series",
    "gamma_power_values",
    "IntegrandError",
    "MCConfig",
    "OracleEstimate",
    "PointBatch",
    "SpherePoint",
    "mc_integrate",
    "monomial_values",
    "mu_power_values",
    "poly_integrate",
    "polynomial_values",
    "quad_integrate",
    "sample_batch",
    "__version__",
]
