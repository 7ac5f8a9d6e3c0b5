"""Sphere integrals in closed form, with exact pi-rational values and
brute-force oracles that re-derive every formula numerically."""

from .exactpi import (
    BudgetError,
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
    poly_integrate,
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


# PEP 562: the names in __all__ not imported above are the oracles', which
# load on first access, so that the exact path never imports numpy.
def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "BudgetError",
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
