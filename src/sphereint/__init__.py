"""Sphere integrals in closed form, with exact pi-rational values and
brute-force oracles that re-derive every formula numerically."""

__version__ = "0.1.0"

# the public names of each submodule.  PEP 562: a name's module is imported
# on first access, so `import sphereint` loads no submodule and the exact
# path never imports numpy.  dirichlet_abs_float, mu_power_float and
# mu_power_values are second names with no caller in the package, public for bench/.
_EXPORTS = {name: module for module, names in {
    "exactpi": "BudgetError DomainError PiRational gamma_half to_float",
    "integrals": "dirichlet_abs dirichlet_abs_float dirichlet_signed mu_power_float "
                 "mu_power_integral poly_integrate reduction_rhs sphere_volume term_integral",
    "fluid": "FluidParams SeriesResult fluid_closed fluid_series gamma_power_values",
    "oracle": "IntegrandError MCConfig PointBatch mc_integrate monomial_values mu_power_values "
              "polynomial_values quad_integrate sample_batch",
    "prodquad": "OracleEstimate quad_product",
}.items() for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
