"""Mutation audit: every kernel, scaled by 1 + 10^-6, is caught by a CLI check.

Each row scales one kernel in process, at every argument or at one, and
lists commands that must then exit 3.  A command catches a mutation only
where its check resolves 10^-6: quadrature at D <= 5 and N = 32 reports
bounds near 10^-7 or below, the product rule at D = 20, 41 and 101 and
N = 64 bounds near 10^-12, and the fluid series' verdict has a tolerance
of 10^-12 past its tail bound.  The blind spots below are part of the
design:

* `reduce` compares two routes through one quotient kernel, and the
  identity is homogeneous in it: a constant factor on the whole quotient
  scales both sides.  So `reduce` stays at exit 0 under a scaled
  `_gamma_quotient` and, on the float path, a scaled `_lgamma_quotient`.
  A factor on one Gamma value is not constant: `gamma_half` scaled at 1/2
  alone makes `reduce --D 4 --alpha 1,0` exit 3;
* Monte Carlo at the default 10^5 samples resolves about 10^-2, so no MC
  check can see a 10^-6 error; none is in the table.  That leaves
  `oracle.monomial_values` and `oracle.polynomial_values`, which only
  Monte Carlo calls, outside it.
"""

from fractions import Fraction

import pytest

from sphereint import cli, fluid, integrals, prodquad
from sphereint.cli import main

_EXACT_QUAD = [
    ["mu-power", "--D", "5", "--alpha", "2,0,1", "--verify", "--oracle", "quad"],
    ["volume", "--D", "4", "--verify", "--oracle", "quad"],
    ["dirichlet", "--n", "2", "--alpha", "2,0,2", "--abs", "--verify", "--oracle", "quad"],
]
_FLOAT_QUAD = ["mu-power", "--D", "5", "--alpha", "2.5,0,1", "--verify", "--oracle", "quad"]
_FLOAT_DIRICHLET = ["dirichlet", "--n", "2", "--alpha", "0.5,0,0", "--abs", "--verify",
                    "--oracle", "quad"]
# past the tensor grid's D <= 9, where only the product rule checks
_HIGH_D = ["--verify", "--oracle", "quad", "--nodes", "64"]
_HIGH_D_EXACT = [
    ["volume", "--D", "20", *_HIGH_D],
    ["mu-power", "--D", "41", "--alpha=" + ",".join(["2", "0", "1"] * 7), *_HIGH_D],
    ["dirichlet", "--n", "50", "--alpha=" + ",".join(["2", "0", "1"] * 17), "--abs", *_HIGH_D],
]
_HIGH_D_FLOAT = [
    ["mu-power", "--D", "20", "--alpha=" + ",".join(["2.5", "0"] * 5), *_HIGH_D],
    ["mu-power", "--D", "41", "--alpha=" + ",".join(["0.5", "-1", "3"] * 7), *_HIGH_D],
    ["dirichlet", "--n", "50", "--alpha=" + ",".join(["0.5", "0", "2"] * 17), "--abs",
     *_HIGH_D],
]
_FLUID_QUAD = ["fluid", "--D", "5", "--omega", "0.3,0.1,0.2", "--verify", "--oracle", "quad"]
_SERIES = ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "60"]
_REDUCE = ["reduce", "--D", "5", "--alpha", "2,0,1"]
_REDUCE_HALF = ["reduce", "--D", "4", "--alpha", "1,0"]  # Gamma(1/2) on one side only
_FLOAT_REDUCE = ["reduce", "--D", "5", "--alpha", "0.5,0,-1"]

_FLOAT_UP = 1 + 1e-6
_EXACT_UP = Fraction(1_000_001, 1_000_000)  # a PiRational takes no float factor

# (module, kernel, factor, the one argument it scales at or None for all,
#  commands that must exit 3, commands that stay at 0)
_AUDIT = [
    (integrals, "_gamma_quotient", _EXACT_UP, None,
     _EXACT_QUAD + [_FLUID_QUAD, _SERIES] + _HIGH_D_EXACT, [_REDUCE]),
    (integrals, "gamma_half", _EXACT_UP, None, _HIGH_D_EXACT, []),
    (integrals, "gamma_half", _EXACT_UP, Fraction(3, 2), [_EXACT_QUAD[0], _EXACT_QUAD[2]], []),
    (integrals, "gamma_half", _EXACT_UP, Fraction(1, 2), [_EXACT_QUAD[2], _REDUCE_HALF], []),
    (integrals, "_lgamma_quotient", _FLOAT_UP, None,
     [_FLOAT_QUAD, _FLOAT_DIRICHLET, _SERIES] + _HIGH_D_FLOAT, [_FLOAT_REDUCE]),
    (cli, "to_float", _FLOAT_UP, None, _EXACT_QUAD, []),
    (fluid, "fluid_closed", _FLOAT_UP, None, [_FLUID_QUAD, _SERIES], []),
    (fluid, "gamma_power_values", _FLOAT_UP, None, [_FLUID_QUAD], []),
    (prodquad, "_axis_sum", _FLOAT_UP, None, _EXACT_QUAD + [_FLOAT_QUAD], []),
]


@pytest.mark.parametrize(
    "module, name, factor, at, caught, blind", _AUDIT,
    ids=[f"{m.__name__.rsplit('.', 1)[1]}.{n}" + (f"({at})" if at else "")
         for m, n, _, at, *_ in _AUDIT])
def test_a_scaled_kernel_is_caught(module, name, factor, at, caught, blind, monkeypatch,
                                   capsys):
    for argv in caught + blind:
        assert main(argv) == 0, argv  # unmutated, every command agrees
    kernel = getattr(module, name)

    def mutant(*args, **kw):
        value = kernel(*args, **kw)
        return value * factor if at is None or args[0] == at else value

    monkeypatch.setattr(module, name, mutant)
    codes = {" ".join(argv): main(argv) for argv in caught + blind}
    capsys.readouterr()
    assert codes == {" ".join(argv): 3 if argv in caught else 0 for argv in caught + blind}
