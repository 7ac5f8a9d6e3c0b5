"""Mutation audit: every kernel, scaled by 1 + 10^-6, is caught by a CLI check.

Each row scales one kernel in process and lists commands that must then
exit 3.  A command catches a mutation only where its check resolves 10^-6:
quadrature at D <= 5 and N = 32 reports bounds near 10^-7 or below, and
the fluid series' verdict has a tolerance of 10^-12 past its tail bound.
The blind spots below are part of the design:

* `reduce` compares two exact routes that both go through _gamma_quotient,
  and the identity is homogeneous in it: a constant factor scales both
  sides, so `reduce` stays at exit 0;
* Monte Carlo at the default 10^5 samples resolves about 10^-2, so no MC
  check can see a 10^-6 error; none is in the table.
"""

from fractions import Fraction

import pytest

from sphereint import cli, fluid, integrals, oracle
from sphereint.cli import main

_EXACT_QUAD = [
    ["mu-power", "--D", "5", "--alpha", "2,0,1", "--verify", "--oracle", "quad"],
    ["volume", "--D", "4", "--verify", "--oracle", "quad"],
    ["dirichlet", "--n", "2", "--alpha", "2,0,2", "--abs", "--verify", "--oracle", "quad"],
]
_FLOAT_QUAD = ["mu-power", "--D", "5", "--alpha", "2.5,0,1", "--verify", "--oracle", "quad"]
_FLUID_QUAD = ["fluid", "--D", "5", "--omega", "0.3,0.1,0.2", "--verify", "--oracle", "quad"]
_SERIES = ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "60"]
_REDUCE = ["reduce", "--D", "5", "--alpha", "2,0,1"]

_FLOAT_UP = 1 + 1e-6
_EXACT_UP = Fraction(1_000_001, 1_000_000)  # a PiRational takes no float factor

# (module, kernel, factor, commands that must exit 3, commands that stay at 0)
_AUDIT = [
    (integrals, "_gamma_quotient", _EXACT_UP, _EXACT_QUAD + [_FLUID_QUAD, _SERIES], [_REDUCE]),
    (integrals, "_lgamma_quotient", _FLOAT_UP, [_FLOAT_QUAD, _SERIES], []),
    (cli, "to_float", _FLOAT_UP, _EXACT_QUAD, []),
    (fluid, "fluid_closed", _FLOAT_UP, [_FLUID_QUAD, _SERIES], []),
    (fluid, "gamma_power_values", _FLOAT_UP, [_FLUID_QUAD], []),
    (oracle, "monomial_values", _FLOAT_UP, _EXACT_QUAD + [_FLOAT_QUAD], []),
]


@pytest.mark.parametrize("module, name, factor, caught, blind", _AUDIT,
                         ids=[f"{m.__name__.rsplit('.', 1)[1]}.{n}" for m, n, *_ in _AUDIT])
def test_a_scaled_kernel_is_caught(module, name, factor, caught, blind, monkeypatch, capsys):
    for argv in caught + blind:
        assert main(argv) == 0, argv  # unmutated, every command agrees
    kernel = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: kernel(*args, **kw) * factor)
    codes = {" ".join(argv): main(argv) for argv in caught + blind}
    capsys.readouterr()
    assert codes == {" ".join(argv): 3 if argv in caught else 0 for argv in caught + blind}
