"""Error-bar calibration: every reported error bound held against the truth.

One seeded table per path that reports an error.  A row lands with the fix
that makes its path's bound honest; the float kernel's row is here.
"""

import random

from sphereint import integrals
from sphereint.exactpi import to_float
from sphereint.integrals import dirichlet_abs, mu_power_integral


def _float_cases():
    """Seeded integer-exponent shapes: mu-powers on S^D and |x| monomials on S^n.

    D and n up to 24, exponents in [-1, 400] (>= 0 for monomials), so every
    Gamma argument stays below 2,500 and the exact kernel gives the truth.
    Most exponents are small, so that most values stay in the double range.
    """
    rng = random.Random(15)

    def exponent(low):
        return rng.randint(low, 400 if rng.random() < 0.3 else 12)

    cases = [("mu", 3, (6, 3))]  # eps * sum|terms| was short here: 3.65e-15 > 2.38e-15
    while len(cases) < 1500:
        if rng.random() < 0.5:
            D = rng.randint(1, 24)
            cases.append(("mu", D, tuple(exponent(-1) for _ in range((D + 1) // 2))))
        else:
            n = rng.randint(0, 24)
            cases.append(("abs", n, tuple(exponent(0) for _ in range(n + 1))))
    return cases


def test_float_kernel_error_is_within_its_bound():
    # truth: the exact kernel rounded once by to_float; the float path's
    # value must sit within the bound its refusal rests on, on every case
    looseness, checked = [], 0
    for kind, d, alphas in _float_cases():
        fn, shape = ((mu_power_integral, (d + 1, 2, alphas, d + 1)) if kind == "mu"
                     else (dirichlet_abs, (0, 1, alphas, d + 1)))
        try:
            truth = to_float(fn(d, alphas))
            value = fn(d, tuple(map(float, alphas)))
        except OverflowError:  # outside the double range on both paths
            continue
        bound = integrals._lgamma_log(*shape[:2], tuple(map(float, alphas)), shape[3])[1]
        error = abs(value - truth) / truth
        assert error <= bound, (kind, d, alphas, error, bound)
        checked += 1
        if error:
            looseness.append(bound / error)
    looseness.sort()
    print(f"{checked} cases in the double range, {len(looseness)} with an error: bound / "
          f"error min {looseness[0]:.3g}, median {looseness[len(looseness) // 2]:.3g}")
