"""Error-bar calibration: every reported error bound held against the truth.

One seeded table per path that reports an error.  A row lands with the fix
that makes its path's bound honest; the float kernel's and Monte Carlo's
rows are here.
"""

import math
import random

from sphereint import integrals
from sphereint.exactpi import to_float
from sphereint.fluid import FluidParams, fluid_closed, gamma_power_values
from sphereint.integrals import dirichlet_abs, mu_power_integral
from sphereint.oracle import MCConfig, mc_integrate, monomial_values


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


def _mc_cases():
    """Seeded Monte Carlo cases on S^D, D = 2..9: mu-powers, |x| monomials, fluid.

    Exponents are small non-negative integers, so every integrand has a
    finite variance and the exact kernel gives the truth; the fluid
    velocities keep max |w| <= 0.6, where 10^4 samples reach the peak.
    Each D also has a constant mu-power and a constant fluid case.
    """
    rng = random.Random(28)
    cases = [(kind, D, (0,) * ((D + 1) // 2)) for D in range(2, 10) for kind in ("mu", "fluid")]
    while len(cases) < 316:
        D, kind = rng.randint(2, 9), rng.choice(("mu", "abs", "fluid"))
        if kind == "mu":
            cases.append((kind, D, tuple(rng.randint(0, 6) for _ in range((D + 1) // 2))))
        elif kind == "abs":
            cases.append((kind, D, tuple(rng.randint(0, 4) for _ in range(D + 1))))
        else:
            cases.append((kind, D, tuple(rng.uniform(-0.6, 0.6) for _ in range((D + 1) // 2))))
    return cases


def _binomial_tail(n, p, k):
    """P(X > k) for X ~ Binomial(n, p)."""
    return math.fsum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1, n + 1))


# the most MC cases that may land past 3 sigma, fixed before the table first
# ran: with about 300 non-constant cases, X ~ Binomial(n, 0.0027) passes it
# with probability below 2e-4
_MC_MAX_PAST_3_SIGMA = 5


def test_mc_error_is_calibrated():
    # truth: to_float of the exact kernel, or fluid_closed; case i runs seed i
    # at 10^4 samples.  A constant integrand must hit the truth to rounding;
    # of the others, a standard error that is honest leaves about 0.27 % of
    # the cases past 3 sigma, so more than the fixed bound means it is short
    zs = []
    for seed, (kind, D, params) in enumerate(_mc_cases()):
        if kind == "fluid":
            fp = FluidParams(D, params)
            truth, f = fluid_closed(fp), (lambda b, fp=fp: gamma_power_values(b.mus, fp))
        elif kind == "mu":
            truth = to_float(mu_power_integral(D, params))
            f = lambda b, a=params: monomial_values(b.mus, a)  # noqa: E731
        else:
            truth = to_float(dirichlet_abs(D, params))
            f = lambda b, a=params: monomial_values(b.xs, a, absolute=True)  # noqa: E731
        est = mc_integrate(D, f, MCConfig(seed, 10_000))
        if not any(params):
            assert abs(est.value - truth) <= 1e-12 * truth, (kind, D, est, truth)
        else:
            zs.append(abs(est.value - truth) / est.error)
    past = sum(z > 3.0 for z in zs)
    assert _binomial_tail(len(zs), 0.0027, _MC_MAX_PAST_3_SIGMA) < 2e-4
    assert past <= _MC_MAX_PAST_3_SIGMA, (past, len(zs), sorted(zs)[-8:])
    print(f"{len(zs)} MC cases, {past} past 3 sigma, largest |z| {max(zs):.3g}")
