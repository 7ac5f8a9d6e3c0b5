"""Error-bar calibration: every reported error bound held against the truth.

One seeded table per path that reports an error.  A row lands with the fix
that makes its path's bound honest; the float kernel's, Monte Carlo's (at
10^4 samples and at the CLI's sample floor), the fluid series' and the
product-rule quadrature's rows are here.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereint import cli, integrals
from sphereint.exactpi import to_float
from sphereint.fluid import FluidParams, fluid_closed, fluid_series, gamma_power_values
from sphereint.integrals import dirichlet_abs, mu_power_float, mu_power_integral
from sphereint.oracle import MCConfig, mc_integrate, monomial_values
from sphereint.prodquad import quad_product


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


def _check_mc_row(samples):
    # truth: to_float of the exact kernel, or fluid_closed; case i runs seed i
    # at the given samples.  A constant integrand must hit the truth to rounding;
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
        est = mc_integrate(D, f, MCConfig(seed, samples))
        if not any(params):
            assert abs(est.value - truth) <= 1e-12 * truth, (kind, D, est, truth)
        else:
            zs.append(abs(est.value - truth) / est.error)
    past = sum(z > 3.0 for z in zs)
    assert _binomial_tail(len(zs), 0.0027, _MC_MAX_PAST_3_SIGMA) < 2e-4
    assert past <= _MC_MAX_PAST_3_SIGMA, (past, len(zs), sorted(zs)[-8:])
    print(f"{len(zs)} MC cases at {samples} samples, {past} past 3 sigma, "
          f"largest |z| {max(zs):.3g}")


def test_mc_error_is_calibrated():
    _check_mc_row(10_000)


def test_mc_error_is_calibrated_at_the_cli_sample_floor():
    # --verify refuses fewer samples than the floor, where the bars run short:
    # 123 of these 296 cases land past 3 sigma at 2 samples, 7 at 100
    _check_mc_row(cli._MIN_MC_SAMPLES)


@st.composite
def _series_cases(draw):
    D = draw(st.integers(1, 9))
    # w^2 up to the series limit 0.99, with zeros and near-equal circles among them
    w = st.one_of(st.just(0.0), st.floats(-0.99498, 0.99498), st.sampled_from([0.3, 0.9, 0.99]))
    return D, tuple(draw(st.lists(w, min_size=(D + 1) // 2, max_size=(D + 1) // 2))), \
        draw(st.integers(0, 60))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_series_cases())
@example((3, (0.3, 0.4), 2))
@example((9, (0.9, 0.1, 0.1, 0.1, 0.1), 90))
@example((9, (0.9,) * 5, 3))  # q >= 1: many circles, few shells
def test_series_tail_bound_is_never_short(case):
    # the shells past K summed exactly: prod 1/(1 - x_j) - sum_(k<=K) h_k in
    # Fraction arithmetic, on the rounded x_j = w_j^2 the series uses
    D, omegas, K = case
    res = fluid_series(FluidParams(D, omegas), K)
    xs = [Fraction(w * w) for w in omegas]
    h = [Fraction(1)] + [Fraction(0)] * K
    for x in xs:
        for k in range(1, K + 1):
            h[k] += x * h[k - 1]
    tail = math.prod((1 / (1 - x) for x in xs), start=Fraction(1)) - sum(h)
    assert tail >= 0
    volume = mu_power_float(D, (0,) * len(omegas))  # the series' own V_D
    # the bound in doubles may round below the exact one, by far less than
    # the series verdict's 1e-12 relative tolerance
    if res.tail_bound != math.inf:
        assert volume * tail <= Fraction(res.tail_bound) * (1 + Fraction(1, 10**12))
    if all(w == 0 for w in omegas):
        assert res.tail_bound == 0.0


def _product_cases():
    """Seeded mu-power products on S^D, D = 1..201.

    Exponents from {-1, -0.5, 0, 0.5, 1, ..., 6}: both ends of the range,
    fractional endpoint powers and integers, so that many axes carry large
    sin powers at high D.
    """
    rng = random.Random(18)
    exps = (-1, -0.5, 0, 0.5, 1, 2, 3, 4, 5, 6)
    cases = []
    while len(cases) < 400:
        D = rng.randint(1, 201)
        cases.append((D, tuple(rng.choice(exps) for _ in range((D + 1) // 2))))
    return cases


def _mu_power_truth(D, alphas):
    """The mu-power integral, rounded once: the exact kernel, or mpmath for real exponents."""
    if all(isinstance(a, int) for a in alphas):
        return to_float(mu_power_integral(D, alphas))
    with mpmath.workdps(30):
        value = 2 * mpmath.pi ** (mpmath.mpf(D + 1) / 2) / mpmath.gamma(
            (D + 1 + mpmath.fsum(alphas)) / mpmath.mpf(2))
        for a in alphas:
            value *= mpmath.gamma(1 + mpmath.mpf(a) / 2)
        value = float(value)
    if value < sys.float_info.min:
        raise OverflowError("below the double range")
    return value


def test_product_rule_error_is_within_its_bound():
    # I(2N) must sit within the reported bound at the floor N = 8, at the
    # default 32 and at 64, up to D = 201: at N = 8 and high D every axis
    # sum is short, so the passes differ from the truth far more than from
    # each other, and only a bound that compounds the axes' gaps holds
    looseness, checked = {}, 0
    for D, alphas in _product_cases():
        try:
            truth = _mu_power_truth(D, alphas)
        except OverflowError:  # outside the double range
            continue
        for N in (8, 32, 64):
            est = quad_product(D, alphas, N)
            error = abs(est.value - truth)
            assert error <= est.error, (D, alphas, N, est, truth)
            checked += 1
            if error:
                looseness.setdefault(N, []).append(est.error / error)
    print(f"{checked} product-rule checks; median bound / error by N: "
          + ", ".join(f"{N}: {sorted(v)[len(v) // 2]:.3g}" for N, v in looseness.items()))
