"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test prints exactly one line, "criterion N (name): PASS/FAIL", and
enforces its stated wall-clock budget.  Seeds are frozen so the Monte Carlo
checks are reproducible runs, not coin flips.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from sphereint.exactpi import PiRational, gamma_half, to_float
from sphereint.fluid import (
    FluidParams,
    fluid_closed,
    fluid_series,
    gamma_power_values,
)
from sphereint.integrals import (
    dirichlet_abs,
    dirichlet_abs_float,
    dirichlet_signed,
    mu_power_float,
    mu_power_integral,
    reduction_rhs,
    sphere_volume,
)
from sphereint.oracle import (
    MCConfig,
    mc_integrate,
    monomial_values,
    mu_power_values,
    quad_integrate,
)

SQRT2 = math.sqrt(2)


@contextmanager
def criterion(num: int, name: str, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt > budget:
            raise AssertionError(f"took {dt:.2f} s, budget is {budget} s")
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS ({dt:.2f} s)")


# the frozen Monte Carlo corpus for the monomial checks: (n, exponents),
# seed 4201 + index for the even list and 4301 + index for the odd one
EVEN_CASES = [
    (1, (0, 0)), (1, (2, 0)), (1, (4, 2)),
    (2, (0, 0, 0)), (2, (2, 0, 0)), (2, (2, 2, 2)), (2, (4, 4, 4)),
    (3, (0, 0, 0, 0)), (3, (2, 2, 0, 0)), (3, (4, 0, 2, 0)),
    (4, (0, 0, 0, 0, 0)), (4, (2, 2, 2, 0, 0)), (4, (4, 2, 0, 0, 0)),
]
ODD_CASES = [
    (1, (1, 0)), (2, (1, 2, 0)), (3, (3, 1, 2, 0)), (4, (1, 0, 0, 0, 0)),
]

# volumes of S^1..S^10 as (rational factor, power m) in q * pi^(m/2)
VOLUME_TABLE = [
    (1, Fraction(2), 2), (2, Fraction(4), 2), (3, Fraction(2), 4),
    (4, Fraction(8, 3), 4), (5, Fraction(1), 6), (6, Fraction(16, 15), 6),
    (7, Fraction(1, 3), 8), (8, Fraction(32, 105), 8),
    (9, Fraction(1, 12), 10), (10, Fraction(64, 945), 10),
]


def _quad_dirichlet_abs(n: int, alphas, nodes: int):
    """Quadrature value and bound for the |x|^a integral over S^n.

    Polar-radius powers a_j - 1 on S^(2n+1) reproduce the S^n integral up
    to pi^(n+1); that keeps the integrand radii-only so the deterministic
    grid applies even though the original lives on an embedding sphere.
    """
    lifted = tuple(a - 1 for a in alphas)
    est = quad_integrate(2 * n + 1, lambda mus: mu_power_values(mus, lifted), nodes)
    scale = math.pi ** -(n + 1)
    return est.value * scale, est.error * scale


def test_criterion_1_exact_identities():
    with criterion(1, "exact identities", budget=1.0):
        # Gamma recurrence Gamma(z+1) = z Gamma(z) on half-integers in (0, 50]
        z = Fraction(1, 2)
        while z < 50:
            assert gamma_half(z + 1) == gamma_half(z) * z
            z += Fraction(1, 2)
        for D, q, m in VOLUME_TABLE:
            assert sphere_volume(D) == PiRational(q, m)
        # the coordinates of S^n square-sum to 1, so the integrals of x_j^2
        # must add up to the whole volume, exactly
        for n in range(1, 9):
            total = PiRational(Fraction(0))
            for j in range(n + 1):
                exps = tuple(2 if i == j else 0 for i in range(n + 1))
                total = total + dirichlet_signed(n, exps)
            assert total == sphere_volume(n)


def test_criterion_2_reduction_identity():
    with criterion(2, "reduction identity", budget=10.0):
        checked = 0
        for D in range(1, 9):
            for alphas in product(range(-1, 7), repeat=(D + 1) // 2):
                if sum(alphas) > 10:
                    continue
                assert mu_power_integral(D, alphas) == reduction_rhs(D, alphas)
                checked += 1
        assert checked > 5000  # the sweep must actually cover the grid


def test_criterion_3_dirichlet_oracles():
    with criterion(3, "monomial integrals vs oracles", budget=300.0):
        # deterministic grid, every exponent vector with entries in [0, 4]
        for n in (1, 2, 3):
            for alphas in product(range(5), repeat=n + 1):
                val, bound = _quad_dirichlet_abs(n, alphas, nodes=16)
                truth = to_float(dirichlet_abs(n, alphas))
                assert abs(val - truth) <= bound, (n, alphas)
        for n, alphas in EVEN_CASES:
            if n == 4:  # grid case count grows too fast for a full n=4 sweep
                val, bound = _quad_dirichlet_abs(n, alphas, nodes=16)
                truth = to_float(dirichlet_abs(n, alphas))
                assert abs(val - truth) <= bound, (n, alphas)

        # Monte Carlo at 10^6 samples, frozen seeds, 3 sigma
        for i, (n, alphas) in enumerate(EVEN_CASES):
            est = mc_integrate(
                n,
                lambda b, a=alphas: monomial_values(b.xs, a, absolute=True),
                MCConfig(seed=4201 + i, samples=10**6),
            )
            truth = to_float(dirichlet_abs(n, alphas))
            sigma = abs(est.value - truth) / est.error if est.error else 0.0
            assert sigma <= 3.0, (n, alphas, sigma)
            # even exponents make the sign irrelevant
            assert dirichlet_signed(n, alphas) == dirichlet_abs(n, alphas)

        for i, (n, alphas) in enumerate(ODD_CASES):
            assert dirichlet_signed(n, alphas) == PiRational(Fraction(0))
            est = mc_integrate(
                n,
                lambda b, a=alphas: monomial_values(b.xs, a),
                MCConfig(seed=4301 + i, samples=10**6),
            )
            assert abs(est.value) <= 3.0 * est.error, (n, alphas)


def test_criterion_4_real_exponents():
    with criterion(4, "real exponent floating paths", budget=120.0):
        exponent_set = (0.5, 1.5, SQRT2)
        for n in (1, 2, 3):
            for alphas in product(exponent_set, repeat=n + 1):
                val, _ = _quad_dirichlet_abs(n, alphas, nodes=24)
                truth = dirichlet_abs_float(n, alphas)
                assert abs(val - truth) <= 1e-8 * truth, (n, alphas)
        for D in range(2, 8):
            for alphas in product(exponent_set, repeat=(D + 1) // 2):
                est = quad_integrate(
                    D, lambda mus, a=alphas: mu_power_values(mus, a), 24
                )
                truth = mu_power_float(D, alphas)
                assert abs(est.value - truth) <= 1e-8 * truth, (D, alphas)


def test_criterion_5_fluid():
    with criterion(5, "rotating fluid integral", budget=120.0):
        # multiplying the closed form back by prod (1 - w^2) must return the
        # plain volume; this is the whole factorization claim
        rng = random.Random(20260817)
        for D in range(1, 7):
            vol = to_float(sphere_volume(D))
            for _ in range(100):
                omegas = [rng.uniform(-0.995, 0.995) for _ in range((D + 1) // 2)]
                params = FluidParams(D, omegas)
                value, denom = fluid_closed(params), math.prod(1.0 - w * w for w in omegas)
                assert abs(value * denom - vol) <= 1e-14 * vol, (D, omegas)

        # series convergence at the worst allowed speed, plus a mild case
        orders = []
        for D in range(1, 10):
            circles = (D + 1) // 2
            base = [0.9, -0.5, 0.3, 0.2, -0.1]
            for omegas in (base[:circles], [0.4] * circles):
                params = FluidParams(D, omegas)
                closed = fluid_closed(params)
                for K in (30, 60, 90, 120):
                    res = fluid_series(params, K)
                    if abs(res.value - closed) <= 1e-8 * closed:
                        break
                else:
                    raise AssertionError(f"series did not reach 1e-8 by K=120: {D} {omegas}")
                orders.append(f"D={D} max|w|={max(map(abs, omegas)):.1f}: K={K}")
        print("criterion 5 truncation orders: " + "; ".join(orders))

        # Monte Carlo against the closed form, frozen seeds, 3 sigma
        fluid_mc = [(2, (0.7,)), (3, (0.5, -0.6)), (4, (0.3, 0.7))]
        for i, (D, omegas) in enumerate(fluid_mc):
            params = FluidParams(D, omegas)
            est = mc_integrate(
                D,
                lambda b, p=params: gamma_power_values(b.mus, p),
                MCConfig(seed=6401 + i, samples=10**6),
            )
            sigma = abs(est.value - fluid_closed(params)) / est.error
            assert sigma <= 3.0, (D, omegas, sigma)


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "sphereint", *argv], capture_output=True, text=True
    )


def test_criterion_6_cli_determinism():
    with criterion(6, "CLI determinism", budget=60.0):
        commands = [
            ["dirichlet", "--n", "2", "--alpha", "2,0,0", "--abs",
             "--verify", "--seed", "77", "--samples", "50000", "--json"],
            ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--json"],
            ["sample", "--D", "3", "--seed", "5", "--count", "5", "--json"],
        ]
        for argv in commands:
            a = _run_cli(argv)
            b = _run_cli(argv)
            assert a.returncode == 0, (argv, a.stderr)
            assert a.stdout == b.stdout and a.stdout, argv
            json.loads(a.stdout)  # must be one well-formed report


def test_criterion_7_mode_consistency():
    with criterion(7, "exact/floating consistency", budget=60.0):
        def close(exact_value, float_value):
            return abs(to_float(exact_value) - float_value) <= 1e-12 * abs(float_value)

        for D in range(1, 11):
            assert close(sphere_volume(D), mu_power_float(D, (0.0,) * ((D + 1) // 2)))
        for n in range(0, 5):
            for alphas in product(range(5), repeat=n + 1):
                floats = tuple(float(a) for a in alphas)
                assert close(dirichlet_abs(n, alphas), dirichlet_abs_float(n, floats))
        for D in range(1, 9):
            for alphas in product(range(-1, 5), repeat=(D + 1) // 2):
                if sum(alphas) > 8:
                    continue
                floats = tuple(float(a) for a in alphas)
                assert close(mu_power_integral(D, alphas), mu_power_float(D, floats))
                assert close(reduction_rhs(D, alphas), reduction_rhs(D, floats))
