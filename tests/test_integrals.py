import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereint.exactpi import (
    BudgetError,
    DomainError,
    PiRational,
    gamma_half,
    pi_power,
    to_float,
)
from sphereint.integrals import (
    SphereDim,
    dirichlet_abs,
    dirichlet_abs_float,
    dirichlet_signed,
    mu_power_float,
    mu_power_integral,
    reduction_rhs,
    sphere_volume,
    term_integral,
)

# exact volumes of S^1..S^10: rational coefficient and power m with V = q * pi^(m/2)
VOLUME_TABLE = [
    (Fraction(2), 2),
    (Fraction(4), 2),
    (Fraction(2), 4),
    (Fraction(8, 3), 4),
    (Fraction(1), 6),
    (Fraction(16, 15), 6),
    (Fraction(1, 3), 8),
    (Fraction(32, 105), 8),
    (Fraction(1, 12), 10),
    (Fraction(64, 945), 10),
]


def circle_quadrature(f, npoints=4000):
    """Independent 1-D check: integrate f(phi) over [0, 2 pi) by midpoint rule."""
    phis = (np.arange(npoints) + 0.5) * (2 * math.pi / npoints)
    return float(np.mean(f(phis))) * 2 * math.pi


def test_dimension_bookkeeping():
    d = SphereDim(7)
    assert (d.n, d.eps, d.n_angles, d.n_mu) == (3, 1, 4, 4)
    d = SphereDim(6)
    assert (d.n, d.eps, d.n_angles, d.n_mu) == (3, 0, 3, 4)
    with pytest.raises(DomainError):
        SphereDim(0)
    with pytest.raises(TypeError):
        SphereDim(2.0)


def test_volume_table():
    for D, (q, m) in enumerate(VOLUME_TABLE, start=1):
        assert sphere_volume(D) == PiRational(q, m)


def test_volume_matches_circle():
    # V_1 by direct quadrature of the unit circle
    assert to_float(sphere_volume(1)) == pytest.approx(2 * math.pi, rel=1e-14)


def test_dirichlet_signed_examples():
    assert dirichlet_signed(2, (1, 0, 0)) == PiRational(Fraction(0))
    assert dirichlet_signed(2, (2, 0, 0)) == PiRational(Fraction(4, 3), 2)
    # computed with the quadrature oracle before being frozen here
    assert dirichlet_signed(2, (2, 2, 2)) == PiRational(Fraction(4, 105), 2)


def test_dirichlet_abs_examples():
    assert dirichlet_abs(2, (0, 0, 0)) == PiRational(Fraction(4), 2)
    value = dirichlet_abs(1, (3, 0))
    assert value == PiRational(Fraction(8, 3), 0)
    # cross-check against an independent circle quadrature of |cos|^3
    ref = circle_quadrature(lambda p: np.abs(np.cos(p)) ** 3)
    assert to_float(value) == pytest.approx(ref, rel=1e-6)


def test_dirichlet_point_pair_sphere():
    # n = 0 is the two-point sphere: the integral of |x|^a is always 2
    assert dirichlet_abs(0, (5,)) == PiRational(Fraction(2))
    assert dirichlet_abs_float(0, (0.75,)) == pytest.approx(2.0, rel=1e-14)


def test_signed_equals_abs_for_even_exponents():
    for n, alphas in [(1, (2, 4)), (2, (2, 0, 2)), (3, (0, 4, 2, 2))]:
        assert dirichlet_signed(n, alphas) == dirichlet_abs(n, alphas)


def test_signed_rejects_real_exponents():
    with pytest.raises(TypeError):
        dirichlet_signed(1, (0.5, 0))


def test_exponent_validation():
    with pytest.raises(ValueError):
        dirichlet_abs(2, (1, 2))  # wrong length
    with pytest.raises(DomainError):
        dirichlet_abs(1, (-0.5, 0))  # below 0
    with pytest.raises(DomainError):
        mu_power_integral(2, (-2,))  # below -1
    with pytest.raises(TypeError):
        mu_power_integral(2, (Fraction(1, 2),))


def test_mu_power_examples():
    assert mu_power_integral(1, (7,)) == PiRational(Fraction(2), 2)
    assert mu_power_integral(2, (2,)) == PiRational(Fraction(8, 3), 2)
    assert mu_power_integral(2, (0,)) == sphere_volume(2)
    # boundary exponent -1 stays integrable thanks to the Jacobian factor
    assert mu_power_integral(2, (-1,)) == PiRational(Fraction(2), 4)


def test_mu_power_against_explicit_quadrature():
    # On S^2, integral of mu_1^2 = 2 pi * int_0^pi sin^3 = 8 pi / 3
    thetas = (np.arange(20000) + 0.5) * (math.pi / 20000)
    ref = 2 * math.pi * float(np.mean(np.sin(thetas) ** 3)) * math.pi
    assert to_float(mu_power_integral(2, (2,))) == pytest.approx(ref, rel=1e-7)


def test_reduction_examples():
    assert reduction_rhs(2, (2,)) == mu_power_integral(2, (2,)) == PiRational(Fraction(8, 3), 2)
    assert reduction_rhs(3, (0, 0)) == sphere_volume(3)
    assert reduction_rhs(4, (2, 0)) == mu_power_integral(4, (2, 0))


def test_reduction_identity_small_sweep():
    for D in range(1, 7):
        dim = SphereDim(D)
        for alphas in itertools.product(range(-1, 4), repeat=dim.n_angles):
            assert mu_power_integral(dim, alphas) == reduction_rhs(dim, alphas)


def test_reduction_float_route():
    rng = random.Random(11)
    for D in range(1, 8):
        dim = SphereDim(D)
        alphas = tuple(rng.uniform(-0.9, 4.0) for _ in range(dim.n_angles))
        lhs = mu_power_float(dim, alphas)
        rhs = reduction_rhs(dim, alphas)
        assert rhs == pytest.approx(lhs, rel=1e-12)


def test_term_integral():
    for D in (1, 2, 3, 5, 8):
        dim = SphereDim(D)
        zeros = (0,) * dim.n_angles
        assert term_integral(dim, zeros) == sphere_volume(dim)
    assert term_integral(2, (1,)) == PiRational(Fraction(8, 3), 2)
    # frozen after checking against the MC oracle
    assert term_integral(3, (1, 1)) == PiRational(Fraction(1, 3), 4)


def test_term_integral_matches_mu_power_structurally():
    for D in range(1, 9):
        dim = SphereDim(D)
        for ks in itertools.product(range(3), repeat=dim.n_angles):
            assert term_integral(dim, ks) == mu_power_integral(dim, tuple(2 * k for k in ks))


def test_symmetry_sum_reconstructs_volume():
    # sum_j integral x_j^2 = integral of |x|^2 = V_n
    for n in range(1, 9):
        total = PiRational(Fraction(0))
        for j in range(n + 1):
            exps = tuple(2 if i == j else 0 for i in range(n + 1))
            total = total + dirichlet_signed(n, exps)
        assert total == sphere_volume(n)


@settings(max_examples=150, derandomize=True)
@given(st.data())
def test_permutation_invariance_exact(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    alphas = data.draw(
        st.lists(st.integers(min_value=0, max_value=6), min_size=n + 1, max_size=n + 1)
    )
    perm = data.draw(st.permutations(alphas))
    assert dirichlet_abs(n, alphas) == dirichlet_abs(n, perm)
    assert dirichlet_signed(n, alphas) == dirichlet_signed(n, perm)


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_permutation_invariance_float(data):
    D = data.draw(st.integers(min_value=2, max_value=7))
    dim = SphereDim(D)
    alphas = data.draw(
        st.lists(
            st.floats(min_value=-0.9, max_value=5.0, allow_nan=False),
            min_size=dim.n_angles,
            max_size=dim.n_angles,
        )
    )
    perm = data.draw(st.permutations(alphas))
    assert mu_power_float(dim, perm) == pytest.approx(mu_power_float(dim, alphas), rel=1e-12)


@settings(max_examples=150, derandomize=True)
@given(st.data())
def test_positivity(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    alphas = data.draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=n + 1, max_size=n + 1)
    )
    assert dirichlet_abs(n, alphas).q > 0
    D = data.draw(st.integers(min_value=1, max_value=8))
    dim = SphereDim(D)
    mus = data.draw(
        st.lists(
            st.integers(min_value=-1, max_value=8),
            min_size=dim.n_angles,
            max_size=dim.n_angles,
        )
    )
    assert mu_power_integral(dim, mus).q > 0


def test_underflow_is_reported_on_both_paths():
    # both values are far below the double range; neither path may return 0.0
    with pytest.raises(OverflowError, match="below the double-precision range"):
        to_float(sphere_volume(2000))
    with pytest.raises(OverflowError, match="below the double-precision range"):
        mu_power_float(2000, (0.0,) * 1000)
    with pytest.raises(OverflowError, match="below the double-precision range"):
        to_float(dirichlet_abs(3, [800] * 4))
    with pytest.raises(OverflowError, match="below the double-precision range"):
        dirichlet_abs_float(3, [800.0] * 4)


def test_exact_path_refuses_a_gamma_argument_past_the_cap():
    # each is refused before its first factorial is built: 10^8! never finishes
    for call in (lambda: gamma_half(Fraction(50_001, 2)),
                 lambda: sphere_volume(10**8),
                 lambda: mu_power_integral(3, (10**8, 0)),
                 lambda: dirichlet_signed(1, (10**8, 0)),
                 lambda: dirichlet_abs(1, (10**8, 0)),
                 lambda: reduction_rhs(3, (10**8, 0)),
                 lambda: term_integral(3, (10**8, 0))):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="past the cap of 25000"):
            call()
        assert time.perf_counter() - start < 0.5
    # the cap itself, and the largest benchmark case (Gamma argument 17501)
    assert gamma_half(25_000) == PiRational(Fraction(math.factorial(24_999)))
    assert mu_power_integral(20001, tuple(j % 4 for j in range(10001))).q > 0


def test_float_paths_refuse_cancelling_log_gamma_terms():
    # at a = 1e20 the log-Gamma terms are ~1e21 and their double sum cancels
    # to 0, so exp gives 1.0 where the true value is ~5.0e-10
    for call in (lambda: dirichlet_abs_float(1, [1e20, 0.0]),
                 lambda: dirichlet_abs(1, [1e20, 0.0]),
                 lambda: mu_power_float(3, [1e20, 0.0]),
                 lambda: reduction_rhs(3, [1e20, 0.0])):
        with pytest.raises(DomainError, match="terms cancel"):
            call()
    # exponents still accepted are as accurate as the 1e-10 estimate says
    G = mpmath.gamma
    with mpmath.workdps(40):
        for a in (1e3, 1e4, 3e4):
            exact = 2 * mpmath.sqrt(mpmath.pi) * G((1 + a) / 2) / G(1 + a / 2)
            assert dirichlet_abs_float(1, [a, 0.0]) == pytest.approx(float(exact), rel=1e-10)
            exact = 2 * mpmath.pi**2 * G(1 + a / 2) / G(2 + a / 2)
            assert mu_power_float(3, [a, 0.0]) == pytest.approx(float(exact), rel=1e-10)


def test_mode_consistency_spot_checks():
    # to_float of the exact path vs the independent lgamma path
    cases = [
        (1, (2, 0)), (2, (2, 2, 2)), (3, (4, 0, 2, 0)), (4, (2, 2, 2, 0, 0)),
    ]
    for n, alphas in cases:
        assert to_float(dirichlet_abs(n, alphas)) == pytest.approx(
            dirichlet_abs_float(n, [float(a) for a in alphas]), rel=1e-12
        )
    for D, alphas in [(2, (2,)), (3, (2, 4)), (6, (0, 2, 4)), (9, (2, 2, 0, 0, 2))]:
        dim = SphereDim(D)
        assert to_float(mu_power_integral(dim, alphas)) == pytest.approx(
            mu_power_float(dim, [float(a) for a in alphas]), rel=1e-12
        )
