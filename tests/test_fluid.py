import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereint.exactpi import DomainError, to_float
from sphereint.fluid import (
    FluidParams,
    fluid_closed,
    fluid_series,
    gamma_power_values,
)
from sphereint.integrals import mu_power_float, sphere_volume, term_integral


def test_params_validation():
    with pytest.raises(ValueError):
        FluidParams(3, (0.5,))  # D=3 has two rotation circles
    with pytest.raises(DomainError):
        FluidParams(2, (1.0,))
    with pytest.raises(DomainError):
        FluidParams(2, (-1.2,))
    for w in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="is not finite"):
            FluidParams(2, (w,))
    p = FluidParams(3, (0.3, -0.4))
    assert p.omegas == (0.3, -0.4)


def test_gamma_power_values():
    p = FluidParams(2, (0.6,))
    # at mu_1 = 1 the speed is 0.6, so gamma = 1.25 and gamma^(D+1) = 1.25^3;
    # at the pole mu_1 = 0 nothing moves
    vals = gamma_power_values(np.array([[1.0, 0.0], [0.0, 1.0]]), p)
    assert vals[0] == pytest.approx(1.25**3, rel=1e-14)
    assert vals[1] == 1.0
    # D = 3: both radii columns move, gamma^4 = (1 - v^2)^-2
    vals = gamma_power_values(np.array([[0.6, 0.8]]), FluidParams(3, (0.3, 0.4)))
    assert vals[0] == pytest.approx((1 - 0.36 * 0.09 - 0.64 * 0.16) ** -2, rel=1e-14)


def test_closed_form_values():
    assert fluid_closed(FluidParams(2, (0.0,))) == pytest.approx(
        to_float(sphere_volume(2)), rel=1e-15
    )
    assert fluid_closed(FluidParams(2, (0.5,))) == pytest.approx(
        16 * math.pi / 3, rel=1e-14
    )
    assert fluid_closed(FluidParams(3, (0.3, 0.4))) == pytest.approx(
        2 * math.pi ** 2 / (0.91 * 0.84), rel=1e-14
    )


def test_closed_form_factors_are_exact_vol_and_float_denominator():
    p = FluidParams(4, (0.2, 0.7))
    denom = (1.0 - 0.2 * 0.2) * (1.0 - 0.7 * 0.7)
    assert fluid_closed(p) == to_float(sphere_volume(4)) / denom


def test_closed_form_refuses_an_underflowing_denominator():
    # 200 circles at w = 0.995: prod (1 - w^2) ~ 1e-400 is below the double
    # range although V_399 / prod ~ 2e127 is not
    p = FluidParams(399, (0.995,) * 200)
    with pytest.raises(OverflowError, match="below the double-precision range"):
        fluid_closed(p)


def test_factorized_divergence():
    rng = random.Random(73)
    for D in range(1, 7):
        k = (D + 1) // 2
        for _ in range(25):
            omegas = [rng.uniform(-0.995, 0.995) for _ in range(k)]
            p = FluidParams(D, omegas)
            denom = math.prod(1.0 - w * w for w in omegas)
            assert fluid_closed(p) * denom == pytest.approx(
                to_float(sphere_volume(D)), rel=1e-14
            )


def test_closed_form_lower_bound():
    rng = random.Random(5)
    for D in (1, 2, 4, 6):
        k = (D + 1) // 2
        omegas = [rng.uniform(-0.9, 0.9) for _ in range(k)]
        assert fluid_closed(FluidParams(D, omegas)) >= to_float(sphere_volume(D))
    # equality only with no rotation at all
    assert fluid_closed(FluidParams(3, (0.0, 0.0))) == pytest.approx(
        to_float(sphere_volume(3)), rel=1e-15
    )


def test_series_terms_all_integrate_to_the_volume():
    # the identity the shell sum rests on: each multi-index's binomial
    # coefficient poch((D+1)/2, k) / prod k_j! times its exact mu-power
    # integral is V_D, so shell k is V_D h_k(w_1^2, ..., w_r^2)
    checked = 0
    for D in range(1, 9):
        r = (D + 1) // 2
        half = Fraction(D + 1, 2)
        for ks in product(range(13), repeat=r):
            if sum(ks) > 12:
                continue
            rising = math.prod((half + i for i in range(sum(ks))), start=Fraction(1))
            coeff = rising / math.prod(math.factorial(k) for k in ks)
            assert coeff * term_integral(D, ks) == sphere_volume(D), (D, ks)
            checked += 1
    assert checked == 4758


def test_series_zeroth_shell_is_volume():
    for D, omegas in [(1, (0.4,)), (2, (0.6,)), (5, (0.1, 0.2, 0.3))]:
        res = fluid_series(FluidParams(D, omegas), 0)
        assert res.terms_used == 1
        assert res.value == pytest.approx(to_float(sphere_volume(D)), rel=1e-13)


def test_series_converges_to_closed_form():
    p = FluidParams(2, (0.5,))
    closed = fluid_closed(p)
    res = fluid_series(p, 40)
    assert res.value == pytest.approx(closed, rel=1e-10)
    assert res.terms_used == 41  # shells k = 0..40
    p2 = FluidParams(5, (0.5, -0.3, 0.2))
    res2 = fluid_series(p2, 40)
    assert res2.value == pytest.approx(fluid_closed(p2), rel=1e-10)


def test_series_partial_sums_are_monotone():
    p = FluidParams(4, (0.6, 0.3))
    prev = 0.0
    closed = fluid_closed(p)
    for K in range(0, 30, 3):
        res = fluid_series(p, K)
        assert res.value >= prev
        assert res.value <= closed * (1 + 1e-12)
        prev = res.value
    assert res.last_term_magnitude >= 0.0


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


def test_series_refuses_near_divergence():
    p = FluidParams(2, (0.9995,))
    with pytest.raises(DomainError) as err:
        fluid_series(p, 10)
    assert "fluid_closed" in str(err.value)
    # the closed form itself still works there
    assert fluid_closed(p) > 0


def test_series_rejects_bad_order():
    p = FluidParams(2, (0.5,))
    with pytest.raises(ValueError):
        fluid_series(p, -1)
    with pytest.raises(TypeError):
        fluid_series(p, 2.0)


def test_series_work_caps():
    # past the order cap the refusal comes before any work
    for K in (1001, 10**8):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="series cap"):
            fluid_series(FluidParams(1, (0.0,)), K)
        assert time.perf_counter() - start < 0.5
    # V_D bounds the circle count: the worst accepted call is 219 circles
    # at w^2 = 0.99 and K = 1000, and every shell stays finite
    p = FluidParams(437, (math.sqrt(0.99),) * 219)
    start = time.perf_counter()
    res = fluid_series(p, 1000)
    assert time.perf_counter() - start < 0.1
    assert math.isfinite(res.value) and res.value > 0.0
    assert res.terms_used == 1001
    # one dimension further, V_D leaves the double range before the recurrence
    with pytest.raises(OverflowError):
        fluid_series(FluidParams(438, (0.1,) * 219), 1000)
    # 1,005,101 multi-indices over three circles, summed as 181 shells
    assert fluid_series(FluidParams(6, (0.0,) * 3), 180).terms_used == 181
