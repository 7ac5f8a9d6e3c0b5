import itertools
import math
import random
import sys
import time
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereint.exactpi import (
    BudgetError,
    DomainError,
    PiRational,
    gamma_half,
    to_float,
)
import sphereint.oracle
from sphereint import integrals
from sphereint.fluid import FluidParams, fluid_closed, fluid_series
from sphereint.integrals import (
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


def _one_sample():
    return sphereint.oracle.MCConfig(seed=0, samples=1)


# every public entry point that takes a sphere dimension, checked before the rest:
# D >= 1 for S^D here, n >= 0 for the monomial integrals over S^n below
_TAKES_D = {
    "sphere_volume": sphere_volume,
    "mu_power_integral": lambda D: mu_power_integral(D, ()),
    "mu_power_float": lambda D: mu_power_float(D, ()),
    "reduction_rhs": lambda D: reduction_rhs(D, ()),
    "term_integral": lambda D: term_integral(D, ()),
    "FluidParams": lambda D: FluidParams(D, ()),
    "sample_batch": lambda D: sphereint.oracle.sample_batch(D, _one_sample()),
    "mc_integrate": lambda D: sphereint.oracle.mc_integrate(D, len, _one_sample()),
    "quad_integrate": lambda D: sphereint.oracle.quad_integrate(D, len),
}

_TAKES_N = {
    "dirichlet_signed": lambda n: dirichlet_signed(n, (0,)),
    "dirichlet_abs": lambda n: dirichlet_abs(n, (0,)),
    "dirichlet_abs_float": lambda n: dirichlet_abs_float(n, (0.0,)),
    "poly_integrate": lambda n: poly_integrate(n, {(0,): 1}),
}


@pytest.mark.parametrize("name", sorted(_TAKES_D.keys() | _TAKES_N.keys()))
def test_dimension_refusals(name):
    call, low = (_TAKES_D[name], 1) if name in _TAKES_D else (_TAKES_N[name], 0)
    for D, error, message in [
        (True, TypeError, "sphere dimension must be an integer, got True"),
        (2.0, TypeError, "sphere dimension must be an integer, got 2.0"),
        (low - 1, DomainError, f"sphere dimension must be >= {low}, got {low - 1}"),
        (-1, DomainError, f"sphere dimension must be >= {low}, got -1"),
    ]:
        with pytest.raises(error) as info:
            call(D)
        assert (type(info.value), str(info.value)) == (error, message), (name, D)
    if low == 0:  # S^0 is two points, so the integral of x^0 over it is 2
        value = call(0)
        assert value == (pytest.approx(2.0, rel=1e-14) if isinstance(value, float)
                         else PiRational(Fraction(2))), name


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
        for alphas in itertools.product(range(-1, 4), repeat=(D + 1) // 2):
            assert mu_power_integral(D, alphas) == reduction_rhs(D, alphas)


def test_reduction_float_route():
    rng = random.Random(11)
    for D in range(1, 8):
        alphas = tuple(rng.uniform(-0.9, 4.0) for _ in range((D + 1) // 2))
        lhs = mu_power_float(D, alphas)
        rhs = reduction_rhs(D, alphas)
        assert rhs == pytest.approx(lhs, rel=1e-12)


def test_term_integral():
    for D in (1, 2, 3, 5, 8):
        zeros = (0,) * ((D + 1) // 2)
        assert term_integral(D, zeros) == sphere_volume(D)
    assert term_integral(2, (1,)) == PiRational(Fraction(8, 3), 2)
    # frozen after checking against the MC oracle
    assert term_integral(3, (1, 1)) == PiRational(Fraction(1, 3), 4)


def test_term_integral_refusals():
    # the orders pass the exponent check of the other closed forms, then must be ints
    for ks, error, message in [
        ((0,), ValueError,
         "term_integral takes 2 exponents here, got 1; pass exactly one per coordinate"),
        ((1, -1), DomainError, "term_integral requires every exponent >= 0, got -1"),
        ((1, 1.0), TypeError,
         "term_integral needs integer orders; use mu_power_integral for real ones"),
        ((True, 0), TypeError,
         "exponents must be int (exact path) or float (floating path), got True"),
    ]:
        with pytest.raises(error) as info:
            term_integral(3, ks)
        assert (type(info.value), str(info.value)) == (error, message), ks


def test_float_paths_name_themselves_in_refusals():
    for call, error, message in [
        (lambda: dirichlet_abs_float(1, (1.0,)), ValueError,
         "dirichlet_abs_float takes 2 exponents here, got 1; pass exactly one per coordinate"),
        (lambda: dirichlet_abs_float(1, (1.0, -0.5)), DomainError,
         "dirichlet_abs_float requires every exponent >= 0, got -0.5"),
        (lambda: mu_power_float(3, (1.0,)), ValueError,
         "mu_power_float takes 2 exponents here, got 1; pass exactly one per coordinate"),
        (lambda: mu_power_float(3, (-2.0, 0.0)), DomainError,
         "mu_power_float requires every exponent >= -1, got -2.0"),
    ]:
        with pytest.raises(error) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)


def test_term_integral_matches_mu_power_structurally():
    for D in range(1, 9):
        for ks in itertools.product(range(3), repeat=(D + 1) // 2):
            assert term_integral(D, ks) == mu_power_integral(D, tuple(2 * k for k in ks))


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
    circles = (D + 1) // 2
    alphas = data.draw(
        st.lists(
            st.floats(min_value=-0.9, max_value=5.0, allow_nan=False),
            min_size=circles,
            max_size=circles,
        )
    )
    perm = data.draw(st.permutations(alphas))
    assert mu_power_float(D, perm) == pytest.approx(mu_power_float(D, alphas), rel=1e-12)


@settings(max_examples=150, derandomize=True)
@given(st.data())
def test_positivity(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    alphas = data.draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=n + 1, max_size=n + 1)
    )
    assert dirichlet_abs(n, alphas).q > 0
    D = data.draw(st.integers(min_value=1, max_value=8))
    circles = (D + 1) // 2
    mus = data.draw(
        st.lists(
            st.integers(min_value=-1, max_value=8),
            min_size=circles,
            max_size=circles,
        )
    )
    assert mu_power_integral(D, mus).q > 0


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
    # (k/2) eps sum|terms| + eps passes 1e-10 near a = 26,500 for one huge
    # exponent, so 3e4 is refused; exponents still accepted are as accurate
    # as the 1e-10 bound says
    for call in (lambda: dirichlet_abs_float(1, [3e4, 0.0]),
                 lambda: mu_power_float(3, [3e4, 0.0])):
        with pytest.raises(DomainError, match="terms cancel"):
            call()
    G = mpmath.gamma
    with mpmath.workdps(40):
        for a in (1e3, 1e4, 2.6e4):
            exact = 2 * mpmath.sqrt(mpmath.pi) * G((1 + a) / 2) / G(1 + a / 2)
            assert dirichlet_abs_float(1, [a, 0.0]) == pytest.approx(float(exact), rel=1e-10)
            exact = 2 * mpmath.pi**2 * G(1 + a / 2) / G(2 + a / 2)
            assert mu_power_float(3, [a, 0.0]) == pytest.approx(float(exact), rel=1e-10)


# bits of the float paths, pinned so a change to the log-Gamma kernel shows
_FLOAT_BITS = [
    (dirichlet_abs_float, 2, (0.5, 0, 0), "0x1.0c152382d7368p+3"),
    (dirichlet_abs, 3, (1.5, 2, 0, 7), "0x1.e48f2cf588a76p-7"),
    (mu_power_float, 5, (2, 0, -1), "0x1.08963eb516514p+5"),
    (mu_power_integral, 7, (0.25, 1, -0.5, 3), "0x1.5d2f47ac6ce86p+1"),
    (reduction_rhs, 5, (1.5, 0, 2), "0x1.b7d52fb8aa14fp+1"),
    (mu_power_float, 20, (0.5,) * 10, "0x1.10015e9554dfbp-12"),
]


def test_float_frozen_bits():
    for f, d, alphas, bits in _FLOAT_BITS:
        assert f(d, alphas).hex() == bits, (f.__name__, d, alphas)
    # the bound prints with the fewest digits, at least 2, that read above
    # the limit: 1.0000334e-10 is not "1e-10"
    for alpha, shown in ((49998.0, "2e-10"), (26515.0, "1.00003e-10")):
        with pytest.raises(DomainError) as refused:
            mu_power_float(1, (alpha,))
        assert str(refused.value) == (
            "the floating path's log-Gamma terms cancel: its relative error "
            f"could reach {shown}, above 1e-10"
        )


def _names(code):
    """The global and attribute names a code object and its nested code refer to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_kernels_and_oracles_share_no_code():
    exact = {"gamma_half", "PiRational", "Fraction", "_gamma_quotient", "to_float"}
    assert not _names(integrals._lgamma_quotient.__code__) & exact
    assert not _names(integrals._lgamma_log.__code__) & exact
    assert not _names(integrals._gamma_quotient.__code__) & {"lgamma", "_lgamma_quotient"}
    evaluators = (
        integrals._gamma_quotient, integrals._lgamma_quotient, integrals._lgamma_log,
        gamma_half, to_float,
        sphere_volume, dirichlet_signed, dirichlet_abs, dirichlet_abs_float,
        mu_power_integral, mu_power_float, reduction_rhs, term_integral,
        integrals.poly_integrate, fluid_closed, fluid_series,
    )
    held = {id(f) for f in evaluators}
    assert [name for name, v in vars(sphereint.oracle).items() if id(v) in held] == []


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
        assert to_float(mu_power_integral(D, alphas)) == pytest.approx(
            mu_power_float(D, [float(a) for a in alphas]), rel=1e-12
        )


# every doubled Gamma argument of the exact closed forms stays at or below
# twice the 25000 cap, so no draw is refused
_DOUBLED_CAP = 50_000


def _paths_agree(exact, floating, terms):
    """to_float(exact()) == floating() within 64 eps sum|terms|, or both overflow.

    terms are the closed form's log-Gamma terms: a rounding of 2^-52 on each
    becomes relative error of the float path after exp.  The float path
    refuses exactly where its bound, (k/2) eps sum|terms| + eps over the k
    nonzero terms, passes 1e-10.
    """
    def outcome(call):
        try:
            return call()
        except OverflowError:
            return OverflowError

    scale = math.fsum(map(abs, terms))
    want = outcome(lambda: to_float(exact()))
    try:
        got = outcome(floating)
    except DomainError:  # the float path's own refusal of cancelling terms
        eps = sys.float_info.epsilon
        assert 0.5 * sum(t != 0.0 for t in terms) * eps * scale + eps > 1e-10
        return
    if want is OverflowError or got is OverflowError:
        assert want is got, (want, got)
    else:
        assert got == pytest.approx(want, rel=64 * sys.float_info.epsilon * scale)


@st.composite
def _dims_and_exponents(draw, lowest, count):
    """(d, exponents) with count(d) exponents >= lowest whose doubled Gamma arguments fit.

    Small exponents mixed with large ones keep many values inside the double range.
    """
    d = draw(st.integers(min_value=1, max_value=9))
    k = count(d)
    top = (_DOUBLED_CAP - d - 1) // k
    exponent = st.one_of(st.integers(lowest, 8), st.integers(lowest, top))
    return d, draw(st.lists(exponent, min_size=k, max_size=k))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_dims_and_exponents(-1, lambda D: (D + 1) // 2))
@example((1, [49998]))  # Gamma(25000) twice: the float path refuses its cancelling terms
def test_mu_power_paths_agree_up_to_the_gamma_cap(case):
    D, alphas = case
    terms = [math.log(2.0), 0.5 * (D + 1) * math.log(math.pi)]
    terms += [math.lgamma(1.0 + a / 2.0) for a in alphas]
    terms.append(-math.lgamma((D + 1 + sum(alphas)) / 2.0))
    _paths_agree(lambda: mu_power_integral(D, alphas), lambda: mu_power_float(D, alphas), terms)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_dims_and_exponents(0, lambda n: n + 1))
@example((1, [47999, 1]))  # 2/24000 through Gamma(24001)
@example((1, [24999, 24999]))  # Gamma(12500)^2 / Gamma(25000): below the double range
def test_dirichlet_abs_paths_agree_up_to_the_gamma_cap(case):
    n, alphas = case
    terms = [math.log(2.0)] + [math.lgamma((1.0 + a) / 2.0) for a in alphas]
    terms.append(-math.lgamma((n + 1 + sum(alphas)) / 2.0))
    _paths_agree(lambda: dirichlet_abs(n, alphas), lambda: dirichlet_abs_float(n, alphas), terms)
