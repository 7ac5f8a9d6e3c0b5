import math
from fractions import Fraction

import numpy as np
import pytest

from sphereint.exactpi import DomainError, PiRational, to_float
from sphereint.fluid import FluidParams, gamma_power_values
from sphereint.integrals import SphereDim, mu_power_float, poly_integrate, sphere_volume
from sphereint.oracle import (
    _CHUNK,
    IntegrandError,
    MCConfig,
    mc_integrate,
    monomial_values,
    mu_power_values,
    polynomial_values,
    quad_integrate,
    sample_batch,
    _unit_nodes,
)


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(seed=-1, samples=10)
    with pytest.raises(ValueError):
        MCConfig(seed=0, samples=0)
    with pytest.raises(ValueError):
        MCConfig(seed=True, samples=10)


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 6])
def test_sampler_chart_invariants(D):
    dim = SphereDim(D)
    batch = sample_batch(dim, MCConfig(seed=300 + D, samples=2000))
    xs, mus, phis = batch.xs, batch.mus, batch.phis
    assert xs.shape == (2000, D + 1)
    assert mus.shape == (2000, dim.n_mu)
    assert phis.shape == (2000, dim.n_angles)

    # unit embedding vector and unit radius vector
    np.testing.assert_allclose(np.sum(xs**2, axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.sum(mus**2, axis=1), 1.0, rtol=0, atol=1e-12)

    # paired radii are non-negative; angles live in [0, 2 pi)
    assert np.all(mus[:, : dim.n_angles] >= 0)
    assert np.all(phis >= 0) and np.all(phis < 2 * math.pi)

    # chart reconstruction x_{2i-1} = mu_i cos phi_i, x_{2i} = mu_i sin phi_i
    for i in range(dim.n_angles):
        np.testing.assert_allclose(
            xs[:, 2 * i], mus[:, i] * np.cos(phis[:, i]), atol=1e-12
        )
        np.testing.assert_allclose(
            xs[:, 2 * i + 1], mus[:, i] * np.sin(phis[:, i]), atol=1e-12
        )
    if dim.eps == 0:
        # the unpaired radius carries the sign of the last coordinate
        np.testing.assert_array_equal(mus[:, dim.n], xs[:, D])
        assert np.any(mus[:, dim.n] < 0)


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_sampler_uniformity(D):
    # moment test: E x_j = 0 and E x_j^2 = 1/(D+1) on a uniform sphere.
    # 4 sigma at 400k samples; seeds are frozen so this never flakes.
    batch = sample_batch(D, MCConfig(seed=97 + D, samples=400_000))
    xs = batch.xs
    m = len(batch)
    for j in range(D + 1):
        col = xs[:, j]
        se1 = col.std(ddof=1) / math.sqrt(m)
        assert abs(col.mean()) <= 4 * se1
        sq = col**2
        se2 = sq.std(ddof=1) / math.sqrt(m)
        assert abs(sq.mean() - 1.0 / (D + 1)) <= 4 * se2


def test_mc_constant_is_exact_volume():
    for D in (1, 2, 3, 5, 8):
        est = mc_integrate(D, lambda b: np.ones(len(b)), MCConfig(seed=1, samples=3000))
        assert est.method == "mc"
        assert est.samples_or_nodes == 3000
        assert est.value == pytest.approx(to_float(sphere_volume(D)), rel=1e-13)
        assert est.error == 0.0


def test_mc_determinism_bit_identical():
    cfg = MCConfig(seed=9001, samples=300_000)  # spans multiple chunks
    f = lambda b: b.mus[:, 0] ** 2 * np.abs(b.xs[:, -1])
    a = mc_integrate(2, f, cfg)
    b = mc_integrate(2, f, cfg)
    assert (a.value, a.error) == (b.value, b.error)


def test_mc_mean_mu1_squared_on_s3():
    # integral of mu_1^2 over S^3 is pi^2 (mean 1/2); frozen seed, 3 sigma
    est = mc_integrate(3, lambda b: b.mus[:, 0] ** 2, MCConfig(seed=811, samples=200_000))
    assert abs(est.value - math.pi**2) <= 3 * est.error


def test_mc_error_survives_a_large_mean():
    # a 1e8 offset on a 1e-3 signal: E[x^2] - mean^2 would cancel to zero;
    # one chunk and several chunks must both match numpy's centred ddof=1
    f = lambda b: 1e8 + 1e-3 * b.xs[:, 0]
    vol = to_float(sphere_volume(3))
    for samples in (10**5, 300_000):
        cfg = MCConfig(seed=0, samples=samples)
        est = mc_integrate(3, f, cfg)
        vals = f(sample_batch(3, cfg))
        ref = vol * vals.std(ddof=1) / math.sqrt(samples)
        assert est.error == pytest.approx(ref, rel=1e-6)


def test_mc_refuses_an_underflowing_normalization():
    # V_2000 is below the double range; a 0.0 normalization would report 0 +- 0
    with pytest.raises(OverflowError, match="below the double-precision range"):
        mc_integrate(2000, lambda b: np.ones(len(b)), MCConfig(0, 100))


def test_mc_frozen_regression():
    # integral of |x_1|^0.5 over S^2; value pinned to the PCG64 stream
    est = mc_integrate(
        2, lambda b: np.abs(b.xs[:, 0]) ** 0.5, MCConfig(seed=20240, samples=10**6)
    )
    assert est.value == 8.376465397742193
    assert est.error == 0.0029624983642204507


def _chart(dim, xs):
    # the sampler's polar chart, written out as a reference for the lazy one
    k = dim.n_angles
    even, odd = xs[:, 0 : 2 * k : 2], xs[:, 1 : 2 * k : 2]
    mus = np.hypot(even, odd)
    if dim.eps == 0:
        mus = np.column_stack([mus, xs[:, dim.D]])
    return mus, np.mod(np.arctan2(odd, even), 2.0 * math.pi)


@pytest.mark.parametrize("D", [4, 5])
def test_sample_batch_chart_matches_per_chunk_chart(D):
    dim = SphereDim(D)
    batch = sample_batch(dim, MCConfig(seed=77, samples=_CHUNK + 5))
    parts = [_chart(dim, batch.xs[:_CHUNK]), _chart(dim, batch.xs[_CHUNK:])]
    assert batch.mus.tobytes() == np.concatenate([m for m, _ in parts]).tobytes()
    assert batch.phis.tobytes() == np.concatenate([p for _, p in parts]).tobytes()


def test_mc_xs_only_integrand_charts_nothing():
    batches = []

    def f(batch):
        batches.append(batch)
        return batch.xs[:, 0] ** 2

    mc_integrate(4, f, MCConfig(seed=1, samples=1000))
    assert batches and all(
        "mus" not in b.__dict__ and "phis" not in b.__dict__ for b in batches
    )


def test_mc_integrand_error_carries_point():
    def bad(batch):
        out = np.ones(len(batch))
        out[7] = math.nan
        return out

    with pytest.raises(IntegrandError) as err:
        mc_integrate(2, bad, MCConfig(seed=3, samples=64))
    assert len(err.value.point.xs) == 3
    assert "sample 7" in str(err.value)


def test_mc_shape_check():
    with pytest.raises(ValueError):
        mc_integrate(2, lambda b: np.ones((len(b), 2)), MCConfig(seed=3, samples=16))


def test_quad_constant_matches_volume():
    for D in (1, 2, 3, 4, 5, 7, 9):
        est = quad_integrate(D, lambda mus: np.ones(mus.shape[0]), nodes_per_axis=16)
        truth = to_float(sphere_volume(D))
        assert est.method == "quad"
        assert est.value == pytest.approx(truth, rel=1e-12)
        assert abs(est.value - truth) <= est.error


def test_quad_known_values():
    est = quad_integrate(2, lambda mus: mu_power_values(mus, (2,)), nodes_per_axis=24)
    assert est.value == pytest.approx(8 * math.pi / 3, rel=1e-12)
    # integrable singularity mu_1^-1 on S^2
    est = quad_integrate(2, lambda mus: mu_power_values(mus, (-1.0,)), nodes_per_axis=40)
    assert est.value == pytest.approx(2 * math.pi**2, rel=1e-9)
    assert abs(est.value - 2 * math.pi**2) <= est.error


@pytest.mark.parametrize(
    "D,alphas",
    [
        (2, (0.5,)),
        (2, (1.5,)),
        (3, (0.5, math.sqrt(2))),
        (4, (-0.5, 0.25)),
        (5, (1.5, -1.0, 2.5)),
    ],
)
def test_quad_real_exponents_with_honest_bound(D, alphas):
    est = quad_integrate(D, lambda mus: mu_power_values(mus, alphas), nodes_per_axis=32)
    truth = mu_power_float(D, alphas)
    assert est.value == pytest.approx(truth, rel=1e-9)
    assert abs(est.value - truth) <= est.error


def test_quad_cross_checks_mc():
    alphas = (0.5, math.sqrt(2))
    q = quad_integrate(3, lambda mus: mu_power_values(mus, alphas), nodes_per_axis=32)
    m = mc_integrate(
        3,
        lambda b: mu_power_values(b.mus, alphas),
        MCConfig(seed=4242, samples=400_000),
    )
    assert abs(q.value - m.value) <= 3 * m.error + q.error


@pytest.mark.parametrize(
    "kind,D,params,nodes,value,error",
    [
        # the grid's last bits, pinned: a column-major grid flips both fluid cases
        ("fluid", 5, (0.6, 0.1, 0.3), 17, "0x1.ae3667a7b63ddp+5", "0x1.0c96bc3eb3f3ep-18"),
        ("fluid", 7, (0.3, 0.3, 0.6, 0.1), 17, "0x1.ef12fcf036bc8p+5", "0x1.766c2bd7c657cp-17"),
        # even D: the sign-carrying chain position is the last mu column
        ("mu", 8, (2, 0, 1, 1), 8, "0x1.dde2e4b41f337p-1", "0x1.9feaeca4597d3p-2"),
    ],
)
def test_quad_frozen_bits(kind, D, params, nodes, value, error):
    if kind == "fluid":
        fluid = FluidParams(D, params)
        f = lambda mus: gamma_power_values(mus, fluid)
    else:
        f = lambda mus: mu_power_values(mus, params)
    est = quad_integrate(D, f, nodes_per_axis=nodes)
    assert (est.value.hex(), est.error.hex()) == (value, error)


def test_quad_integrand_gets_a_row_major_grid():
    seen = []

    def f(mus):
        seen.append(mus.flags["C_CONTIGUOUS"])
        return np.ones(mus.shape[0])

    quad_integrate(9, f, nodes_per_axis=8)
    quad_integrate(4, f, nodes_per_axis=8)
    assert seen and all(seen)


def test_quad_nodes_stay_on_their_axis():
    # unclipped, the smootherstep rounds past 1 at some node counts from 555
    # on, and a fractional power of the then negative cos(theta) is NaN
    for npoints in (300, 555, 600, 1024):
        t, _ = _unit_nodes(npoints)
        assert t.min() >= 0.0 and t.max() <= 1.0
    alphas = (2.5, 0)
    est = quad_integrate(3, lambda mus: mu_power_values(mus, alphas), nodes_per_axis=300)
    assert abs(est.value - mu_power_float(3, alphas)) <= est.error


def test_quad_refuses_high_dim_and_bad_nodes():
    f = lambda mus: np.ones(mus.shape[0])
    with pytest.raises(DomainError):
        quad_integrate(10, f)
    with pytest.raises(ValueError):
        quad_integrate(3, f, nodes_per_axis=1)
    with pytest.raises(TypeError):
        quad_integrate(3, f, nodes_per_axis=16.0)


def test_quad_refuses_a_grid_past_its_budget():
    # refused before any node is built: leggauss(100000), the coarse pass
    # alone, would need a 75 GiB companion matrix
    calls = []
    f = lambda mus: calls.append(len(mus)) or np.ones(mus.shape[0])
    for D, nodes in ((3, 100_000), (2, 1025), (9, 33), (7, 129)):
        with pytest.raises(ValueError, match="past the quadrature budget"):
            quad_integrate(D, f, nodes_per_axis=nodes)
    assert calls == []
    # the largest grids inside the budget still run
    assert quad_integrate(2, f, nodes_per_axis=1024).value == pytest.approx(4 * math.pi)
    assert quad_integrate(9, f, nodes_per_axis=32).samples_or_nodes == 32**4 + 64**4


def test_quad_integrand_error_carries_radii():
    def bad(mus):
        out = np.ones(mus.shape[0])
        out[0] = math.inf
        return out

    with pytest.raises(IntegrandError) as err:
        quad_integrate(2, bad, nodes_per_axis=4)
    assert len(err.value.point.mus) == 2


def test_poly_integrate_examples():
    one = poly_integrate(2, {(0, 0, 0): 1})
    assert one == PiRational(Fraction(4), 2)  # 4 pi
    norm = poly_integrate(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert norm == one  # sum x_j^2 = 1 on the sphere
    mixed = poly_integrate(2, {(2, 2, 0): 1})
    assert mixed == PiRational(Fraction(4, 15), 2)
    assert poly_integrate(2, {(1, 0, 0): Fraction(5, 3)}) == PiRational(Fraction(0))


def test_poly_integrate_rejects_float_coefficients():
    with pytest.raises(TypeError):
        poly_integrate(2, {(2, 0, 0): 0.5})
    with pytest.raises(TypeError):
        poly_integrate(2, {(2, 0, 0): True})


def test_value_helpers_match_scalar_math():
    batch = sample_batch(3, MCConfig(seed=15, samples=128))
    vals = monomial_values(batch.xs, (2, 0, 1, 0))
    np.testing.assert_allclose(vals, batch.xs[:, 0] ** 2 * batch.xs[:, 2], atol=1e-15)
    vals = monomial_values(batch.xs, (1, 1, 0, 0), absolute=True)
    np.testing.assert_allclose(
        vals, np.abs(batch.xs[:, 0]) * np.abs(batch.xs[:, 1]), atol=1e-15
    )
    vals = mu_power_values(batch.mus, (2.0, -1.0))
    np.testing.assert_allclose(vals, batch.mus[:, 0] ** 2 / batch.mus[:, 1], rtol=1e-12)
    poly = {(2, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 1): 3}
    vals = polynomial_values(batch.xs, poly)
    np.testing.assert_allclose(
        vals, 0.5 * batch.xs[:, 0] ** 2 + 3.0 * batch.xs[:, 3], atol=1e-14
    )
