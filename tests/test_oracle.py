import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereint.exactpi import DomainError, PiRational, to_float
from sphereint.fluid import FluidParams, fluid_closed, gamma_power_values
from sphereint.integrals import SphereDim, mu_power_float, poly_integrate, sphere_volume
from sphereint.oracle import (
    _CHUNK,
    _MAX_QUAD_AXIS_NODES,
    _MAX_QUAD_GRID_NODES,
    _MIN_QUAD_NODES,
    _TILE_ELEMS,
    IntegrandError,
    MCConfig,
    mc_integrate,
    monomial_values,
    mu_power_values,
    polynomial_values,
    quad_integrate,
    sample_batch,
    _axis_data,
    _leggauss,
)


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(seed=-1, samples=10)
    with pytest.raises(ValueError):
        MCConfig(seed=0, samples=0)
    with pytest.raises(ValueError):
        MCConfig(seed=True, samples=10)
    with pytest.raises(ValueError):
        MCConfig(seed=0, samples=True)


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
    row = err.value.row
    assert np.array_equal(row, sample_batch(2, MCConfig(seed=3, samples=64)).xs[7])
    assert row.base is None  # a copy: it pins no sample chunk
    assert "sample 7" in str(err.value)


def test_mc_shape_check():
    with pytest.raises(ValueError):
        mc_integrate(2, lambda b: np.ones((len(b), 2)), MCConfig(seed=3, samples=16))


def test_quad_shape_check():
    # S^1 has one node, and it is checked like every other grid
    for D in (1, 3):
        with pytest.raises(ValueError, match="integrand returned shape"):
            quad_integrate(D, lambda mus: np.ones(3 * mus.shape[0]), nodes_per_axis=8)


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
        # refined inner grids past one tile: 32^3 rows in two even cuts, and
        # 34^3 rows in three uneven ones
        ("mu", 9, (2, 0, 1, 1, 0), 16, "0x1.55d3c7e3cc00ap-1", "0x1.b10894e441654p-15"),
        ("fluid", 8, (0.3, 0.2, 0.4, 0.1), 17, "0x1.46e7f776d3480p+5", "0x1.1e49aea6a5c66p-5"),
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
    # one tile of at most _TILE_ELEMS rows per call, whether a tile is a
    # slice of one theta_1 row (D = 9, N = 17) or several whole rows
    for D, nodes in ((9, 17), (9, 8), (4, 8), (2, 8)):
        seen = []

        def f(mus):
            seen.append((mus.flags["C_CONTIGUOUS"], mus.shape[0]))
            return np.ones(mus.shape[0])

        est = quad_integrate(D, f, nodes_per_axis=nodes)
        assert seen and all(contiguous for contiguous, _ in seen)
        assert max(rows for _, rows in seen) <= _TILE_ELEMS
        assert sum(rows for _, rows in seen) == est.samples_or_nodes


def test_quad_grid_memory_stays_bounded():
    # the D = 9, N = 32 refined grid holds 2^24 nodes; it is built tile by
    # tile, never as one 2^19-row block of five columns
    alphas = (2, 0, 1, 1, 0)
    tracemalloc.start()
    try:
        quad_integrate(9, lambda mus: mu_power_values(mus, alphas), nodes_per_axis=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32_000_000


def test_quad_nodes_stay_on_their_axis():
    # unclipped, the smootherstep rounds past 1 at some node counts from 555
    # on, and a fractional power of the then negative cos(theta) is NaN
    for npoints in (300, 555, 600, 1024):
        for cos, sin, _ in _axis_data(SphereDim(5), npoints):
            assert cos.min() >= 0.0 and sin.min() >= 0.0
    alphas = (2.5, 0)
    est = quad_integrate(3, lambda mus: mu_power_values(mus, alphas), nodes_per_axis=300)
    assert abs(est.value - mu_power_float(3, alphas)) <= est.error


def test_quad_axis_table_is_cached_and_read_only():
    axes = _axis_data(SphereDim(7), 16)
    assert _axis_data(SphereDim(7), 16) is axes  # an equal key, not the same object
    for array in (a for axis in axes for a in axis):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_quad_rule_is_computed_once_per_node_count(monkeypatch):
    # the axis tables are per (dim, N), the Gauss-Legendre rule per N alone
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    _leggauss.cache_clear()
    _axis_data.cache_clear()
    f = lambda mus: np.ones(mus.shape[0])
    for D in (3, 5, 8):
        quad_integrate(D, f, nodes_per_axis=16)
    assert sorted(calls) == [16, 32]
    x, w = _leggauss(16)
    assert not x.flags.writeable and not w.flags.writeable


def test_quad_refuses_high_dim_and_bad_nodes():
    f = lambda mus: np.ones(mus.shape[0])
    with pytest.raises(DomainError):
        quad_integrate(10, f)
    for nodes in (1, 7):
        with pytest.raises(ValueError):
            quad_integrate(3, f, nodes_per_axis=nodes)
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


def _largest_nodes(D):
    """The largest nodes_per_axis inside the quadrature budget on S^D."""
    n = D // 2
    return min(_MAX_QUAD_AXIS_NODES, round(_MAX_QUAD_GRID_NODES ** (1 / n))) // 2


@st.composite
def _quad_cases(draw):
    D = draw(st.integers(2, 9))
    k = SphereDim(D).n_angles
    # mostly small grids: one pass at the budget takes up to half a second
    N = draw(st.one_of(st.integers(_MIN_QUAD_NODES, 16),
                       st.integers(_MIN_QUAD_NODES, _largest_nodes(D))))
    if draw(st.booleans()):
        return D, N, "mu", tuple(draw(st.lists(st.floats(-1, 6), min_size=k, max_size=k)))
    return D, N, "fluid", tuple(draw(st.lists(st.floats(-0.9, 0.9), min_size=k, max_size=k)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quad_cases())
@example((2, _MIN_QUAD_NODES, "mu", (-1.0,)))
@example((9, _MIN_QUAD_NODES, "mu", (-1.0, 6.0, 0.5, -0.5, 2.0)))
@example((2, _largest_nodes(2), "mu", (6.0,)))  # the grid of the budget test above
@example((9, _largest_nodes(9), "fluid", (0.9, -0.9, 0.9, 0.5, 0.0)))
def test_quad_error_bar_covers_the_truth(case):
    # the reported bound must hold at every accepted nodes_per_axis: the CLI
    # judges quadrature agreement by sigma <= 1.  Known exception, outside
    # these draws: the two passes can agree by chance just above the floor,
    # as mu_power_values(mus, (6, -1, 6, -1, 6)) on S^9 does at N = 8
    D, N, kind, params = case
    if kind == "mu":
        f, truth = (lambda mus: mu_power_values(mus, params)), mu_power_float(D, params)
    else:
        fluid = FluidParams(D, params)
        f, truth = (lambda mus: gamma_power_values(mus, fluid)), fluid_closed(fluid)
    est = quad_integrate(D, f, nodes_per_axis=N)
    assert abs(est.value - truth) <= est.error


def test_quad_integrand_error_carries_radii():
    seen = []

    def bad(mus):
        seen.append(mus[9].copy())  # the grid buffer is reused, so copy on receipt
        out = np.ones(mus.shape[0])
        out[9] = math.inf
        return out

    with pytest.raises(IntegrandError, match="at a quadrature node") as err:
        quad_integrate(4, bad, nodes_per_axis=8)
    row = err.value.row
    assert row.shape == (3,) and np.array_equal(row, seen[0])
    assert row.base is None  # a copy: it pins no grid buffer


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
