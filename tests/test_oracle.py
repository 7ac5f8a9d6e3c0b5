import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereint import exactpi, integrals, oracle, prodquad
from sphereint.exactpi import DomainError, PiRational, to_float
from sphereint.fluid import FluidParams, fluid_closed, gamma_power_values
from sphereint.integrals import (
    _MAX_QUAD_AXIS_NODES,
    _MAX_QUAD_GRID_NODES,
    _MAX_PRODUCT_NODES,
    _MIN_QUAD_NODES,
    mu_power_float,
    mu_power_integral,
    poly_integrate,
    sphere_volume,
)
from sphereint.oracle import (
    _CHUNK,
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
)
from sphereint.prodquad import quad_product


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
    k = (D + 1) // 2
    batch = sample_batch(D, MCConfig(seed=300 + D, samples=2000))
    xs, mus = batch.xs, batch.mus
    assert xs.shape == (2000, D + 1)
    assert mus.shape == (2000, D // 2 + 1)

    # unit embedding vector and unit radius vector
    np.testing.assert_allclose(np.sum(xs**2, axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.sum(mus**2, axis=1), 1.0, rtol=0, atol=1e-12)

    # paired radii are non-negative: mu_i is the radius of (x_{2i-1}, x_{2i})
    assert np.all(mus[:, :k] >= 0)
    for i in range(k):
        np.testing.assert_allclose(
            mus[:, i], np.hypot(xs[:, 2 * i], xs[:, 2 * i + 1]), rtol=0, atol=1e-15
        )
    if D % 2 == 0:
        # the unpaired radius carries the sign of the last coordinate
        np.testing.assert_array_equal(mus[:, D // 2], xs[:, D])
        assert np.any(mus[:, D // 2] < 0)


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
        assert est._fields == ("value", "error", "samples_or_nodes")
        assert est.samples_or_nodes == 3000
        assert est.value == pytest.approx(to_float(sphere_volume(D)), rel=1e-13)
        assert est.error == 0.0


def test_mc_one_sample_has_an_unbounded_error():
    # one sample measures no spread: its error is infinite, not 0
    est = mc_integrate(3, lambda b: b.mus[:, 0] ** 2, MCConfig(seed=0, samples=1))
    assert est.samples_or_nodes == 1 and est.error == math.inf


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


def _chart(D, xs):
    # the sampler's polar chart, written out as a reference for the lazy one
    k = (D + 1) // 2
    even, odd = xs[:, 0 : 2 * k : 2], xs[:, 1 : 2 * k : 2]
    mus = np.sqrt(even * even + odd * odd)
    if D % 2 == 0:
        mus = np.column_stack([mus, xs[:, D]])
    return mus


@pytest.mark.parametrize("D", [1, 2, 4, 5, 8, 9, 16])
def test_sample_batch_chart_matches_per_chunk_chart(D):
    # one pass over the whole batch charts it as mc_integrate's blocks do,
    # at both parities; at D = 16 a chunk holds fewer than _CHUNK rows
    config = MCConfig(seed=77, samples=_CHUNK + 5)
    batch = sample_batch(D, config)
    blocks = list(oracle._iter_xs_blocks(D, config))  # mc_integrate's blocks
    assert batch.xs.tobytes() == np.concatenate(blocks).tobytes()
    assert batch.mus.tobytes() == np.concatenate([_chart(D, xs) for xs in blocks]).tobytes()


@pytest.mark.parametrize("D", [1, 2, 3, 5, 8, 9, 12, 40])
def test_chart_is_within_an_ulp_of_hypot(D):
    # 20,000 rows, charted in one pass over the whole batch
    batch = sample_batch(D, MCConfig(seed=500 + D, samples=20000))
    xs, mus, k = batch.xs, batch.mus, (D + 1) // 2
    reference = np.hypot(xs[:, 0 : 2 * k : 2], xs[:, 1 : 2 * k : 2])
    assert mus.shape == (20000, D // 2 + 1)
    assert np.all(np.abs(mus[:, :k] - reference) <= np.spacing(reference))
    assert np.all(mus[:, :k] >= 0)
    assert np.all(np.abs(np.sum(mus * mus, axis=1) - 1.0) <= 8 * np.finfo(float).eps)
    if D % 2 == 0:
        assert mus[:, k].tobytes() == xs[:, D].tobytes()


def _pow_reference(xs, exps, absolute=False):
    # prod_j base[:, j] ** float(e_j) in column order, numpy's pow for every factor
    base = np.abs(xs) if absolute else xs
    out = np.ones(len(xs))
    for j, e in enumerate(exps):
        if e:
            out = out * base[:, j] ** float(e)
    return out


@pytest.mark.parametrize("exps", [(1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (2, 1, 0, 1)])
@pytest.mark.parametrize("absolute", [False, True])
def test_monomial_exponent_one_copies_with_the_bits_of_pow(exps, absolute):
    xs = sample_batch(3, MCConfig(seed=16, samples=5000)).xs
    before = xs.copy()
    out = monomial_values(xs, exps, absolute)
    assert out.tobytes() == _pow_reference(xs, exps, absolute).tobytes()
    assert not np.shares_memory(out, xs)
    assert xs.tobytes() == before.tobytes()


@pytest.mark.parametrize("e", [4, 6, 4.0])
def test_monomial_even_signed_power_is_taken_on_the_magnitude(e):
    xs = sample_batch(3, MCConfig(seed=17, samples=5000)).xs
    x = xs[:, 1]
    out = monomial_values(xs, (0, e, 0, 0))
    assert out.tobytes() == (np.abs(x) ** float(e)).tobytes()
    signed_pow = x ** float(e)
    assert np.all(np.abs(out - signed_pow) <= np.spacing(signed_pow))


@pytest.mark.parametrize("field, exps, absolute", [
    ("xs", (2, 0, 0, 0), False), ("xs", (0, 2, 2, 0), False), ("xs", (3, 0, 0, 2), False),
    ("xs", (2, 0, 0, 0), True), ("xs", (0.5, 0, 2.5, 0), True), ("xs", (4, 0, 1.5, 6), True),
    ("mus", (2.0, -1.0), False), ("mus", (0.5, -0.5), False), ("mus", (0, 2.5), False),
])
def test_monomial_other_exponents_keep_their_bits(field, exps, absolute):
    rows = getattr(sample_batch(3, MCConfig(seed=18, samples=5000)), field)
    assert monomial_values(rows, exps, absolute).tobytes() == (
        _pow_reference(rows, exps, absolute).tobytes()
    )


def test_mc_xs_only_integrand_charts_nothing():
    batches = []

    def f(batch):
        batches.append(batch)
        return batch.xs[:, 0] ** 2

    mc_integrate(4, f, MCConfig(seed=1, samples=1000))
    assert batches and all("mus" not in b.__dict__ for b in batches)


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


def test_mc_integrand_error_names_its_global_sample():
    # at D = 5 sample 70,000 sits in the seventh block of the first chunk;
    # f sees only its block, the error names the index in the whole stream
    seen = []

    def bad(batch):
        out = np.ones(len(batch))
        if sum(seen) <= 70_000 < sum(seen) + len(batch):
            out[70_000 - sum(seen)] = math.nan
        seen.append(len(batch))
        return out

    with pytest.raises(IntegrandError, match="sample 70000") as err:
        mc_integrate(5, bad, MCConfig(seed=4, samples=10**5))
    assert len(seen) > 1 and max(seen) < 70_000
    assert np.array_equal(err.value.row, sample_batch(5, MCConfig(seed=4, samples=70_001)).xs[-1])


def test_mc_shape_check():
    with pytest.raises(ValueError):
        mc_integrate(2, lambda b: np.ones((len(b), 2)), MCConfig(seed=3, samples=16))


def test_quad_shape_check():
    # S^1 has one node, and it is checked like every other grid
    for D in (1, 3):
        with pytest.raises(ValueError, match="integrand returned shape"):
            quad_integrate(D, lambda mus: np.ones(3 * mus.shape[0]), nodes_per_axis=8)


def test_quad_constant_matches_volume():
    # the radii lie on the unit sphere, so the integrand that sums across
    # the columns of its tile is the constant 1 as well.  At D = 8, 16
    # nodes per axis leave a 3e-12 error, so every D runs 24
    for D in range(1, 10):
        truth = to_float(sphere_volume(D))
        for f in (lambda mus: np.ones(mus.shape[0]), lambda mus: (mus * mus).sum(axis=1)):
            est = quad_integrate(D, f, nodes_per_axis=24)
            assert est._fields == ("value", "error", "samples_or_nodes")
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
        # the grid's last bits, pinned.  The fluid integrand sums across the
        # mu columns in a BLAS matvec, whose rounding follows the tile's
        # memory layout, so a change of layout can move these by an ulp
        ("fluid", 5, (0.6, 0.1, 0.3), 17, "0x1.ae3667a7b63c6p+5", "0x1.0c96bb6eb3f3ep-18"),
        ("fluid", 7, (0.3, 0.3, 0.6, 0.1), 17, "0x1.ef12fcf036babp+5", "0x1.766c2c6bc657cp-17"),
        # even D: the sign-carrying chain position is the last mu column
        ("mu", 8, (2, 0, 1, 1), 8, "0x1.dde2e4b41f31cp-1", "0x1.9feaeca459797p-2"),
        # refined inner grids past one tile: 32^3 rows in two even cuts, and
        # 34^3 rows in three uneven ones
        ("mu", 9, (2, 0, 1, 1, 0), 16, "0x1.55d3c7e3cc048p-1", "0x1.b10894e2ed654p-15"),
        ("fluid", 8, (0.3, 0.2, 0.4, 0.1), 17, "0x1.46e7f776d346ep+5", "0x1.1e49aea6aa866p-5"),
        # the 2^24-node budget: each refined theta_1 row is 64^3 nodes, summed
        # from 16 leaves
        ("mu", 9, (2, 0, 1, 1, 0), 32, "0x1.55d3c7e3cbff2p-1", "0x1.57aca8745ebedp-44"),
        ("mu", 8, (2, 0, 1, 1), 32, "0x1.e254a1c03f0fep-1", "0x1.bcea574331a84p-28"),
        ("fluid", 9, (0.3, 0.2, 0.4, 0.1, 0.5), 32, "0x1.766de176b977ap+5",
         "0x1.4f59f712fb20fp-38"),
    ],
    # ids without the pinned bits, so a deliberate re-capture keeps the names
    ids=["fluid-D5-N17", "fluid-D7-N17", "mu-D8-N8", "mu-D9-N16", "fluid-D8-N17",
         "mu-D9-N32", "mu-D8-N32", "fluid-D9-N32"],
)
def test_quad_frozen_bits(kind, D, params, nodes, value, error):
    if kind == "fluid":
        fluid = FluidParams(D, params)
        f = lambda mus: gamma_power_values(mus, fluid)
    else:
        f = lambda mus: mu_power_values(mus, params)
    est = quad_integrate(D, f, nodes_per_axis=nodes)
    assert (est.value.hex(), est.error.hex()) == (value, error)


_FROZEN_CHILD = """
from sphereint.fluid import FluidParams, gamma_power_values
from sphereint.oracle import mu_power_values, quad_integrate
fluid = FluidParams(8, (0.3, 0.2, 0.4, 0.1))
for D, f, nodes in ((9, lambda mus: mu_power_values(mus, (2, 0, 1, 1, 0)), 16),
                    (8, lambda mus: gamma_power_values(mus, fluid), 17)):
    est = quad_integrate(D, f, nodes_per_axis=nodes)
    print(est.value.hex(), est.error.hex())
"""


def test_quad_bits_do_not_depend_on_the_blas_threads():
    # the two frozen cases past one tile, each in a fresh process with one
    # and with two BLAS threads: a threaded dot would sum in another order
    src = str(pathlib.Path(oracle.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", _FROZEN_CHILD], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 4


_AXIS_TABLE_CHILD = """
import hashlib
from numpy._core._multiarray_umath import __cpu_features__
from sphereint.oracle import _axis_data
table = hashlib.sha256()
for D in range(2, 10):
    for npoints in (16, 17, 32, 64, 555):
        for array in (a for axis in _axis_data(D, npoints) for a in axis):
            table.update(array.tobytes())
print(table.hexdigest(), *(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
                           if __cpu_features__.get(f)))
"""


def test_quad_axis_table_does_not_depend_on_the_simd_level():
    # the table's bits come from math alone: the same bytes in a fresh
    # process with numpy's AVX-512 kernels and with them masked, as CI masks
    # them (only the features numpy reports present; none on an AVX2 host)
    src = str(pathlib.Path(oracle.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def table(child_env):
        r = subprocess.run([sys.executable, "-c", _AXIS_TABLE_CHILD], capture_output=True,
                           text=True, env=child_env)
        assert r.returncode == 0, r.stderr
        return r.stdout.split()

    unmasked, *features = table(env)
    masked, *_ = table(dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(features)))
    assert masked == unmasked


def test_quad_bits_do_not_depend_on_the_tile_size(monkeypatch):
    # D = 9, N = 16 has 16^3 and 32^3 nodes per theta_1 row: tiles of 2^8
    # cut every row, 2^14 holds four coarse rows or half a refined one, and
    # 2^20 holds every row of either pass; the fluid integrand, which sums
    # across the radii, must give one result too
    fluid = FluidParams(9, (0.3, 0.2, 0.4, 0.1, 0.5))
    bits = {"mu": set(), "fluid": set()}
    for tile in (1 << 8, _TILE_ELEMS, 1 << 20):
        monkeypatch.setattr(oracle, "_TILE_ELEMS", tile)
        for kind, f in (("mu", lambda mus: mu_power_values(mus, (2, 0, 1, 1, 0))),
                        ("fluid", lambda mus: gamma_power_values(mus, fluid))):
            est = quad_integrate(9, f, nodes_per_axis=16)
            bits[kind].add((est.value.hex(), est.error.hex()))
    assert bits["mu"] == {("0x1.55d3c7e3cc048p-1", "0x1.b10894e2ed654p-15")}
    assert len(bits["fluid"]) == 1


def test_quad_pass_matches_a_reference_loop():
    # one pass summed term by term with math.fsum, each node's radii and
    # weight built from the same axis table; the row sums and their theta_1
    # sum round differently, by a few ulps on these 512 positive terms
    alphas = (2, 0.5, 1, 0)
    f = lambda mus: mu_power_values(mus, alphas)
    for D in (6, 7):
        n, axes = D // 2, _axis_data(D, 8)
        columns = list(range(n + 1)) if D % 2 == 1 else [n] + list(range(n))
        terms = []
        for nodes in itertools.product(range(8), repeat=n):
            mus, carry, weight = np.empty((1, n + 1)), 1.0, 1.0
            for c, (k, (cos, sin, w)) in enumerate(zip(nodes, axes)):
                mus[0, columns[c]] = carry * cos[k]
                carry, weight = carry * sin[k], weight * w[k]
            mus[0, columns[n]] = carry
            terms.append(weight * f(mus)[0])
        expected = (2.0 * math.pi) ** ((D + 1) // 2) * math.fsum(terms)
        assert oracle._quad_tensor(D, f, 8) == pytest.approx(expected, rel=64 * 2.0**-52, abs=0)


def test_quad_integrand_gets_column_contiguous_tiles():
    # one (M, n+1) tile of at most _TILE_ELEMS rows per call, each mu column
    # contiguous, whether a tile is a slice of one theta_1 row (D = 9,
    # N = 17) or several whole rows
    for D, nodes in ((9, 17), (9, 8), (8, 8), (4, 8), (3, 8), (2, 8)):
        seen = []

        def f(mus):
            seen.append((mus.flags["F_CONTIGUOUS"], mus.shape))
            return np.ones(mus.shape[0])

        est = quad_integrate(D, f, nodes_per_axis=nodes)
        assert seen and all(contiguous for contiguous, _ in seen)
        assert {shape[1] for _, shape in seen} == {D // 2 + 1}
        assert max(shape[0] for _, shape in seen) <= _TILE_ELEMS
        assert sum(shape[0] for _, shape in seen) == est.samples_or_nodes


def test_quad_integrand_gets_a_read_only_tile():
    # the tile is a view of the grid buffer: a write would corrupt the next
    # tile's radii, so numpy refuses it
    def f(mus):
        mus[:, 0] = 0.0
        return np.ones(mus.shape[0])

    for D in (1, 5, 8):
        with pytest.raises(ValueError, match="read-only"):
            quad_integrate(D, f, nodes_per_axis=8)


@pytest.mark.parametrize("cap", [128, 1 << 8, 1 << 14])
def test_pairwise_leaves_add_up_to_numpy_sum(cap):
    # numpy splits a run of n > 128 at n // 2 rounded down to a multiple of
    # 8; leaf sums added along that tree must give np.add.reduce bit for
    # bit, on values spread over 2^120, where another order would round
    # differently
    rng = np.random.default_rng(cap)
    lengths = [129, 130, 135, 136, 255, 257, 1001, 4913, 16383, 16385, 34**3, 64**3, 10**6]
    lengths += [int(n) for n in rng.integers(129, 10**6, 6)]
    for n in lengths:
        x = rng.standard_normal(n) * 2.0 ** rng.integers(-60, 60, n)
        leaves = []

        def leaf_sum(a, b):
            leaves.append(b - a)
            return np.add.reduce(x[a:b])

        total = oracle._pairwise_sum(leaf_sum, n, cap)
        assert total.hex() == np.add.reduce(x).hex(), n
        assert sum(leaves) == n and max(leaves) <= cap


def test_mc_memory_does_not_grow_with_D():
    # a chunk is 10,433 rows at D = 200, where 2^17 rows would be 210 MB,
    # and only its values are kept (83 KB).  Its points are drawn and
    # evaluated in blocks of 326 rows (524 KB), one block live at a time;
    # the 40,000 rows in one piece would be 64 MB
    tracemalloc.start()
    try:
        mc_integrate(200, lambda b: b.xs[:, 0] ** 2, MCConfig(seed=3, samples=40_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_mc_working_set_is_one_block():
    # D = 9, 10^5 samples: one chunk, whose 10^5 values (800 KB) are the
    # only chunk-length array; the points, their radii and the fluid
    # integrand's temporaries live one block of 6,553 rows at a time.
    # Drawn whole, the chunk's points alone would be 8 MB
    fluid = FluidParams(9, (0.3, 0.2, 0.4, 0.1, 0.5))
    tracemalloc.start()
    try:
        mc_integrate(9, lambda b: gamma_power_values(b.mus, fluid), MCConfig(0, 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000


def test_sample_batch_is_chunk_independent():
    # the normal stream is row-major, so where the blocks split it moves no point
    config = MCConfig(seed=5, samples=200)
    whole = sample_batch(40, config).xs
    for rows in (1, 7, 64):
        blocks = list(oracle._iter_xs_blocks(40, config, rows))
        assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_quad_grid_memory_stays_bounded():
    # the D = 9, N = 32 refined grid holds 2^24 nodes, and no array grows
    # with its 64^3 inner nodes: a pass holds one 2^14-node leaf of the
    # inner template and weights, widened to whole axis-0 nodes (5 x 24,576
    # doubles, 983 KB), one tile of radii (655 KB) and its weighted values
    # (131 KB).  The whole template would be 10.5 MB.  So N = 32 needs less
    # than one more tile than N = 16, whose inner grid is 32^3
    alphas = (2, 0, 1, 1, 0)
    peaks = {}
    for nodes in (16, 32):
        tracemalloc.start()
        try:
            quad_integrate(9, lambda mus: mu_power_values(mus, alphas), nodes_per_axis=nodes)
            peaks[nodes] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] <= 3_000_000
    assert peaks[32] - peaks[16] < 5 * _TILE_ELEMS * 8  # one (2^14, 5) tile of radii


def test_quad_nodes_stay_on_their_axis():
    # a node past the end of its axis would turn its cos(theta) negative,
    # and a fractional power of it NaN
    for npoints in (300, 555, 600, 1024):
        for cos, sin, _ in _axis_data(5, npoints):
            assert cos.min() >= 0.0 and sin.min() >= 0.0
    alphas = (2.5, 0)
    est = quad_integrate(3, lambda mus: mu_power_values(mus, alphas), nodes_per_axis=300)
    assert abs(est.value - mu_power_float(3, alphas)) <= est.error


def test_quad_axis_table_is_cached_and_read_only():
    _axis_data.cache_clear()
    axes = _axis_data(7, 16)
    assert _axis_data(7, 16) is axes
    assert _axis_data.cache_info()[:2] == (1, 1)  # one hit, one miss
    for array in (a for axis in axes for a in axis):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


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
    # refused before any node is built
    calls = []
    f = lambda mus: calls.append(len(mus)) or np.ones(mus.shape[0])
    for D, nodes in ((3, 100_000), (2, 1025), (9, 33), (7, 129)):
        with pytest.raises(ValueError, match="past the quadrature budget"):
            quad_integrate(D, f, nodes_per_axis=nodes)
    assert calls == []
    # the largest grids inside the budget still run
    assert quad_integrate(2, f, nodes_per_axis=1024).value == pytest.approx(4 * math.pi)
    assert quad_integrate(9, f, nodes_per_axis=32).samples_or_nodes == 32**4 + 64**4


@pytest.mark.parametrize("D", range(2, 10))
def test_product_rule_matches_the_tensor_grid(D):
    # the tensor sum of a separable integrand is the product of its axis sums
    k = (D + 1) // 2
    for alphas in ((0,) * k, (2, 0, 1, 1, 3)[:k], (2.5, -1, 0.5, 6, -0.5)[:k]):
        grid = quad_integrate(D, lambda mus: mu_power_values(mus, alphas), 32)
        product = quad_product(D, alphas, 32)
        assert abs(product.value - grid.value) <= 2e-15 * grid.value, alphas
        assert product.error >= abs(product.value - mu_power_float(D, alphas)), alphas


def test_product_rule_calls_no_gamma_or_closed_form(monkeypatch):
    # it checks the closed forms, so it may share only argument checks with them
    closed = {"_gamma_quotient", "_lgamma_log", "_lgamma_quotient", "gamma_half", "to_float",
              "sphere_volume", "dirichlet_signed", "dirichlet_abs", "dirichlet_abs_float",
              "mu_power_integral", "mu_power_float", "reduction_rhs", "term_integral",
              "poly_integrate"}
    assert not closed & set(vars(prodquad))

    def refuse(*args, **kwargs):
        raise AssertionError("a Gamma function or closed form was called")

    for module in (integrals, exactpi):
        for name in closed & set(vars(module)):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(math, "gamma", refuse)
    monkeypatch.setattr(math, "lgamma", refuse)
    prodquad._chart.cache_clear()
    assert quad_product(9, (2, 0, 1, 0.5, -1), 16).value > 0
    assert quad_product(40, (), 8).value > 0


def test_product_rule_refuses_past_its_budget_before_any_work():
    # 2N per axis as for the grid, and n * 2N in all, at any D
    prodquad._chart.cache_clear()
    one_axis_past = 2 * (_MAX_PRODUCT_NODES // 16) + 2  # at 2N = 16
    for D, nodes in ((3, 1025), (1027, 1024), (one_axis_past, 8)):
        with pytest.raises(ValueError, match="past the quadrature budget"):
            quad_product(D, (), nodes)
    with pytest.raises(ValueError):
        quad_product(3, (2, 0), _MIN_QUAD_NODES - 1)
    with pytest.raises(DomainError):
        quad_product(3, (-1.5, 0))
    assert prodquad._chart.cache_info().currsize == 0
    # the largest pass inside the budget runs, and its 512 axis sums keep the
    # bound honest through their roundoff floor; below the double range is refused
    est = quad_product(1025, (-1,) * 513, 1024)
    assert est.samples_or_nodes == 3 * 1024 * 512
    assert abs(est.value - to_float(mu_power_integral(1025, (-1,) * 513))) <= est.error
    with pytest.raises(OverflowError):
        quad_product(1025, (), 32)


def _largest_nodes(D):
    """The largest nodes_per_axis inside the quadrature budget on S^D."""
    n = D // 2
    return min(_MAX_QUAD_AXIS_NODES, round(_MAX_QUAD_GRID_NODES ** (1 / n))) // 2


@st.composite
def _quad_cases(draw):
    D = draw(st.integers(2, 9))
    k = (D + 1) // 2
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
    # inf in the first tile at D = 4, NaN in a later tile at D = 9: the row
    # is that node's (n+1,) radii, read across the column-contiguous tile
    for D, value, call in ((4, math.inf, 1), (9, math.nan, 2)):
        calls, seen = [], []

        def bad(mus):
            calls.append(len(mus))
            out = np.ones(mus.shape[0])
            if len(calls) == call:
                seen.append(mus[9].copy())  # the grid buffer is reused, so copy on receipt
                out[9] = value
            return out

        with pytest.raises(IntegrandError, match="at a quadrature node") as err:
            quad_integrate(D, bad, nodes_per_axis=8)
        row = err.value.row
        assert row.shape == (D // 2 + 1,) and np.array_equal(row, seen[0])
        assert math.fsum(row * row) == pytest.approx(1.0, rel=1e-15)
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
