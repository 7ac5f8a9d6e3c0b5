"""Brute-force verification oracles.

Uniform sampling on S^D, Monte Carlo integration, a deterministic nested
Gauss-Legendre quadrature for integrands that depend only on the polar
radii.  Everything here deliberately avoids the closed-form evaluators it
is meant to check; even the Monte Carlo volume normalization uses its own
log-Gamma float formula.  A mu-power product separates on the same chart;
prodquad integrates it at every D without numpy.

Reproducibility: the random stream is numpy's PCG64 as wrapped by
numpy.random.default_rng(seed) (numpy >= 1.24), consumed in fixed-size
chunks of 2**17 draws, or 2**21 // (D+1) past D = 15, whose partial sums
are accumulated in order.  Each chunk is drawn and evaluated in blocks of
about 2**16 coordinates, which move no bit: only the chunk sets the sums.
The same (seed, samples, integrand, D) therefore reproduces the estimate
bit-for-bit on one platform.  The quadrature sums each theta_1 row of its
grid along numpy's pairwise tree and the row sums in the rule's node order,
an order fixed by the grid alone, independent of the tile size and the
BLAS thread count.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exactpi import _Frozen
from .integrals import _check_D, _check_quad
from .prodquad import OracleEstimate, _axes

# rows per MC chunk, the unit of mc_integrate's sums; past D = 15 a chunk
# holds fewer rows, at most _CHUNK_VALUES coordinates
_CHUNK = 1 << 17
_CHUNK_VALUES = 1 << 21
# coordinates per MC block, the unit of drawing, charting and the integrand
# call: 512 KB of doubles, about one L2, so the sampler's memory grows with
# neither the sample count nor D
_BLOCK_VALUES = 1 << 16
# nodes per quadrature tile and per leaf of the inner grid: a (2^14, 5) tile is
# 640 KB, about one L2.  At least 128, numpy's pairwise-sum block, which no leaf cuts
_TILE_ELEMS = 1 << 14


class MCConfig(_Frozen):
    """Seeded Monte Carlo configuration; identical configs give identical estimates."""

    __slots__ = ("seed", "samples")

    def __init__(self, seed: int, samples: int):
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples!r}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "samples", samples)


class PointBatch:
    """Vectorized sample block on S^D for the int D; rows of xs and mus line up.

    The chart is x_{2i-1} = mu_i cos(phi_i), x_{2i} = mu_i sin(phi_i), plus
    for even D the sign-carrying x_{2n+1} = mu_{n+1}.  Only xs is stored:
    mus is computed from xs on first access and cached, so an integrand
    that reads xs alone never pays for it.  A pair radius is
    sqrt(x*x + y*y), within 1 ulp of hypot; unit rows cannot overflow.
    One pass charts the whole batch, with one transient array the size of mus.
    """

    def __init__(self, D: int, xs: np.ndarray):
        self.D = D
        self.xs = xs

    def __len__(self) -> int:
        return self.xs.shape[0]

    @cached_property
    def mus(self) -> np.ndarray:
        xs, k = self.xs, (self.D + 1) // 2
        pair = np.square(xs[:, 0 : 2 * k : 2])
        pair += np.square(xs[:, 1 : 2 * k : 2])
        np.sqrt(pair, out=pair)
        # at even D the pairs are k of the k + 1 columns, a strided out that
        # numpy writes row by row: they are formed contiguous, then copied whole
        return pair if self.D % 2 else np.column_stack([pair, xs[:, self.D]])


class IntegrandError(ValueError):
    """An integrand returned a non-finite value; row copies its xs or radii input row."""

    def __init__(self, message: str, row: np.ndarray):
        super().__init__(message)
        self.row = row


def _volume_float(D: int) -> float:
    # log-Gamma route, independent of the exact evaluators this module checks
    log = math.log(2.0) + 0.5 * (D + 1) * math.log(math.pi)
    log -= math.lgamma((D + 1) / 2.0)
    vol = math.exp(log)
    if vol < sys.float_info.min:  # a zero normalization would zero the estimate
        raise OverflowError("value is below the double-precision range")
    return vol


def _chunk_rows(D: int) -> int:
    return min(_CHUNK, max(1, _CHUNK_VALUES // (D + 1)))


def _iter_xs_blocks(D: int, config: MCConfig, rows: int | None = None) -> Iterator[np.ndarray]:
    # Gaussian direction trick: a standard normal vector normalized to unit
    # length is uniform on the sphere, no rejection step needed.  Blocks of
    # rows rows (default about _BLOCK_VALUES coordinates) are also cut at
    # every MC chunk boundary; the normal stream is row-major, so no block
    # size moves a point.
    rng = np.random.default_rng(config.seed)
    chunk = _chunk_rows(D)
    rows = rows or max(1, _BLOCK_VALUES // (D + 1))
    for start in range(0, config.samples, chunk):
        stop = min(config.samples, start + chunk)
        for a in range(start, stop, rows):
            g = rng.standard_normal((min(rows, stop - a), D + 1))
            norms = np.sqrt(np.einsum("ij,ij->i", g, g))
            g /= norms[:, None]
            yield g


def sample_batch(D: int, config: MCConfig) -> PointBatch:
    """All samples as one PointBatch (mc_integrate's stream); .mus adds a mus-sized transient."""
    D = _check_D(D)
    xs = np.empty((config.samples, D + 1))
    i = 0
    for block in _iter_xs_blocks(D, config):
        xs[i : i + len(block)] = block
        i += len(block)
    return PointBatch(D, xs)


def mc_integrate(
    D: int,
    f: Callable[[PointBatch], np.ndarray],
    config: MCConfig,
) -> OracleEstimate:
    """Monte Carlo estimate of the integral of f over S^D.

    f receives a PointBatch and must return one float per row, each from
    its own row alone: it is called once per block of about 2^16
    coordinates, and a block never spans two chunks.  The value is
    V_D * mean(f); error is V_D times the sample standard error of the
    mean (zero for a constant integrand), or math.inf from one sample,
    which measures no spread.  The variance comes from
    per-chunk centred sums of squares merged by the pairwise update of
    Chan, Golub and LeVeque (1983), so a large mean cannot cancel it away.
    Raises OverflowError, before sampling, when V_D is below the normal
    double range.
    """
    D = _check_D(D)
    vol = _volume_float(D)
    total = 0.0
    count = 0
    m2 = 0.0  # sum of squared deviations from total / count over the chunks so far
    vals = np.empty(min(_chunk_rows(D), config.samples))  # the current chunk's values
    m = 0  # rows of the current chunk evaluated so far
    for xs in _iter_xs_blocks(D, config):
        vals[m : m + len(xs)] = _values(f, PointBatch(D, xs), xs, count + m)
        m += len(xs)
        if m < min(len(vals), config.samples - count):
            continue
        chunk = vals[:m]
        chunk_sum = float(np.sum(chunk))
        chunk_mean = chunk_sum / m
        # squared deviations in place: the next chunk refills vals
        sq_dev = np.square(np.subtract(chunk, chunk_mean, out=chunk), out=chunk)
        delta = chunk_mean - total / max(count, 1)  # the first chunk's delta has weight 0
        m2 += float(np.sum(sq_dev)) + delta * delta * count * m / (count + m)
        total += chunk_sum
        count += m
        m = 0
    mean = total / count
    std_err = math.sqrt(m2 / (count - 1) / count) if count > 1 else math.inf
    return OracleEstimate(
        value=vol * mean,
        error=vol * std_err,
        samples_or_nodes=count,
    )


@lru_cache(maxsize=None)
def _axis_data(D: int, npoints: int):
    """Per-axis (cos, sin, weight) arrays of the tensor grid, chain position 1 first.

    Axis k's weight is w * cos^a * sin^b from prodquad._axes' row for it,
    built in Python floats before the axis becomes arrays, so no numpy
    kernel sets its bits.  The table is the quadrature's one cache, keyed
    by (D, npoints), so its arrays are read-only.
    """
    axes = []
    for cos, sin, w, a, b in _axes(D, npoints)[0]:
        weight = [wk * c ** a * s ** b for c, s, wk in zip(cos, sin, w)]
        axis = tuple(np.array(x) for x in (cos, sin, weight))
        for x in axis:
            x.flags.writeable = False
        axes.append(axis)
    return tuple(axes)


def _values(f, arg, rows: np.ndarray, first: int | None = None) -> np.ndarray:
    """f(arg) as one finite float per row; first is rows[0]'s MC sample index."""
    vals = np.asarray(f(arg), dtype=float)
    if vals.shape != (len(rows),):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({len(rows)},)")
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        where = "a quadrature node" if first is None else f"sample {first + i}"
        raise IntegrandError(f"integrand returned {vals[i]!r} at {where}", rows[i].copy())
    return vals


def _pairwise_sum(leaf_sum, stop: int, cap: int, start: int = 0):
    """np.add.reduce of the run [start, stop), bit for bit, from leaf sums.

    numpy sums a contiguous run of n <= 128 values in eight interleaved
    accumulators and splits a longer run at n // 2 rounded down to a
    multiple of 8.  This walks the same tree, stops at the first node of at
    most cap >= 128 values, so it only cuts where numpy does, and adds the
    leaves' sums leaf_sum(a, b) along it.  leaf_sum is called left to right.
    """
    if stop - start <= cap:
        return leaf_sum(start, stop)
    half = (stop - start) // 2
    mid = start + half - half % 8
    return _pairwise_sum(leaf_sum, mid, cap, start) + _pairwise_sum(leaf_sum, stop, cap, mid)


def _quad_tensor(D: int, f, npoints: int) -> float:
    if D == 1:
        # S^1 has mu_1 = 1 identically; only the angle integral remains.
        mus = np.array([[1.0]])
        mus.flags.writeable = False
        return 2.0 * math.pi * float(_values(f, mus, mus)[0])

    n = D // 2
    (cos0, sin0, w0), *inner_axes = _axis_data(D, npoints)
    inner_size = npoints ** (n - 1)
    # chain position 1 holds cos(theta_1); the mu columns of positions
    # 2..n+1, which carry a sin(theta_1) factor, are a contiguous run
    cos_column, *scaled = _axes(D, npoints)[1]
    scaled = slice(scaled[0], scaled[-1] + 1)
    # a tile is whole theta_1 rows of one leaf of the inner grid; slab holds
    # the leaf's template and weights, tbuf a tile's mu columns, wbuf its values
    width = min(inner_size, _TILE_ELEMS)
    tile_rows = min(npoints, max(1, _TILE_ELEMS // inner_size))
    stride = npoints ** max(0, n - 2)  # inner nodes per node of inner axis 0
    slab = np.empty((n + 1, width + 2 * stride))
    wbuf = np.empty(tile_rows * width)
    tbuf = np.empty((n + 1) * wbuf.size)

    def leaf_sums(a: int, b: int) -> np.ndarray:
        # the inner grid on the axis-0 nodes that meet leaf [a, b), built axis
        # by axis: template row c holds chain position c + 2 without its
        # sin(theta_1), the last row the running sin product, w_inner the weights
        lo, hi = a // stride, -(-b // stride)
        grid = (hi - lo,) + (npoints,) * (n - 2)
        nodes = slab[:, : (hi - lo) * stride]
        nodes[n - 1 :] = 1.0
        template, sins, w_inner = nodes[:n], nodes[n - 1].reshape(grid), nodes[n]
        for j, (cos, sin, w) in enumerate(inner_axes):
            part = slice(lo, hi) if j == 0 else slice(None)
            axis = (-1,) + (1,) * (n - 2 - j)  # broadcasts along inner axis j
            np.multiply(sins, cos[part].reshape(axis), out=template[j].reshape(grid))
            np.multiply(sins, sin[part].reshape(axis), out=sins)
            np.multiply(w_inner.reshape(grid), w[part].reshape(axis), out=w_inner.reshape(grid))
        leaf = slice(a - lo * stride, b - lo * stride)
        # every theta_1 row's sum over the leaf, tile by tile: numpy's pairwise
        # sum, not a BLAS dot, whose order would follow the tile and the threads
        sums = np.empty(npoints)
        for i in range(0, npoints, tile_rows):
            rows = slice(i, min(npoints, i + tile_rows))
            shape = (rows.stop - rows.start, b - a)
            tile = tbuf[: (n + 1) * shape[0] * shape[1]].reshape(n + 1, *shape)
            np.multiply(sin0[rows, None], template[:, None, leaf], out=tile[scaled])
            np.copyto(tile[cos_column], cos0[rows, None])
            mus = tile.reshape(n + 1, -1).T  # (M, n+1), each mu column contiguous
            mus.flags.writeable = False
            vals = _values(f, mus, mus).reshape(shape)
            weighted = np.multiply(vals, w_inner[leaf], out=wbuf[: vals.size].reshape(shape))
            sums[rows] = np.add.reduce(weighted, axis=1)
        return sums

    row_sums = _pairwise_sum(leaf_sums, inner_size, _TILE_ELEMS)
    # the row sums in the rule's node order: accumulate adds strictly left to right
    total = float(np.add.accumulate(w0 * row_sums)[-1])
    return (2.0 * math.pi) ** ((D + 1) // 2) * total


def quad_integrate(
    D: int,
    f: Callable[[np.ndarray], np.ndarray],
    nodes_per_axis: int = 32,
) -> OracleEstimate:
    """Deterministic quadrature of a radii-only integrand over S^D.

    f receives an (M, n+1) array of polar radii, each column contiguous
    (Fortran order), and returns one float per row, each from its own row
    alone.  It is called once per tile of the grid, M <= 2^14 rows, and
    gets a read-only view of a buffer that the next tile overwrites, so an
    f that keeps it must copy it.  The circle angles are integrated
    analytically, leaving an n-dimensional tensor-product Gauss-Legendre
    grid, which the cap on D keeps to at most four axes.  The estimate is
    the refined pass I(2N); error is |I(2N) - I(N)| plus a roundoff floor,
    so a converged result never reports a zero bound.  A pass holds one
    leaf of at most 2^14 inner nodes and one tile, about 2 MB at D = 9
    whatever N, and sums each theta_1 row along numpy's pairwise tree in an
    order set by the grid alone, so the bits do not depend on the tile size
    or the BLAS thread count.

    Its argument limits are integrals._check_quad's, checked up front.
    """
    D = _check_quad(D, nodes_per_axis)
    refined, n = 2 * nodes_per_axis, D // 2
    coarse = _quad_tensor(D, f, nodes_per_axis)
    fine = _quad_tensor(D, f, refined)
    bound = abs(fine - coarse) + 1e-13 * abs(fine)
    return OracleEstimate(
        value=fine,
        error=bound,
        samples_or_nodes=nodes_per_axis ** n + refined ** n,
    )


# ---------------------------------------------------------------------------
# vectorized integrand value helpers, shared by tests and the CLI


def monomial_values(
    xs: np.ndarray, exps: Sequence[int | float], absolute: bool = False
) -> np.ndarray:
    """prod_j xs[:, j]^(e_j), optionally with |xs| as the base; never a view of xs.

    A column's base is |x| when absolute, or for an even exponent >= 4 on
    a signed base: numpy's pow is slow on negative bases, and the two
    differ by at most 1 ulp.
    """
    out = None
    for j, e in enumerate(exps):
        if e:
            p = xs[:, j]
            if absolute or e >= 4 and e % 2 == 0:
                p = np.abs(p)
            if e != 1:  # x ** 1.0 is x: multiply by the column itself
                p = p ** float(e)
            elif out is None and p.base is not None:  # still a view of xs
                p = p.copy()
            out = p if out is None else np.multiply(out, p, out=out)
    return np.ones(xs.shape[0]) if out is None else out


# mu_power_values(mus, alphas): prod_j mus[:, j]^(a_j) over the first len(alphas) radii
mu_power_values = monomial_values


def polynomial_values(
    xs: np.ndarray, poly: Mapping[Sequence[int], int | Fraction]
) -> np.ndarray:
    out = np.zeros(xs.shape[0])
    for exps in sorted(poly):
        out += float(poly[exps]) * monomial_values(xs, tuple(exps))
    return out
