"""Brute-force verification oracles.

Uniform sampling on S^D, Monte Carlo integration, a deterministic nested
Gauss-Legendre quadrature for integrands that depend only on the polar
radii.  Everything here deliberately avoids the closed-form evaluators it
is meant to check; even the Monte Carlo volume normalization uses its own
log-Gamma float formula.

Reproducibility: the random stream is numpy's PCG64 as wrapped by
numpy.random.default_rng(seed) (numpy >= 1.24), consumed in fixed-size
chunks of 2**17 draws whose partial sums are accumulated in order.  The
same (seed, samples, integrand, dim) therefore reproduces the estimate
bit-for-bit on one platform.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exactpi import BudgetError, DomainError, _Frozen
from .integrals import SphereDim, as_dim

_CHUNK = 1 << 17
# target element count per evaluation block in the quadrature grid sweep
_BLOCK_ELEMS = 1 << 19
# grid rows per integrand call: a (2^14, 5) tile is 640 KB, about one L2
_TILE_ELEMS = 1 << 14
_MIN_QUAD_NODES = 8  # below it, |I(2N) - I(N)| can miss the error of I(2N)
_MAX_QUAD_D = 9  # quadrature dimension is n, so this caps the grid at 4 axes
# refined-grid budget: leggauss solves a 2N x 2N eigenproblem per axis, and
# the grid holds (2N)^n nodes; 2^24 is the default N = 32 grid at D = 9
_MAX_QUAD_AXIS_NODES = 2048
_MAX_QUAD_GRID_NODES = 1 << 24


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
    """Vectorized sample block on S^D; rows of xs/mus/phis line up.

    The chart is x_{2i-1} = mu_i cos(phi_i), x_{2i} = mu_i sin(phi_i) with
    phi_i in [0, 2 pi), plus for even D the sign-carrying x_{2n+1} = mu_{n+1}.
    Only xs is stored: mus and phis are computed from xs on first access
    and cached, so an integrand that reads xs alone never pays for them.
    """

    def __init__(self, dim: SphereDim, xs: np.ndarray):
        self.dim = dim
        self.xs = xs

    def __len__(self) -> int:
        return self.xs.shape[0]

    @cached_property
    def mus(self) -> np.ndarray:
        k = self.dim.n_angles
        pair_mus = np.hypot(self.xs[:, 0 : 2 * k : 2], self.xs[:, 1 : 2 * k : 2])
        if self.dim.eps == 0:
            return np.column_stack([pair_mus, self.xs[:, self.dim.D]])
        return pair_mus

    @cached_property
    def phis(self) -> np.ndarray:
        k = self.dim.n_angles
        return np.mod(
            np.arctan2(self.xs[:, 1 : 2 * k : 2], self.xs[:, 0 : 2 * k : 2]), 2.0 * math.pi
        )


class IntegrandError(ValueError):
    """An integrand returned a non-finite value; row copies its xs or radii input row."""

    def __init__(self, message: str, row: np.ndarray):
        super().__init__(message)
        self.row = row


class OracleEstimate(namedtuple("OracleEstimate", "value error samples_or_nodes method")):
    """Estimate plus its honesty bound.

    error is the standard error of the mean for method == "mc" and the
    node-refinement bound for method == "quad".  samples_or_nodes counts
    integrand evaluations.
    """

    __slots__ = ()


def _volume_float(dim: SphereDim) -> float:
    # log-Gamma route, independent of the exact evaluators this module checks
    log = math.log(2.0) + 0.5 * (dim.D + 1) * math.log(math.pi)
    log -= math.lgamma((dim.D + 1) / 2.0)
    vol = math.exp(log)
    if vol < sys.float_info.min:  # a zero normalization would zero the estimate
        raise OverflowError("value is below the double-precision range")
    return vol


def _iter_xs_chunks(dim: SphereDim, config: MCConfig) -> Iterator[np.ndarray]:
    # Gaussian direction trick: a standard normal vector normalized to unit
    # length is uniform on the sphere; no rejection step needed.
    rng = np.random.default_rng(config.seed)
    remaining = config.samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        g = rng.standard_normal((m, dim.D + 1))
        norms = np.sqrt(np.einsum("ij,ij->i", g, g))
        g /= norms[:, None]
        yield g
        remaining -= m


def sample_batch(dim: SphereDim | int, config: MCConfig) -> PointBatch:
    """All requested samples as one PointBatch (same stream as mc_integrate)."""
    dim = as_dim(dim)
    return PointBatch(dim, np.concatenate(list(_iter_xs_chunks(dim, config))))


def mc_integrate(
    dim: SphereDim | int,
    f: Callable[[PointBatch], np.ndarray],
    config: MCConfig,
) -> OracleEstimate:
    """Monte Carlo estimate of the integral of f over S^D.

    f receives a PointBatch and must return one float per row.  The value
    is V_D * mean(f); error is V_D times the sample standard error of the
    mean (zero for a constant integrand).  The variance comes from
    per-chunk centred sums of squares merged by the pairwise update of
    Chan, Golub and LeVeque (1983), so a large mean cannot cancel it away.
    Raises OverflowError, before sampling, when V_D is below the normal
    double range.
    """
    dim = as_dim(dim)
    vol = _volume_float(dim)
    total = 0.0
    count = 0
    run_mean = 0.0
    m2 = 0.0  # sum of squared deviations from run_mean over the chunks so far
    for xs in _iter_xs_chunks(dim, config):
        batch = PointBatch(dim, xs)
        vals = _values(f, batch, xs, count)
        chunk_sum = float(np.sum(vals))
        m = len(batch)
        chunk_mean = chunk_sum / m
        dev = vals - chunk_mean
        delta = chunk_mean - run_mean
        m2 += float(np.sum(dev * dev)) + delta * delta * count * m / (count + m)
        run_mean += delta * m / (count + m)
        total += chunk_sum
        count += m
    mean = total / count
    std_err = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return OracleEstimate(
        value=vol * mean,
        error=vol * std_err,
        samples_or_nodes=count,
        method="mc",
    )


@lru_cache(maxsize=None)
def _leggauss(npoints: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: every dimension shares them."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _axis_data(dim: SphereDim, npoints: int):
    """Per-axis nodes and weights for the nested-angle chart of the mu sphere.

    The polar radii trace the part of S^n with mu_1..mu_{n+eps} >= 0 (the
    unpaired mu_{n+1} keeps its sign for even D).  Chart, chain position k
    running over the n angles theta_k:

        pos_1 = cos(theta_1),  pos_k = sin(theta_1)...sin(theta_{k-1}) cos(theta_k),
        pos_{n+1} = sin(theta_1)...sin(theta_n)

    For odd D the positions are mu_1..mu_{n+1} in order and every angle runs
    over [0, pi/2]; for even D position 1 is the sign-carrying mu_{n+1}, so
    theta_1 runs over [0, pi] and positions 2..n+1 are mu_1..mu_n.  Each
    axis weight collects the surface measure sin^(n-i), the Killing-angle
    Jacobian factor mu_j for each weighted radius (the cos factor on every
    axis but a full-range one), and the substitution derivative.

    Each angle is its range times t(s), s a Gauss-Legendre node on [0,1]
    and t(s) = 10 s^3 - 15 s^4 + 6 s^5 the quintic smootherstep, with
    t'(s) = 30 s^2 (1-s)^2 vanishing to second order at both ends.  A
    fractional endpoint factor u^a (u the distance to the end) becomes
    s^(3a+2) under the substitution, regular enough for fast Gauss-Legendre
    convergence even for the a in (0, 1) that real exponents down to -1
    produce after the mu_j measure shift; integer-exponent integrands stay
    analytic.  The table is cached per (dim, npoints), so its arrays are
    read-only.
    """
    n = dim.n
    x, w = _leggauss(npoints)
    s = 0.5 * (x + 1.0)
    # rounding lifts t past 1 at some npoints (555 is the smallest); clip it,
    # or theta would leave its axis and cos(theta) turn negative
    t = np.clip(s * s * s * (10.0 - 15.0 * s + 6.0 * s * s), 0.0, 1.0)
    w01 = 0.5 * w * (30.0 * s * s * (1.0 - s) ** 2)
    axes = []
    for i in range(1, n + 1):
        full_range = dim.eps == 0 and i == 1
        length = math.pi if full_range else 0.5 * math.pi
        theta = length * t
        cos = np.cos(theta)
        sin = np.sin(theta)
        weight = length * w01
        if not full_range:
            weight = weight * cos
        weight = weight * sin ** (2 * n + 1 - 2 * i)
        for a in (cos, sin, weight):
            a.flags.writeable = False
        axes.append((cos, sin, weight))
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


def _quad_tensor(dim: SphereDim, f, npoints: int) -> float:
    if dim.D == 1:
        # S^1 has mu_1 = 1 identically; only the angle integral remains.
        mus = np.array([[1.0]])
        return 2.0 * math.pi * float(_values(f, mus, mus)[0])

    n = dim.n
    (cos0, sin0, w0), *inner_axes = _axis_data(dim, npoints)
    inner_size = npoints ** (n - 1)
    # chain position c -> mu column: in order for odd D; for even D the
    # sign-carrying position 0 is the last column
    columns = list(range(n + 1)) if dim.eps == 1 else [n] + list(range(n))
    # row-major template of the inner grid: chain positions 2..n+1 in their
    # mu columns, each missing the sin(theta_1) factor, and the weight
    # product over the inner axes, each built row-major one axis at a time;
    # the cos(theta_1) column is set per tile
    template = np.zeros((inner_size, n + 1))
    prefix = w_inner = np.ones(1)
    for j, (cos, sin, w) in enumerate(inner_axes):
        column = np.multiply.outer(prefix, cos).ravel()
        template[:, columns[j + 1]] = np.repeat(column, inner_size // column.size)
        prefix = np.multiply.outer(prefix, sin).ravel()
        w_inner = np.multiply.outer(w_inner, w).ravel()
    template[:, columns[n]] = prefix

    block = min(npoints, max(1, _BLOCK_ELEMS // inner_size))
    # a tile is whole theta_1 rows of the template, or a slice of one row
    tile_rows = min(npoints, max(1, _TILE_ELEMS // inner_size))
    tile_span = min(inner_size, _TILE_ELEMS)
    tbuf = np.empty((tile_rows * tile_span, n + 1))
    vbuf = np.empty(block * inner_size)
    wbuf = np.empty(block * inner_size)
    total = 0.0
    for start in range(0, npoints, block):
        stop = min(npoints, start + block)
        size = (stop - start) * inner_size
        for i in range(start, stop, tile_rows):
            i_stop = min(stop, i + tile_rows)
            for a in range(0, inner_size, tile_span):
                a_stop = min(inner_size, a + tile_span)
                m = (i_stop - i) * (a_stop - a)
                mus = tbuf[:m]
                tile = mus.reshape(i_stop - i, a_stop - a, n + 1)
                np.multiply(sin0[i:i_stop, None, None], template[a:a_stop], out=tile)
                np.copyto(tile[..., columns[0]], cos0[i:i_stop, None])
                offset = (i - start) * inner_size + a
                vbuf[offset : offset + m] = _values(f, mus, mus)
        weights = wbuf[:size]
        np.multiply(w0[start:stop, None], w_inner, out=weights.reshape(-1, inner_size))
        total += float(np.dot(vbuf[:size], weights))
    return (2.0 * math.pi) ** dim.n_angles * total


def quad_integrate(
    dim: SphereDim | int,
    f: Callable[[np.ndarray], np.ndarray],
    nodes_per_axis: int = 32,
) -> OracleEstimate:
    """Deterministic quadrature of a radii-only integrand over S^D.

    f receives a row-major (M, n+1) array of polar radii and returns one
    float per row.  The array is one tile of the grid, M <= 2^14 rows, and
    a view of a buffer that the next tile overwrites, so an f that keeps
    it must copy it.  The circle angles are integrated analytically,
    leaving an n-dimensional tensor-product Gauss-Legendre grid; the cap
    D <= 9 keeps that grid at most four axes.  The estimate is the refined
    pass I(2N); error is |I(2N) - I(N)| plus a roundoff floor, so a
    converged result never reports a zero bound.

    Refuses nodes_per_axis < 8, below which that bound can miss the error
    of I(2N), and up front, with BudgetError (a ValueError), a refined grid
    past the budget: 2N <= 2048 nodes per axis and (2N)^n <= 2^24 in all.
    """
    dim = as_dim(dim)
    if dim.D > _MAX_QUAD_D:
        raise DomainError(
            f"quadrature grid supports D <= {_MAX_QUAD_D}, got D={dim.D}; "
            "use mc_integrate for higher dimensions"
        )
    if isinstance(nodes_per_axis, bool) or not isinstance(nodes_per_axis, int):
        raise TypeError("nodes_per_axis must be an integer")
    if nodes_per_axis < _MIN_QUAD_NODES:
        raise ValueError(f"nodes_per_axis must be >= {_MIN_QUAD_NODES}")
    refined = 2 * nodes_per_axis
    if refined > _MAX_QUAD_AXIS_NODES or refined ** dim.n > _MAX_QUAD_GRID_NODES:
        raise BudgetError(
            f"nodes_per_axis {nodes_per_axis} on S^{dim.D} is past the quadrature budget: "
            f"its refined grid of {refined}^{dim.n} nodes may have at most "
            f"{_MAX_QUAD_AXIS_NODES} per axis and {_MAX_QUAD_GRID_NODES} in all"
        )
    coarse = _quad_tensor(dim, f, nodes_per_axis)
    fine = _quad_tensor(dim, f, refined)
    bound = abs(fine - coarse) + 1e-13 * abs(fine)
    return OracleEstimate(
        value=fine,
        error=bound,
        samples_or_nodes=nodes_per_axis ** dim.n + refined ** dim.n,
        method="quad",
    )


# ---------------------------------------------------------------------------
# vectorized integrand value helpers, shared by tests and the CLI


def monomial_values(
    xs: np.ndarray, exps: Sequence[int | float], absolute: bool = False
) -> np.ndarray:
    """prod_j xs[:, j]^(e_j), optionally with |xs| as the base."""
    base = np.abs(xs) if absolute else xs
    out = None
    for j, e in enumerate(exps):
        if e:
            p = base[:, j] ** float(e)
            out = p if out is None else np.multiply(out, p, out=out)
    return np.ones(xs.shape[0]) if out is None else out


# mu_power_values(mus, alphas): prod_j mus[:, j]^(a_j) over the first len(alphas) radii
mu_power_values = monomial_values


def polynomial_values(
    xs: np.ndarray, poly: Mapping[Sequence[int], int | Fraction]
) -> np.ndarray:
    out = np.zeros(xs.shape[0])
    for exps in sorted(poly):
        out = out + float(poly[exps]) * monomial_values(xs, tuple(exps))
    return out
