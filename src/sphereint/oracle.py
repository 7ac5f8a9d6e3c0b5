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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from .exactpi import BudgetError, DomainError
from .integrals import SphereDim, as_dim

_CHUNK = 1 << 17
# target element count per evaluation block in the quadrature grid sweep
_BLOCK_ELEMS = 1 << 19
_MAX_QUAD_D = 9  # quadrature dimension is n, so this caps the grid at 4 axes
# refined-grid budget: leggauss solves a 2N x 2N eigenproblem per axis, and
# the grid holds (2N)^n nodes; 2^24 is the default N = 32 grid at D = 9
_MAX_QUAD_AXIS_NODES = 2048
_MAX_QUAD_GRID_NODES = 1 << 24


@dataclass(frozen=True)
class MCConfig:
    """Seeded Monte Carlo configuration; identical configs give identical estimates."""

    seed: int
    samples: int

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples!r}")


@dataclass(frozen=True)
class SpherePoint:
    """One sample on S^D: embedding coordinates, polar radii, and angles.

    xs has D+1 entries; mus has n+1 entries with mus[i] >= 0 for the first
    n+eps of them; phis has n+eps entries in [0, 2 pi).  The chart is
    x_{2i-1} = mu_i cos(phi_i), x_{2i} = mu_i sin(phi_i), plus for even D
    the unpaired sign-carrying x_{2n+1} = mu_{n+1}.
    """

    xs: tuple
    mus: tuple
    phis: tuple


@dataclass(frozen=True)
class PointBatch:
    """Vectorized sample block; rows of xs/mus/phis line up.

    Only xs is stored: mus and phis are computed from xs on first access
    and cached, so an integrand that reads xs alone never pays for them.
    """

    dim: SphereDim
    xs: np.ndarray

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

    def point(self, i: int) -> SpherePoint:
        return SpherePoint(
            xs=tuple(float(v) for v in self.xs[i]),
            mus=tuple(float(v) for v in self.mus[i]),
            phis=tuple(float(v) for v in self.phis[i]),
        )


class IntegrandError(ValueError):
    """An integrand returned a non-finite value; carries the offending point."""

    def __init__(self, message: str, point: SpherePoint):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class OracleEstimate:
    """Estimate plus its honesty bound.

    error is the standard error of the mean for method == "mc" and the
    node-refinement bound for method == "quad".  samples_or_nodes counts
    integrand evaluations.
    """

    value: float
    error: float
    samples_or_nodes: int
    method: str


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
        yield g / norms[:, None]
        remaining -= m


def sample_batch(dim: Union[SphereDim, int], config: MCConfig) -> PointBatch:
    """All requested samples as one PointBatch (same stream as mc_integrate)."""
    dim = as_dim(dim)
    return PointBatch(dim, np.concatenate(list(_iter_xs_chunks(dim, config))))


def mc_integrate(
    dim: Union[SphereDim, int],
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
        vals = np.asarray(f(batch), dtype=float)
        if vals.shape != (len(batch),):
            raise ValueError(
                f"integrand returned shape {vals.shape}, expected ({len(batch)},)"
            )
        finite = np.isfinite(vals)
        if not finite.all():
            i = int(np.argmin(finite))
            point = batch.point(i)
            raise IntegrandError(
                f"integrand returned {vals[i]!r} at sample {count + i}", point
            )
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
def _unit_nodes(npoints: int):
    """Gauss-Legendre nodes/weights on [0,1], pushed through a quintic smootherstep.

    t(s) = 10 s^3 - 15 s^4 + 6 s^5 has t'(s) = 30 s^2 (1-s)^2, vanishing to
    second order at both ends.  A fractional endpoint factor u^a (u the
    distance to the end) becomes s^(3a+2) under the substitution, regular
    enough for fast Gauss-Legendre convergence even for the a in (0, 1)
    that real exponents down to -1 produce after the mu_j measure shift;
    integer-exponent integrands stay analytic.
    """
    x, w = np.polynomial.legendre.leggauss(npoints)
    s = 0.5 * (x + 1.0)
    ds = 0.5 * w
    # rounding lifts t past 1 at some npoints (555 is the smallest); clip it,
    # or theta would leave its axis and cos(theta) turn negative
    t = np.clip(s * s * s * (10.0 - 15.0 * s + 6.0 * s * s), 0.0, 1.0)
    dt = 30.0 * s * s * (1.0 - s) ** 2
    return t, ds * dt


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
    Jacobian factor mu_j for each weighted radius (exponent p below), and
    the substitution derivative.
    """
    n = dim.n
    t, w01 = _unit_nodes(npoints)
    axes = []
    for i in range(1, n + 1):
        full_range = dim.eps == 0 and i == 1
        length = math.pi if full_range else 0.5 * math.pi
        theta = length * t
        cos = np.cos(theta)
        sin = np.sin(theta)
        p = 0 if full_range else 1
        q = 2 * n + 1 - 2 * i
        weight = length * w01
        if p:
            weight = weight * cos
        if q:
            weight = weight * sin ** q
        axes.append((cos, sin, weight))
    return axes


def _require_finite_grid(vals: np.ndarray, mus: np.ndarray) -> None:
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        point = SpherePoint(xs=(), mus=tuple(float(v) for v in mus[i]), phis=())
        raise IntegrandError(f"integrand returned {vals[i]!r} at a quadrature node", point)


def _quad_tensor(dim: SphereDim, f, npoints: int):
    if dim.D == 1:
        # S^1 has mu_1 = 1 identically; only the angle integral remains.
        mus = np.array([[1.0]])
        vals = np.asarray(f(mus), dtype=float)
        _require_finite_grid(vals, mus)
        return 2.0 * math.pi * float(vals[0]), 1

    n = dim.n
    axes = _axis_data(dim, npoints)
    cos0, sin0, w0 = axes[0]
    inner_axes = axes[1:]
    ninner = len(inner_axes)
    inner_shape = tuple(npoints for _ in range(ninner))
    inner_size = int(np.prod(inner_shape)) if ninner else 1

    def expand(vec, j):
        shape = [1] * ninner
        shape[j] = npoints
        return vec.reshape(shape)

    # chain positions 2..n+1 and the weight product over the inner axes,
    # each missing the per-block sin(theta_1) prefix
    pos_inner = []
    prefix = np.ones(inner_shape)
    w_inner = np.ones(inner_shape)
    for j, (cos, sin, w) in enumerate(inner_axes):
        pos_inner.append(prefix * expand(cos, j))
        prefix = prefix * expand(sin, j)
        w_inner = w_inner * expand(w, j)
    pos_inner.append(prefix)

    # chain position c -> mu column: in order for odd D; for even D the
    # sign-carrying position 0 is the last column
    columns = list(range(n + 1)) if dim.eps == 1 else [n] + list(range(n))
    block = max(1, _BLOCK_ELEMS // inner_size)
    # one row-major grid and weight buffer for every block; f sees a prefix
    buf = np.empty((block * inner_size, n + 1))
    wbuf = np.empty(block * inner_size)
    total = 0.0
    count = 0
    for start in range(0, npoints, block):
        stop = min(npoints, start + block)
        b = stop - start
        size = b * inner_size
        lead = (b,) + tuple(1 for _ in range(ninner))
        full = (b,) + inner_shape
        c0 = cos0[start:stop].reshape(lead)
        s0 = sin0[start:stop].reshape(lead)
        mus = buf[:size]
        grid = mus.reshape(full + (n + 1,))
        np.copyto(grid[..., columns[0]], c0)
        for c, pos in enumerate(pos_inner, start=1):
            np.multiply(s0, pos, out=grid[..., columns[c]])
        weights = wbuf[:size]
        np.multiply(w0[start:stop].reshape(lead), w_inner, out=weights.reshape(full))
        vals = np.asarray(f(mus), dtype=float)
        if vals.shape != (size,):
            raise ValueError(f"integrand returned shape {vals.shape}, expected ({size},)")
        _require_finite_grid(vals, mus)
        total += float(np.dot(vals, weights))
        count += size
    return (2.0 * math.pi) ** dim.n_angles * total, count


def quad_integrate(
    dim: Union[SphereDim, int],
    f: Callable[[np.ndarray], np.ndarray],
    nodes_per_axis: int = 32,
) -> OracleEstimate:
    """Deterministic quadrature of a radii-only integrand over S^D.

    f receives a row-major (M, n+1) array of polar radii and returns one
    float per row.  The array is a view of a buffer that the next block
    of the grid overwrites, so an f that keeps it must copy it.  The circle angles are integrated analytically, leaving an
    n-dimensional tensor-product Gauss-Legendre grid; the cap D <= 9 keeps
    that grid at most four axes.  The estimate is the refined pass
    I(2N); error is |I(2N) - I(N)| plus a roundoff floor, so a
    converged result never reports a zero bound.

    Refuses up front, with BudgetError (a ValueError), a refined grid past
    the budget: 2N <= 2048 nodes per axis and (2N)^n <= 2^24 nodes in all.
    """
    dim = as_dim(dim)
    if dim.D > _MAX_QUAD_D:
        raise DomainError(
            f"quadrature grid supports D <= {_MAX_QUAD_D}, got D={dim.D}; "
            "use mc_integrate for higher dimensions"
        )
    if isinstance(nodes_per_axis, bool) or not isinstance(nodes_per_axis, int):
        raise TypeError("nodes_per_axis must be an integer")
    if nodes_per_axis < 2:
        raise ValueError("nodes_per_axis must be >= 2")
    refined = 2 * nodes_per_axis
    if refined > _MAX_QUAD_AXIS_NODES or refined ** dim.n > _MAX_QUAD_GRID_NODES:
        raise BudgetError(
            f"nodes_per_axis {nodes_per_axis} on S^{dim.D} is past the quadrature budget: "
            f"its refined grid of {refined}^{dim.n} nodes may have at most "
            f"{_MAX_QUAD_AXIS_NODES} per axis and {_MAX_QUAD_GRID_NODES} in all"
        )
    coarse, count_coarse = _quad_tensor(dim, f, nodes_per_axis)
    fine, count_fine = _quad_tensor(dim, f, refined)
    bound = abs(fine - coarse) + 1e-13 * abs(fine)
    return OracleEstimate(
        value=fine,
        error=bound,
        samples_or_nodes=count_coarse + count_fine,
        method="quad",
    )


# ---------------------------------------------------------------------------
# vectorized integrand value helpers, shared by tests and the CLI


def mu_power_values(mus: np.ndarray, alphas: Sequence[Union[int, float]]) -> np.ndarray:
    """prod_j mus[:, j]^(a_j) over the first len(alphas) radii columns."""
    out = np.ones(mus.shape[0])
    for j, a in enumerate(alphas):
        if a:
            out = out * mus[:, j] ** float(a)
    return out


def monomial_values(
    xs: np.ndarray, exps: Sequence[int], absolute: bool = False
) -> np.ndarray:
    """prod_j xs[:, j]^(e_j), optionally with |xs| as the base."""
    base = np.abs(xs) if absolute else xs
    out = np.ones(xs.shape[0])
    for j, e in enumerate(exps):
        if e:
            out = out * base[:, j] ** float(e)
    return out


def polynomial_values(
    xs: np.ndarray, poly: Mapping[Sequence[int], Union[int, Fraction]]
) -> np.ndarray:
    out = np.zeros(xs.shape[0])
    for exps in sorted(poly):
        out = out + float(poly[exps]) * monomial_values(xs, tuple(exps))
    return out
