"""The package's Gauss-Legendre rule and nested-angle chart, and a product-rule
quadrature of polar-radius powers over S^D with math alone.

The chart: the polar radii trace the part of S^n with mu_1..mu_(n+eps) >= 0
(the unpaired mu_(n+1) keeps its sign for even D).  Chain position k runs
over the n angles theta_k:

    pos_1 = cos(theta_1),  pos_k = sin(theta_1)...sin(theta_(k-1)) cos(theta_k),
    pos_(n+1) = sin(theta_1)...sin(theta_n)

For odd D the positions are mu_1..mu_(n+1) in order and every angle runs
over [0, pi/2]; for even D position 1 is the sign-carrying mu_(n+1), so
theta_1 runs over [0, pi] and positions 2..n+1 are mu_1..mu_n.  Axis k
carries the surface measure sin^(n-k) and, from the Killing-angle Jacobian
factor mu_j of each weighted radius, the cos of its own position (none on
a full-range axis) and one sin for each later position.  Each angle is its
range times t(s), s a Gauss-Legendre node on [0, 1] and
t(s) = 10 s^3 - 15 s^4 + 6 s^5 the quintic smootherstep, with
t'(s) = 30 s^2 (1-s)^2 vanishing to second order at both ends.  A
fractional endpoint factor u^a (u the distance to the end) becomes
s^(3a+2) under the substitution, regular enough for fast Gauss-Legendre
convergence even for the a in (0, 1) that real exponents down to -1
produce after the mu_j measure shift; integer-exponent integrands stay
analytic.  _chart is the package's one rule and _axes its one chart:
oracle._axis_data builds the tensor grid's axes from them.

A mu-power product separates on the chart into one factor per angle:

    prod_j mu_j^(a_j) = prod_k cos^(p_k)(theta_k) sin^(B_k)(theta_k),

p_k the exponent at chain position k and B_k the sum of the exponents
after it.  The tensor Gauss-Legendre sum of such an integrand is exactly
the product of the n = D // 2 one-dimensional sums over the same nodes and
weights, so a pass costs n * N powers instead of N^n integrand values, at
every D.  The nodes come from Newton's method on the Legendre recurrence
and each axis sum from one math.fsum, so nothing here loads numpy.
The rule evaluates no Gamma function and calls no closed form: it checks
them.  Its bits come from the platform's libm (cos, sin, pow).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache

from .integrals import _check_exponents, _check_quad


class OracleEstimate(namedtuple("OracleEstimate", "value error samples_or_nodes")):
    """Estimate plus its honesty bound.

    The function that returns it sets what error means: the standard error
    of the mean from mc_integrate, the node-refinement bound from
    quad_integrate and quad_product.  samples_or_nodes counts integrand
    evaluations, or for quad_product the one-dimensional node evaluations.
    """

    __slots__ = ()


def _legendre(terms: list, x: float) -> tuple:
    """(P_N(x), P_N'(x)) from the recurrence k P_k = (2k-1) x P_(k-1) - (k-1) P_(k-2).

    terms holds (2k-1, k-1, k) as floats for k = 2..N: the same bits as
    the integers, without converting them at every step.
    """
    p0, p1 = 1.0, x
    for c, d, k in terms:
        p0, p1 = p1, (c * x * p1 - d * p0) / k
    return p1, (len(terms) + 1) * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _chart(npoints: int) -> tuple:
    """The (cos, sin, weight) lists of the npoints nodes on [0, pi/2] and on [0, pi].

    The Gauss-Legendre roots are found by Newton's method from Tricomi's
    estimate, one of each +-x pair; a root's weight is 2 / ((1 - x^2)
    P_N'(x)^2) at the converged root.  On s = (x + 1) / 2 in [0, 1] the
    angle is its axis length times t(s), t the chart's smootherstep, and
    the weight takes t'(s) and the length.  Each pair is built from its
    node u = (1 - x) / 2 <= 1/2, exact for x >= 1/2, and mirrored:
    t(1 - u) = 1 - t(u), so the mirror node's cos and sin on [0, pi/2] are
    the sin and cos of u's angle, and its sin on [0, pi] is the same.  So
    t is taken only where it stays below 1/2, no rounding moves a node past
    the end of its axis, and a node near an end keeps its small cos or sin
    to full relative precision.  The node order is the middle root first
    at odd npoints, then each pair, u before its mirror.
    """
    terms = [(2.0 * k - 1.0, k - 1.0, float(k)) for k in range(2, npoints + 1)]
    roots = [(0.0, 2.0 / _legendre(terms, 0.0)[1] ** 2)] if npoints % 2 else []
    for i in range(1, npoints // 2 + 1):
        x = (1.0 - (npoints - 1) / (8.0 * npoints ** 3)) * math.cos(
            math.pi * (4 * i - 1) / (4 * npoints + 2))
        for _ in range(100):
            p, dp = _legendre(terms, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-15:
                break
        roots.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * _legendre(terms, x)[1] ** 2)))
    nodes = []  # cos and sin on [0, pi/2], cos and sin on [0, pi], weight on [0, 1]
    for x, w in roots:
        u = 0.5 * (1.0 - x)
        t = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
        c, s = math.cos(0.5 * math.pi * t), math.sin(0.5 * math.pi * t)
        cf, sf = math.cos(math.pi * t), math.sin(math.pi * t)
        w01 = 0.5 * w * (30.0 * u * u * (1.0 - u) ** 2)
        nodes.append((c, s, cf, sf, w01))
        if x:  # the mirror node 1 - u; the middle root x = 0 is its own
            nodes.append((s, c, -cf, sf, w01))
    c, s, cf, sf, w01 = zip(*nodes)
    return (c, s, [0.5 * math.pi * w for w in w01]), (cf, sf, [math.pi * w for w in w01])


def _axes(D: int, npoints: int) -> tuple:
    """The chart's axes theta_1..theta_n and the mu column of each chain position, in chain order.

    Axis k is (cos, sin, weight, a, b): _chart's nodes on its range and the
    cos^a sin^b that the chart's Jacobian and measure put on it.
    """
    n, even = D // 2, D % 2 == 0
    charts = _chart(npoints)
    axes = tuple((*charts[even and k == 1], 0 if even and k == 1 else 1, 2 * n + 1 - 2 * k)
                 for k in range(1, n + 1))
    return axes, (n, *range(n)) if even else tuple(range(n + 1))


def _axis_sum(cos, sin, weight, a, b) -> float:
    """One axis's sum of w * cos^a * sin^b, exponents combined before the power.

    a and b are at least 0 for every exponent >= -1 the chart admits, so a
    node near an end never raises a tiny cos or sin to a negative power.
    """
    return math.fsum(w * c ** a * s ** b for c, s, w in zip(cos, sin, weight))


def _axis_sums(D: int, alphas: tuple, npoints: int) -> list:
    """The n one-dimensional sums of one pass, the last axis first."""
    axes, columns = _axes(D, npoints)
    p = [(*alphas, 0)[c] for c in columns]  # the exponent at each chain position
    sums, after = [], p[-1]  # after: the exponent sum of the positions past axis k
    for (cos, sin, weight, a, b), pk in zip(axes[::-1], p[-2::-1]):
        sums.append(_axis_sum(cos, sin, weight, pk + a, after + b))
        after += pk
    return sums


def _product(factors: list, circles: int) -> float:
    """prod factors * (2 pi)^circles, the circle angles' factor.

    It is carried as a mantissa and a binary exponent, so no partial
    product leaves the double range.
    """
    value, exponent = 1.0, 0
    for f in factors + [2.0 * math.pi] * circles:
        value, k = math.frexp(value * f)
        exponent += k
    return math.ldexp(value, exponent)


def quad_product(D: int, alphas=(), nodes_per_axis: int = 32) -> OracleEstimate:
    """Product-rule quadrature of prod_j mu_j^(a_j) over S^D, at every D.

    alphas holds one exponent >= -1 per leading polar-radius pair; the
    radii past it have exponent 0, so () integrates the constant 1.  The
    estimate is the refined pass I(2N), the product of the axis sums
    S_k(2N).  Its error compounds the axes' refinement gaps:
    prod (S_k(2N) + |S_k(2N) - S_k(N)|) - I(2N), never less than
    |I(2N) - I(N)|, where the gaps of many axes could cancel, plus a
    roundoff floor, so a converged result never reports a zero bound.
    Raises OverflowError when even I(2N) + error is below the normal
    double range, so no estimate reads 0 +- 0.  Its argument limits are
    integrals._check_quad's for the product rule, checked before any node
    is built.
    """
    D = _check_quad(D, nodes_per_axis, grid=False)
    n, circles = D // 2, (D + 1) // 2
    alphas = _check_exponents(tuple(alphas) + (0,) * (circles - len(alphas)), circles, -1,
                              "quad_product")
    coarse = _axis_sums(D, alphas, nodes_per_axis)
    fine = _axis_sums(D, alphas, 2 * nodes_per_axis)
    value = _product(fine, circles)
    upper = _product([f + abs(f - c) for f, c in zip(fine, coarse)], circles)
    if upper < sys.float_info.min:  # an I(2N) below the range alone keeps its honest bound
        raise OverflowError("value is below the double-precision range")
    return OracleEstimate(
        value=value,
        # the roundoff floor: 1e-13, and 1e-14 more for each axis sum the
        # product compounds, as the rule's nodes carry a rounding bias of a few ulps
        error=upper - value + (1e-13 + 1e-14 * n) * value,
        samples_or_nodes=3 * nodes_per_axis * n,
    )
