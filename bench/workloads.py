"""The seeded workloads: op generators, op bodies and their checks.

An op is (kind, args).  Its body receives the tracer first and returns
the op's relative gap (or None when the op has no value pair), or raises.
All inputs are drawn from random.Random streams keyed by the workload,
the seed and the pass index, before timing starts.

Which inputs the seed draws and which stay fixed is chosen per op class.
On cli and oracle, rel_gap_p50 is taken over the MC pairs at seed 0 (the
CLI default) only.  Their integrands are fixed, so the median does not
move with the seed, and they are the pairs whose gap a cheaper sampler
would widen.  Quadrature and series gaps are roundoff, about 1e-15: they
are checked against their bound op by op but kept out of the median,
where a reordered sum could double them.  The make-up of an
oracle pass (dimensions and integrand kinds, hence its cost) is fixed too;
the seed draws exponents, polynomials, MC seeds, rotation vectors, CLI
arguments, the exact pool, the large dimensions and the order.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import sphereint as si
from sphereint import cli as si_cli

from harness import CheckFailed

MC_SAMPLES = 100_000        # the CLI default
MC_SIGMA = 5.0              # per-op agreement threshold; 3 sigma would fail ~1 op in 370
QUAD_NODES = 32             # the CLI default
EXACT_FLOAT_TOL = 1e-12     # criterion 7
JSON_KEYS = {"operation", "inputs", "exact", "decimal", "oracle_value",
             "oracle_error", "agreement_sigma", "status"}


@dataclass
class Workload:
    name: str
    table: dict                  # kind -> body(tr, *args)
    warmup: tuple                # one op, run untimed before the timed list
    pass_ops: Callable           # pass index -> list of ops
    min_passes: int              # always run; rel_gap_p50 is taken over these
    tail_pct: float
    side: Callable = None        # tr, ops -> extra traced calls for layer metrics


def rng_for(*key) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def q_bits(v: si.PiRational) -> int:
    return v.q.numerator.bit_length() + v.q.denominator.bit_length()


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _refusal(tr, name, fn, args, exc):
    """Expected refusal: passes only when fn(*args) raises exactly the documented class."""
    try:
        tr.call(name, fn, *args, expect=(exc,))
    except exc:
        return None
    raise CheckFailed(f"{name}{args} was accepted; expected {exc.__name__}")


def _r(D: int) -> int:
    return (D + 1) // 2


# ---------------------------------------------------------------------------
# exact: closed forms only, small repeated arguments plus large unique ones


def _exact_checked(tr, v, ref_float):
    if tr.enabled:
        tr.note("exactpi.q_bits", q_bits(v))
    f = tr.call("exactpi.to_float", si.to_float, v)
    gap = rel(f, ref_float)
    _require(gap <= EXACT_FLOAT_TOL, f"exact {f!r} vs float path {ref_float!r}")
    return gap


def _reduction_equal(D, al, v):
    return si.reduction_rhs(D, al) == v


def op_mu_small(tr, D, al):
    v = tr.call("integrals.exact", si.mu_power_integral, D, al)
    g = tr.call("integrals.float", si.mu_power_float, D, al)
    gap = _exact_checked(tr, v, g)
    _require(tr.call("integrals.reduction", _reduction_equal, D, al, v),
             f"reduction_rhs({D}, {al}) differs structurally")
    return gap


def op_dirichlet_abs(tr, n, al):
    v = tr.call("integrals.exact", si.dirichlet_abs, n, al)
    g = tr.call("integrals.float", si.dirichlet_abs_float, n, al)
    return _exact_checked(tr, v, g)


def op_dirichlet_signed(tr, n, al):
    v = tr.call("integrals.exact", si.dirichlet_signed, n, al)
    if any(a % 2 for a in al):
        _require(v.is_zero, f"odd signed monomial {al} is not exactly zero")
        return None
    g = tr.call("integrals.float", si.dirichlet_abs_float, n, al)
    return _exact_checked(tr, v, g)


def op_volume(tr, D):
    v = tr.call("integrals.exact", si.sphere_volume, D)
    g = tr.call("integrals.float", si.mu_power_float, D, (0,) * _r(D))
    return _exact_checked(tr, v, g)


def op_term(tr, D, ks):
    v = tr.call("integrals.exact", si.term_integral, D, ks)
    twice = tuple(2 * k for k in ks)
    w = tr.call("integrals.exact", si.mu_power_integral, D, twice)
    _require(v == w, f"term_integral({D}, {ks}) != mu_power_integral")
    g = tr.call("integrals.float", si.mu_power_float, D, twice)
    return _exact_checked(tr, v, g)


def _poly_float(n, poly):
    return math.fsum(float(c) * si.dirichlet_abs_float(n, e)
                     for e, c in poly.items() if not any(x % 2 for x in e))


def op_poly(tr, n, poly):
    v = tr.call("oracle.poly_integrate", si.poly_integrate, n, poly)
    g = tr.call("integrals.float", _poly_float, n, poly)
    if g == 0.0:
        _require(v.is_zero, "odd polynomial is not exactly zero")
        return None
    return _exact_checked(tr, v, g)


def _log_mu_power(D, al):
    """log of the mu-power closed form from math.lgamma, kept in the benchmark."""
    terms = [math.log(2.0), 0.5 * (D + 1) * math.log(math.pi)]
    terms += [math.lgamma(1.0 + a / 2.0) for a in al]
    terms.append(-math.lgamma((D + 1 + sum(al)) / 2.0))
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def op_mu_large(tr, D, al):
    # Large D underflows the double range, so the check is done on the log.
    v = tr.call("integrals.exact_large", si.mu_power_integral, D, al)
    if tr.enabled:
        tr.note("exactpi.q_bits", q_bits(v))
    _require(v.q > 0, "mu-power integral is not positive")
    log_v = math.log(v.q.numerator) - math.log(v.q.denominator) + 0.5 * v.m * math.log(math.pi)
    ref, scale = _log_mu_power(D, al)
    _require(abs(log_v - ref) <= 64 * 2.0 ** -52 * scale,
             f"log of exact value {log_v!r} vs log-Gamma {ref!r}")
    return None


def op_refuse(tr, name, args):
    fn = {"mu_power_integral": si.mu_power_integral, "gamma_half": si.gamma_half,
          "sphere_volume": si.sphere_volume, "dirichlet_abs": si.dirichlet_abs}[name]
    layer = "exactpi." if name == "gamma_half" else "integrals."
    return _refusal(tr, layer + name, fn, args, si.DomainError)


EXACT_TABLE = {
    "mu_small": op_mu_small, "dirichlet_abs": op_dirichlet_abs,
    "dirichlet_signed": op_dirichlet_signed, "volume": op_volume, "term": op_term,
    "poly": op_poly, "mu_large": op_mu_large, "refuse": op_refuse,
}


def _small_poly(rng, n, terms, odd=True):
    exps = (0, 0, 2, 2, 4, 1) if odd else (0, 0, 2, 2, 4)
    poly = {}
    for _ in range(terms):
        e = tuple(rng.choice(exps) for _ in range(n + 1))
        poly[e] = poly.get(e, Fraction(0)) + Fraction(rng.randint(1, 9), rng.randint(1, 7))
    return poly


def exact_workload(seed: int, smoke: bool) -> Workload:
    rng = rng_for("exact", seed, "pool")
    counts = dict(mu_small=3000, dirichlet_abs=600, dirichlet_signed=300, volume=200,
                  term=300, poly=300, refuse=60)
    if smoke:
        counts = {key: 2 for key in counts}
    pool = []
    for _ in range(counts["mu_small"]):
        D = rng.randint(1, 12)
        pool.append(("mu_small", (D, tuple(rng.randint(-1, 6) for _ in range(_r(D))))))
    for _ in range(counts["dirichlet_abs"]):
        n = rng.randint(0, 10)
        pool.append(("dirichlet_abs", (n, tuple(rng.randint(0, 6) for _ in range(n + 1)))))
    for i in range(counts["dirichlet_signed"]):
        n = rng.randint(1, 8)
        al = [rng.randint(0, 6) for _ in range(n + 1)]
        if i % 2 == 0:              # half of them even, so they have a value to check
            al = [a - a % 2 for a in al]
        pool.append(("dirichlet_signed", (n, tuple(al))))
    for _ in range(counts["volume"]):
        pool.append(("volume", (rng.randint(1, 60),)))
    for _ in range(counts["term"]):
        D = rng.randint(1, 12)
        pool.append(("term", (D, tuple(rng.randint(0, 5) for _ in range(_r(D))))))
    for _ in range(counts["poly"]):
        n = rng.randint(1, 4)
        pool.append(("poly", (n, _small_poly(rng, n, rng.randint(2, 5)))))
    refusals = ("mu_power_integral", "gamma_half", "sphere_volume", "dirichlet_abs")
    for i in range(counts["refuse"]):
        name = refusals[i % len(refusals)]
        if name == "mu_power_integral":
            D = rng.randint(1, 12)
            al = [rng.randint(0, 4) for _ in range(_r(D))]
            al[rng.randrange(len(al))] = -2
            args = (D, tuple(al))
        elif name == "gamma_half":
            args = (Fraction(-rng.randint(0, 10), rng.choice((1, 2))),)
        elif name == "sphere_volume":
            args = (rng.randint(-3, 0),)
        else:
            n = rng.randint(1, 5)
            args = (n, tuple([-1] + [rng.randint(0, 3) for _ in range(n)]))
        pool.append(("refuse", (name, args)))
    rng.shuffle(pool)

    # Large dimensions are unique across the whole run: a walk through a
    # seeded permutation of 200..2001.
    large_per_pass = 1 if smoke else 40
    dims = list(range(200, 2002, 2 if smoke else 1))
    rng.shuffle(dims)
    pos = [rng.randrange(len(pool) + 1) for _ in range(large_per_pass)]
    pos.sort()

    def pass_ops(p):
        ops = []
        last = 0
        for j, at in enumerate(pos):
            D = dims[(p * large_per_pass + j) % len(dims)]
            lr = rng_for("exact", seed, "large", p, j)
            ops += pool[last:at]
            ops.append(("mu_large", (D, tuple(lr.randint(-1, 6) for _ in range(_r(D))))))
            last = at
        ops += pool[last:]
        return ops

    def side(tr, ops):
        # gamma_half at the half-integer arguments the small mu-power ops need
        for kind, args in ops:
            if kind == "mu_small":
                D, al = args
                for a in al:
                    tr.call("exactpi.gamma_half", si.gamma_half, Fraction(2 + a, 2))
                tr.call("exactpi.gamma_half", si.gamma_half, Fraction(D + 1 + sum(al), 2))

    return Workload("exact", EXACT_TABLE, ("mu_small", (8, (2, 0, -1, 3))), pass_ops,
                    min_passes=1, tail_pct=0.999 if not smoke else 0.9, side=side)


# ---------------------------------------------------------------------------
# oracle: closed form, one oracle, the agreement test


def _closed_and_integrands(tr, D, kind, params):
    """Closed value plus (MC integrand on PointBatch, quad integrand on mus)."""
    if kind == "mu":
        al = params
        v = tr.call("integrals.exact", si.mu_power_integral, D, al)
        closed = tr.call("exactpi.to_float", si.to_float, v) if isinstance(v, si.PiRational) else v
        return closed, (lambda b: si.mu_power_values(b.mus, al)), (lambda m: si.mu_power_values(m, al))
    if kind == "absx":
        al = params
        v = tr.call("integrals.exact", si.dirichlet_abs, D, al)
        closed = tr.call("exactpi.to_float", si.to_float, v) if isinstance(v, si.PiRational) else v
        return closed, (lambda b: si.monomial_values(b.xs, al, True)), None
    if kind == "poly":
        v = tr.call("oracle.poly_integrate", si.poly_integrate, D, params)
        closed = tr.call("exactpi.to_float", si.to_float, v)
        return closed, (lambda b: si.polynomial_values(b.xs, params)), None
    if kind == "fluid":
        fp = si.FluidParams(D, params)
        closed = tr.call("fluid.closed", si.fluid_closed, fp)

        def gpv(mus):
            return tr.call("fluid.gamma_power_values", si.gamma_power_values, mus, fp)
        return closed, (lambda b: gpv(b.mus)), gpv
    raise ValueError(kind)


def op_mc(tr, D, kind, params, seed):
    closed, f, _ = _closed_and_integrands(tr, D, kind, params)
    est = tr.call("oracle.mc", si.mc_integrate, D, tr.wrap("oracle.mc.integrand", f),
                  si.MCConfig(seed, MC_SAMPLES))
    tr.count("oracle.mc.samples", est.samples_or_nodes)
    diff = abs(est.value - closed)
    # a constant integrand has a zero standard error; then only roundoff may remain
    _require(diff <= MC_SIGMA * est.error or diff <= 1e-12 * abs(closed),
             f"MC {est.value!r} +- {est.error:.3g} vs closed {closed!r}")
    # only the shared seed-0 stream has a fixed gap; fresh seeds move it with the seed
    return rel(est.value, closed) if seed == 0 else None


def op_quad(tr, D, kind, params):
    if kind == "absx_lift":
        # |x| monomial on S^n lifted to a mu-power on S^(2n+1), as the CLI does
        n, al = D, params
        v = tr.call("integrals.exact", si.dirichlet_abs, n, al)
        closed = tr.call("exactpi.to_float", si.to_float, v) if isinstance(v, si.PiRational) else v
        lifted = tuple(a - 1 for a in al)
        qdim, scale = 2 * n + 1, math.pi ** -(n + 1)
        g = lambda m: si.mu_power_values(m, lifted)  # noqa: E731
    else:
        closed, _, g = _closed_and_integrands(tr, D, kind, params)
        qdim, scale = D, 1.0
    est = tr.call("oracle.quad", si.quad_integrate, qdim, tr.wrap("oracle.quad.integrand", g),
                  QUAD_NODES)
    tr.count("oracle.quad.nodes", est.samples_or_nodes)
    value, bound = est.value * scale, est.error * scale
    _require(abs(value - closed) <= bound,
             f"quad {value!r} +- {bound:.3g} vs closed {closed!r}")
    return None


ORACLE_TABLE = {"mc": op_mc, "quad": op_quad}

# The MC ops that reuse seed 0 at D = 5 share one sample stream.  Their
# integrands are a fixed list, so their gaps, which set rel_gap_p50 here,
# do not move with the seed.
SHARED_D = 5
SHARED_MC = [
    ("mu", (2, 0, 0)), ("mu", (0, 2, 0)), ("mu", (1, 1, 1)), ("mu", (4, 0, 0)),
    ("mu", (2, 2, 0)), ("mu", (0, 0, 4)), ("mu", (3, 1, 0)),
    ("absx", (2, 0, 0, 0, 0, 0)), ("absx", (1, 1, 0, 0, 0, 0)), ("absx", (0, 0, 2, 2, 0, 0)),
    ("poly", {(2, 2, 0, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0, 0, 0): Fraction(3)}),
    ("poly", {(4, 0, 0, 0, 0, 0): Fraction(2), (0, 2, 0, 0, 2, 0): Fraction(5, 3)}),
    ("fluid", (0.3, 0.2, 0.4)), ("fluid", (0.5, 0.1, 0.2)),
]


def _mc_integrand(rng, D, kind):
    if kind == "mu":
        return kind, tuple(rng.randint(0, 4) for _ in range(_r(D)))
    if kind == "absx":
        return kind, tuple(rng.randint(0, 3) for _ in range(D + 1))
    if kind == "poly":
        return kind, _small_poly(rng, D, 2, odd=False)
    return kind, tuple(round(rng.uniform(0.0, 0.6), 3) for _ in range(_r(D)))


# MC ops with distinct seeds: the dimension and integrand kind of each slot
# are fixed, so the cost of a pass does not move with the seed; exponents,
# rotation vectors, polynomials and the MC seed are drawn.
DISTINCT_MC = [(3, "mu"), (4, "absx"), (5, "poly"), (6, "fluid"), (7, "mu"), (8, "absx"),
               (9, "fluid"), (9, "mu")]

# Quadrature ops at D <= 7 (for absx_lift the first entry is n and the grid
# is on S^(2n+1)).
QUAD_FIXED = [
    (2, "mu", (2,)), (2, "mu", (-1,)), (2, "mu", (0.5,)), (3, "mu", (2, 0)), (3, "mu", (-1, 3)),
    (3, "mu", (1.5, 0.5)), (4, "mu", (4, 1)), (4, "mu", (0, -1)), (4, "mu", (2.5, 1)),
    (5, "mu", (2, 0, -1)), (5, "mu", (1, 1, 1)), (5, "mu", (0.5, 3, 0)), (6, "mu", (2, 2, 0)),
    (6, "mu", (-1, 0, 4)), (6, "mu", (1.5, 0, 1)), (7, "mu", (2, 0, 1, 1)),
    (7, "mu", (0, -1, 2, 0)), (7, "mu", (3, 0.5, 0, 1)),
    (1, "absx_lift", (2, 0)), (1, "absx_lift", (0.5, 3)), (2, "absx_lift", (0.5, 0, 0)),
    (2, "absx_lift", (2, 2, 1)), (3, "absx_lift", (1, 0, 2, 0)), (3, "absx_lift", (0, 0.5, 0, 2)),
    (2, "fluid", (0.6,)), (3, "fluid", (0.3, 0.5)), (4, "fluid", (0.45, 0.2)),
    (5, "fluid", (0.6, 0.1, 0.3)), (6, "fluid", (0.2, 0.5, 0.4)), (7, "fluid", (0.3, 0.3, 0.6, 0.1)),
]
# Two 17.8 M-node grids per pass.
QUAD_BIG = [(8, "mu", (2, 0, 1, 1)), (9, "mu", (2, 0, 1, 1, 0))]


def oracle_workload(seed: int, smoke: bool) -> Workload:
    n_shared, n_distinct, quads = (2, 2, QUAD_FIXED[::10]) if smoke else (8, 8, QUAD_FIXED)

    def pass_ops(p):
        rng = rng_for("oracle", seed, p)
        ops = [("mc", (SHARED_D, kind, params, 0)) for kind, params in SHARED_MC[:n_shared]]
        for D, kind in DISTINCT_MC[:n_distinct]:
            kind, params = _mc_integrand(rng, D, kind)
            ops.append(("mc", (D, kind, params, rng.randrange(1, 2 ** 31))))
        ops += [("quad", q) for q in quads]
        if not smoke:
            ops += [("quad", q) for q in QUAD_BIG]
        rng.shuffle(ops)
        return ops

    def side(tr, ops):
        for kind, args in ops:
            if kind == "mc":
                D, _, _, s = args
                tr.call("oracle.sample_batch", si.sample_batch, D, si.MCConfig(s, MC_SAMPLES))

    return Workload("oracle", ORACLE_TABLE, ("mc", (SHARED_D,) + SHARED_MC[0] + (0,)),
                    pass_ops, min_passes=1 if smoke else 4, tail_pct=0.925, side=side)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m sphereint` process per op


@dataclass
class CliContext:
    python: str
    root: str
    env: dict
    workdir: str                 # relative to root; poly files live here


def _run_cli(ctx: CliContext, argv):
    p = subprocess.Popen([ctx.python, "-m", "sphereint", *argv], cwd=ctx.root, env=ctx.env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise
    return p.returncode, out, err


def _headline_value(line: str) -> float:
    return float(line.rsplit("=", 1)[-1])


def _check_cli(check, data, out: bytes):
    text = out.decode()
    if check == "text":             # headline only, printed at 12 significant digits
        lines = text.splitlines()
        got = _headline_value(lines[0])
        _require(got == data if data == 0.0 else rel(got, data) <= 1e-11,
                 f"headline {lines[0]!r} vs reference {data!r}")
        return None
    if check == "reduce":
        _require("agreement: exact" in text and text.endswith("status = ok\n"),
                 f"reduce report {text!r}")
        return None
    if check == "sample_text":
        D, count = data
        rows = text.splitlines()
        _require(len(rows) == count + 1, f"sample printed {len(rows)} lines")
        for row in rows[1:]:
            vals = [float(v) for v in row.split(",")]
            _require(abs(math.fsum(x * x for x in vals[:D + 1]) - 1.0) <= 1e-12, "point off the sphere")
        return None
    rep = json.loads(text)
    if check == "sample_json":
        D, count = data
        _require(len(rep["points"]) == count, "sample --json point count")
        for pt in rep["points"]:
            _require(abs(math.fsum(x * x for x in pt["xs"]) - 1.0) <= 1e-12, "point off the sphere")
        return None
    _require(set(rep) == JSON_KEYS, f"JSON keys {sorted(rep)}")
    if check == "json":
        _require(rep["decimal"] == data if data == 0.0 else rel(rep["decimal"], data) <= EXACT_FLOAT_TOL,
                 f"decimal {rep['decimal']!r} vs reference {data!r}")
        return None
    # "pair" and "roundoff_pair": verify or series reports of a value pair
    _require(rep["status"] == "ok", f"status {rep['status']!r}")
    _require(rel(rep["decimal"], data) <= EXACT_FLOAT_TOL, "closed value vs reference")
    return rel(rep["oracle_value"], rep["decimal"]) if check == "pair" else None


def op_cli(ctx, tr, argv, code, check, data):
    rc, out, err = tr.call("cli.process", _run_cli, ctx, argv)
    tr.count("cli.stdout_bytes", len(out))
    if rc != code:
        tr.count("cli.errors")
        raise CheckFailed(f"exit {rc}, expected {code}: {err.decode(errors='replace')[-300:]}")
    if check == "refuse":
        _require(out == b"" and err.startswith(b"error:"), "refusal printed to stdout")
        return None
    try:
        return _check_cli(check, data, out)
    except (CheckFailed, ValueError, KeyError, IndexError):
        tr.count("cli.errors")
        raise


def _alpha(vals):
    """Comma list for --flag=LIST.

    Seeded lists use the "=" form: argparse reads "--alpha -1,2" as a flag
    followed by an unknown option and exits 1, so a list whose first value
    is negative needs it.
    """
    return ",".join(str(a) for a in vals)


README_POLY = "# x^2 y^2 plus 3 on S^2\n1/2 2 2 0\n3 0 0 0\n"


def cli_workload(seed: int, smoke: bool, ctx: CliContext) -> Workload:
    rng = rng_for("cli", seed)
    wd = ctx.workdir
    os.makedirs(os.path.join(ctx.root, wd), exist_ok=True)

    def write_poly(name, text):
        with open(os.path.join(ctx.root, wd, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return f"{wd}/{name}"

    def poly_file(name):
        n = rng.randint(1, 3)
        poly = _small_poly(rng, n, rng.randint(2, 4))
        body = "".join(f"{c} {' '.join(map(str, e))}\n" for e, c in sorted(poly.items()))
        return n, write_poly(name, body), _poly_float(n, poly)

    def mu_args():
        D = rng.randint(1, 9)
        return D, tuple(rng.randint(-1, 5) for _ in range(_r(D)))

    ops = []
    for fmt in ("text", "json"):
        D = rng.randint(1, 12)
        argv = ["volume", "--D", str(D)] + (["--json"] if fmt == "json" else [])
        ops.append(("cli", (argv, 0, fmt, si.mu_power_float(D, (0,) * _r(D)))))
    n = rng.randint(1, 5)
    al = tuple(2 * rng.randint(0, 3) for _ in range(n + 1))
    ops.append(("cli", (["dirichlet", "--n", str(n), f"--alpha={_alpha(al)}", "--signed", "--json"],
                        0, "json", si.dirichlet_abs_float(n, al))))
    n = rng.randint(1, 5)
    al = tuple(rng.randint(0, 5) for _ in range(n + 1))
    ops.append(("cli", (["dirichlet", "--n", str(n), f"--alpha={_alpha(al)}", "--abs"],
                        0, "text", si.dirichlet_abs_float(n, al))))
    D, al = mu_args()
    ops.append(("cli", (["mu-power", "--D", str(D), f"--alpha={_alpha(al)}", "--json"],
                        0, "json", si.mu_power_float(D, al))))
    D, al = mu_args()
    ops.append(("cli", (["reduce", "--D", str(D), f"--alpha={_alpha(al)}"], 0, "reduce", None)))
    D = rng.randint(1, 8)
    w = tuple(round(rng.uniform(-0.8, 0.8), 3) for _ in range(_r(D)))
    ref = si.mu_power_float(D, (0,) * _r(D)) / math.prod(1.0 - x * x for x in w)
    ops.append(("cli", (["fluid", "--D", str(D), f"--omega={_alpha(w)}", "--json"], 0, "json", ref)))
    for i, fmt in enumerate(("text", "json")):
        n, path, ref = poly_file(f"p{i}.poly")
        argv = ["integrate-poly", "--n", str(n), "--file", path] + (["--json"] if fmt == "json" else [])
        ops.append(("cli", (argv, 0, fmt, ref)))
    # The commands that report a value pair run with the README's fixed
    # arguments.  rel_gap_p50 here is the median of the two MC pairs (seed 0,
    # the default), so it is the same for every seed.
    readme = write_poly("norm.poly", README_POLY)
    ops += [
        ("cli", (["mu-power", "--D", "5", "--alpha", "2,0,-1", "--verify", "--json"], 0, "pair",
                 si.mu_power_float(5, (2, 0, -1)))),
        ("cli", (["dirichlet", "--n", "2", "--alpha", "0.5,0,0", "--abs", "--verify", "--oracle",
                  "quad", "--json"], 0, "roundoff_pair", si.dirichlet_abs_float(2, (0.5, 0, 0)))),
        ("cli", (["mu-power", "--D", "7", "--alpha", "2,0,1,1", "--verify", "--oracle", "quad",
                  "--json"], 0, "roundoff_pair", si.mu_power_float(7, (2, 0, 1, 1)))),
        ("cli", (["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "30", "--json"],
                 0, "roundoff_pair", si.mu_power_float(3, (0, 0)) / (0.91 * 0.84))),
        ("cli", (["integrate-poly", "--n", "2", "--file", readme, "--verify", "--json"], 0, "pair",
                 0.5 * si.dirichlet_abs_float(2, (2, 2, 0)) + 3 * si.dirichlet_abs_float(2, (0, 0, 0)))),
    ]
    for fmt in ("sample_text", "sample_json"):
        D, s = rng.randint(1, 9), rng.randint(0, 10 ** 6)
        argv = ["sample", "--D", str(D), "--seed", str(s), "--count", "100"]
        ops.append(("cli", (argv + (["--json"] if fmt == "sample_json" else []), 0, fmt, (D, 100))))
    D = rng.randint(1, 6)
    ops += [
        ("cli", (["volume", "--D", "0"], 2, "refuse", None)),
        ("cli", (["fluid", "--D", str(D), f"--omega={_alpha((1,) + (0.2,) * (_r(D) - 1))}", "--json"],
                 2, "refuse", None)),
        ("cli", (["mu-power", "--D", str(rng.randint(1, 9))], 1, "refuse", None)),
        ("cli", (["volume", "--D", "4", "--bogus"], 1, "refuse", None)),
    ]
    if smoke:
        ops = ops[1::4]             # keeps one MC pair, for rel_gap_p50
    rng.shuffle(ops)

    def side(tr, ops):
        # the same commands in-process, plus sample_batch on the sample configs
        for _, (argv, code, check, data) in ops:
            rc, out = tr.call("cli.main", main_captured, argv)
            if rc != code:
                tr.count("cli.errors")
            if check.startswith("sample"):
                D, count = data
                s = int(argv[argv.index("--seed") + 1])
                tr.call("oracle.sample_batch", si.sample_batch, D, si.MCConfig(s, count))

    table = {"cli": lambda tr, *a: op_cli(ctx, tr, *a)}
    return Workload("cli", table, None, lambda p: ops, min_passes=1 if smoke else 3,
                    tail_pct=0.80, side=side)


def main_captured(argv):
    """sphereint.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = si_cli.main(list(argv))
    return rc, out.getvalue()
