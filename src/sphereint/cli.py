"""Command-line front end.

One subcommand per operation; --json switches the human rendering to a
single JSON object with a fixed field set:

    operation, inputs, exact, decimal, oracle_value, oracle_error,
    agreement_sigma, status

Keys are always present, null when not applicable.  Exit codes: 0 success,
1 usage error, 2 domain error, 3 oracle disagreement under --verify.
Usage errors are refused before any integration runs: a missing, unknown
or conflicting flag, a flag value out of range (--samples, --count and
--digits >= 1, --nodes >= 8, --seed and --kmax >= 0, --sigma finite and
> 0), a --kmax past the series caps, a --nodes past the quadrature
budget, a sample --count with count * (D+1) past 2^20 coordinates, an
integer exponent or D whose exact Gamma argument is past 25000, and an
unreadable or malformed polynomial file.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from .exactpi import BudgetError, DomainError, PiRational, to_float
from .integrals import (
    SphereDim,
    dirichlet_abs,
    dirichlet_signed,
    mu_power_integral,
    poly_integrate,
    reduction_rhs,
    sphere_volume,
)


def _oracle():
    """The oracle module, imported on first use: only the oracles need numpy."""
    from . import oracle
    return oracle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token starting like a negative number is a value, not a flag,
        # so comma lists such as "--alpha -1,0,2" parse
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits 2 on bad flags by default; 2 is reserved for domain errors
    def error(self, message):
        raise _UsageError(message)


def _bounded(kind, low, strict=False):
    """argparse type: a finite `kind` value >= low, or > low when strict."""
    def parse(text):
        value = kind(text)
        if not (low < value if strict else low <= value) or value == math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if strict else '>='} {low}, got {text}"
            )
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _number(text: str):
    """int for integer literals (exact path), float otherwise."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise _UsageError(
            f"{text!r} is not a number; write an integer like 2 for the exact "
            "path or a decimal like 0.5 for the floating path"
        )


def _number_list(raw, missing: str):
    """Numbers from repeated or comma-separated flags; usage error `missing` if none."""
    out = []
    for item in raw or []:
        for tok in item.split(","):
            tok = tok.strip()
            if tok:
                out.append(_number(tok))
    if not out:
        raise _UsageError(missing)
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="sphereint", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("volume", help="total volume of S^D")
    p.add_argument("--D", type=int, required=True)

    p = subs.add_parser("dirichlet", help="monomial integral over S^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", action="append", metavar="A[,A...]",
                   help="one exponent per coordinate; repeat or comma-separate")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--signed", action="store_true", help="integrate prod x_j^a_j")
    g.add_argument("--abs", dest="absolute", action="store_true",
                   help="integrate prod |x_j|^a_j")

    p = subs.add_parser("mu-power", help="polar-radius power integral over S^D")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--alpha", action="append", metavar="A[,A...]")

    p = subs.add_parser("reduce", help="check the sphere-within-a-sphere reduction")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--alpha", action="append", metavar="A[,A...]")

    p = subs.add_parser("fluid", help="integral of the Lorentz factor power gamma^(D+1)")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--omega", action="append", metavar="W[,W...]",
                   help="one angular velocity per rotation circle")
    p.add_argument("--series", action="store_true", help="also evaluate the truncated series")
    p.add_argument("--kmax", type=_bounded(int, 0), default=30, help="series truncation order")

    p = subs.add_parser("integrate-poly", help="integrate a polynomial file over S^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--file", required=True, help="one monomial per line: coeff e1 ... e_(n+1)")

    p = subs.add_parser("sample", help="dump uniform samples on S^D")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--count", type=_bounded(int, 1), default=10)

    for name, p in subs.choices.items():
        p.add_argument("--json", action="store_true", help="emit one JSON report object")
        p.add_argument("--digits", type=_bounded(int, 1), default=12,
                       help="significant digits in text output")
        if name in ("reduce", "sample"):  # reduce checks itself; sample has no closed value
            continue
        p.add_argument("--verify", action="store_true", help="run a brute-force oracle and compare")
        p.add_argument("--oracle", choices=("mc", "quad"), default="mc")
        p.add_argument("--seed", type=_bounded(int, 0), default=0)
        p.add_argument("--samples", type=_bounded(int, 1), default=100_000)
        p.add_argument("--nodes", type=_bounded(int, 8), default=32,
                       help="quadrature nodes per axis")
        p.add_argument("--sigma", type=_bounded(float, 0, strict=True), default=3.0,
                       help="MC disagreement threshold")
    return parser


def parse_polynomial(text: str, n: int) -> dict:
    """Parse 'coefficient e1 ... e_(n+1)' lines; # starts a comment."""
    poly = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != n + 2:
            raise ValueError(
                f"line {lineno}: expected a coefficient and {n + 1} exponents, "
                f"got {len(parts)} fields"
            )
        try:
            coeff = Fraction(parts[0])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad coefficient {parts[0]!r}; write p/q or an integer")
        try:
            exps = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: exponents must be integers")
        if any(e < 0 for e in exps):
            raise ValueError(f"line {lineno}: exponents must be >= 0")
        poly[exps] = poly.get(exps, Fraction(0)) + coeff
    if not poly:
        raise ValueError("polynomial file has no terms")
    return poly


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _sigma_of(diff: float, se: float, scale: float) -> float:
    if se > 0.0:
        return diff / se
    return 0.0 if diff <= 1e-12 * abs(scale) else math.inf


def _report(operation, inputs, closed=None, decimal=None, oracle_value=None,
            oracle_error=None, agreement_sigma=None, status="ok"):
    return {
        "operation": operation,
        "inputs": inputs,
        "exact": str(closed) if isinstance(closed, PiRational) else None,
        "decimal": decimal,
        "oracle_value": oracle_value,
        "oracle_error": oracle_error,
        "agreement_sigma": agreement_sigma,
        "status": status,
    }


def _decimal_of(value) -> float:
    return to_float(value) if isinstance(value, PiRational) else float(value)


def _headline(value, decimal: float, digits: int) -> str:
    if isinstance(value, PiRational):
        return f"{value} = {_fmt(decimal, digits)}"
    return _fmt(decimal, digits)


class _Spec:
    """A closed value and the integrands the oracles check it with.

    quad_f maps polar radii to values; a spec without it sets refusal for
    --oracle quad.  mc_f maps a PointBatch and defaults to quad_f on its
    radii.  quad_dim and quad_scale lift quad_f onto another sphere.
    refusal says why --verify cannot run.  second is the (value, error,
    sigma, status, lines) of a check the builder ran in the oracle's place,
    lines being the whole text report.  decimal is closed as a float,
    converted once.
    """

    def __init__(self, inputs: dict, closed: PiRational | float, dim: SphereDim | int,
                 quad_f=None, mc_f=None, quad_dim: SphereDim | None = None,
                 quad_scale: float = 1.0, refusal: str | None = None):
        self.inputs, self.closed, self.dim = inputs, closed, dim
        self.quad_f, self.mc_f, self.quad_dim = quad_f, mc_f, quad_dim
        self.quad_scale, self.refusal = quad_scale, refusal
        self.second = None
        self.decimal = _decimal_of(closed)


def _run(spec: _Spec, args, out) -> int:
    """Headline, optional oracle check, report and exit code for one spec."""
    decimal = spec.decimal
    lines = [_headline(spec.closed, decimal, args.digits)]
    ov = oe = sig = None
    status = "ok"
    if spec.second is not None:
        ov, oe, sig, status, lines = spec.second
    elif args.verify:
        if spec.refusal:
            raise DomainError(spec.refusal)
        spec.inputs.update(oracle=args.oracle, seed=args.seed, samples=args.samples)
        if spec.quad_f is not None:
            spec.inputs["nodes"] = args.nodes
        oracle = _oracle()
        if args.oracle == "mc":
            mc_f = spec.mc_f or (lambda b: spec.quad_f(b.mus))
            est = oracle.mc_integrate(spec.dim, mc_f, oracle.MCConfig(args.seed, args.samples))
            ov, oe = est.value, est.error
            sig = _sigma_of(abs(decimal - ov), oe, decimal)
            ok = sig <= args.sigma
        else:
            est = oracle.quad_integrate(spec.quad_dim or spec.dim, spec.quad_f, args.nodes)
            ov, oe = est.value * spec.quad_scale, est.error * abs(spec.quad_scale)
            sig = abs(decimal - ov) / oe
            ok = sig <= 1.0
        status = "ok" if ok else "disagree"
        lines += [f"oracle ({args.oracle}) = {_fmt(ov, args.digits)} +- {oe:.3g}",
                  f"agreement sigma = {sig:.3g}", f"status = {status}"]
    if args.json:
        import json

        report = _report(args.command, spec.inputs, spec.closed, decimal, ov, oe, sig, status)
        out.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        out.write("".join(line + "\n" for line in lines))
    return 0 if status == "ok" else 3


def _volume(args) -> _Spec:
    dim = SphereDim(args.D)
    # the constant 1 is the empty mu-power product
    return _Spec({"D": args.D}, sphere_volume(dim), dim,
                 lambda mus: _oracle().mu_power_values(mus, ()))


def _dirichlet(args) -> _Spec:
    alphas = _number_list(
        args.alpha, "pass --alpha, one exponent per coordinate (repeat or comma-separate)"
    )
    closed = (dirichlet_signed if args.signed else dirichlet_abs)(args.n, alphas)
    if args.n < 1:
        refusal = "oracle verification needs n >= 1; the n = 0 sphere is two points"
    elif args.oracle == "quad" and args.signed and any(a % 2 for a in alphas):
        refusal = ("quadrature verifies |x| integrands only; an odd signed case is "
                   "exactly zero, check it with --oracle mc")
    else:
        refusal = None
    lifted = tuple(a - 1 for a in alphas)
    return _Spec(
        {"n": args.n, "alpha": alphas, "mode": "signed" if args.signed else "abs"},
        closed,
        args.n,
        # quadrature route: lift to polar-radius powers a-1 on S^(2n+1)
        quad_f=lambda mus: _oracle().mu_power_values(mus, lifted),
        mc_f=lambda b: _oracle().monomial_values(b.xs, alphas, absolute=not args.signed),
        quad_dim=SphereDim(2 * args.n + 1),
        quad_scale=math.pi ** -(args.n + 1),
        refusal=refusal,
    )


def _mu_power(args) -> _Spec:
    alphas = _number_list(args.alpha, "pass --alpha, one exponent per rotation circle")
    dim = SphereDim(args.D)
    return _Spec({"D": args.D, "alpha": alphas}, mu_power_integral(dim, alphas), dim,
                 lambda mus: _oracle().mu_power_values(mus, alphas))


def _fluid(args) -> _Spec:
    from .fluid import FluidParams, fluid_closed, fluid_series, gamma_power_values

    omegas = [float(w) for w in _number_list(
        args.omega, "pass --omega, one angular velocity per rotation circle")]
    params = FluidParams(args.D, omegas)
    spec = _Spec({"D": args.D, "omega": omegas}, fluid_closed(params), params.dim,
                 lambda mus: gamma_power_values(mus, params))
    if args.series and args.verify:
        raise _UsageError("--series and --verify are separate checks; pick one per run")
    if args.series:
        res = fluid_series(params, args.kmax)
        spec.inputs.update(oracle="series", kmax=args.kmax)
        gap = abs(res.value - spec.closed) / abs(spec.closed)
        spec.second = (res.value, res.last_term_magnitude, gap, "ok", [
            _headline(spec.closed, spec.decimal, args.digits),
            f"series (kmax={args.kmax}) = {_fmt(res.value, args.digits)} "
            f"(terms={res.terms_used}, last shell={res.last_term_magnitude:.3g})",
            f"relative gap = {gap:.3g}",
        ])
    return spec


def _integrate_poly(args) -> _Spec:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            poly = parse_polynomial(fh.read(), args.n)
    except OSError as e:
        raise _UsageError(f"cannot read {args.file}: {e}")
    except ValueError as e:  # a malformed file
        raise _UsageError(str(e))
    if args.n < 1:
        refusal = "oracle verification needs n >= 1"
    elif args.oracle == "quad":
        refusal = "signed polynomials are not radii-only integrands; verify with --oracle mc"
    else:
        refusal = None
    return _Spec(
        {"n": args.n, "file": args.file, "terms": len(poly)},
        poly_integrate(args.n, poly),
        args.n,
        mc_f=lambda b: _oracle().polynomial_values(b.xs, poly),
        refusal=refusal,
    )


def _reduce(args) -> _Spec:
    alphas = _number_list(args.alpha, "pass --alpha, one exponent per rotation circle")
    dim = SphereDim(args.D)
    direct = mu_power_integral(dim, alphas)
    reduced = reduction_rhs(dim, alphas)
    spec = _Spec({"D": args.D, "alpha": alphas, "oracle": "reduction"}, direct, dim)
    reduced_decimal = _decimal_of(reduced)
    if isinstance(direct, PiRational):
        agree = direct == reduced
        sig = 0.0 if agree else math.inf
        note = "exact" if agree else "MISMATCH"
    else:
        gap = abs(spec.decimal - reduced_decimal) / max(abs(spec.decimal), 1e-300)
        agree = gap <= 1e-10
        sig = gap
        note = f"relative gap {gap:.3g}"
    status = "ok" if agree else "disagree"
    spec.second = (reduced_decimal, 0.0, sig, status, [
        f"direct:  {_headline(direct, spec.decimal, args.digits)}",
        f"reduced: {_headline(reduced, reduced_decimal, args.digits)}",
        f"agreement: {note}",
        f"status = {status}",
    ])
    return spec


# sample streams its rows, so memory does not grow with --count; the
# budget bounds the output size
_MAX_SAMPLE_VALUES = 1 << 20
_SAMPLE_BLOCK = 4096  # rows formatted per write


def _sample_blocks(dim, seed, count):
    """Blocks of (xs, mus, phis) rows as lists: sample_batch's stream and chart, one chunk held."""
    oracle = _oracle()
    # the private chunk stream: a public streaming API would be one more name for one caller
    for xs in oracle._iter_xs_chunks(dim, oracle.MCConfig(seed=seed, samples=count)):
        batch = oracle.PointBatch(dim, xs)
        for i in range(0, len(batch), _SAMPLE_BLOCK):
            rows = slice(i, i + _SAMPLE_BLOCK)
            yield zip(batch.xs[rows].tolist(), batch.mus[rows].tolist(),
                      batch.phis[rows].tolist())


def _cmd_sample(args, out):
    dim = SphereDim(args.D)
    if args.count * (dim.D + 1) > _MAX_SAMPLE_VALUES:
        raise BudgetError(
            f"sample --count {args.count} on S^{dim.D} is past the output budget: "
            f"count * (D+1) may be at most {_MAX_SAMPLE_VALUES} coordinates"
        )
    blocks = _sample_blocks(dim, args.seed, args.count)
    if args.json:
        import json

        report = _report("sample", {"D": args.D, "seed": args.seed, "count": args.count})
        report["points"] = []
        # the bytes of json.dumps(report) with every point in "points"
        head, tail = json.dumps(report, sort_keys=True).split('"points": []')
        out.write(head + '"points": [')
        sep = ""
        for block in blocks:
            points = [{"xs": x, "mus": m, "phis": p} for x, m, p in block]
            out.write(sep + json.dumps(points, sort_keys=True)[1:-1])
            sep = ", "
        out.write("]" + tail + "\n")
    else:
        header = ([f"x{i+1}" for i in range(dim.D + 1)] + [f"mu{i+1}" for i in range(dim.n_mu)]
                  + [f"phi{i+1}" for i in range(dim.n_angles)])
        out.write(",".join(header) + "\n")
        for block in blocks:
            out.write("".join(",".join(map(repr, x + m + p)) + "\n" for x, m, p in block))
    return 0


# every command but sample builds a _Spec that _run reports
_SPECS = {
    "volume": _volume,
    "dirichlet": _dirichlet,
    "mu-power": _mu_power,
    "reduce": _reduce,
    "fluid": _fluid,
    "integrate-poly": _integrate_poly,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "sample":
            return _cmd_sample(args, sys.stdout)
        return _run(_SPECS[args.command](args), args, sys.stdout)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (_UsageError, DomainError, ValueError, TypeError, OverflowError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1 if isinstance(e, (_UsageError, BudgetError)) else 2


if __name__ == "__main__":
    sys.exit(main())
