"""Command-line front end.

One subcommand per operation; --json switches the human rendering to a
single JSON object with a fixed field set:

    operation, inputs, exact, decimal, oracle_value, oracle_error,
    agreement_sigma, status

Keys are always present, null when not applicable.  Exit codes: 0 success,
1 usage error or an unwritable stdout, 2 domain error, 3 oracle
disagreement under --verify.
Every input limit is refused before any integration runs; README's
"Limits" table lists each one with the constant that holds it.
--verify is a domain error (exit 2) on the n = 0 sphere, and --oracle quad
is one for integrate-poly and odd signed dirichlet exponents, whose
integrands are not radii-only.  Only Monte Carlo, the fluid quadrature and
sample load numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction

from .exactpi import BudgetError, DomainError, PiRational, to_float
from .integrals import (_FLOAT_MAX_REL_ERR, _MIN_QUAD_NODES, _check_D, _check_quad,
                        dirichlet_abs, dirichlet_signed, mu_power_integral, poly_integrate,
                        reduction_rhs, sphere_volume)


def _oracle():
    """The numpy oracle module, imported on first use."""
    try:
        from . import oracle
    except ImportError as e:  # the exact path runs without numpy; a refusal, not a traceback
        raise _UsageError(f"--verify and sample need numpy for Monte Carlo, the fluid quadrature "
                          f"and sampling, and it did not import: {e}")
    return oracle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token starting like a negative number is a value, not a flag,
        # so comma lists such as "--alpha -1,0,2" and "--omega -inf,0.1" parse
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits 2 on bad flags by default; 2 is reserved for domain errors
    def error(self, message):
        raise _UsageError(message)

    # argparse drops an OSError from writing --help; main reports it instead
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


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


def build_parser(command: str | None = None) -> _Parser:
    """The CLI parser; given a command name, only that subcommand gets its arguments.

    Every subcommand is registered either way, so the usage, the command
    list and an invalid choice read the same.
    """
    parser = _Parser(prog="sphereint", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, help, check=True, dim=True):
        """The subparser of name with its shared flags, or None when it is not built."""
        p = subs.add_parser(name, help=help)
        if command not in (None, name):
            return None
        # output flags for every command; oracle flags for the five that check a
        # closed value (reduce checks itself, sample has no closed value)
        p.add_argument("--json", action="store_true", help="emit one JSON report object")
        p.add_argument("--digits", type=_bounded(int, 1), default=12,
                       help="significant digits in text output")
        if check:
            p.add_argument("--verify", action="store_true",
                           help="run a brute-force oracle and compare")
            p.add_argument("--oracle", choices=("mc", "quad"), default="mc")
            p.add_argument("--seed", type=_bounded(int, 0), default=0)
            p.add_argument("--samples", type=_bounded(int, 1), default=100_000)
            p.add_argument("--nodes", type=_bounded(int, _MIN_QUAD_NODES), default=32,
                           help="quadrature nodes per axis")
            p.add_argument("--sigma", type=_bounded(float, 0, strict=True), default=3.0,
                           help="MC disagreement threshold")
        if dim:  # the sphere dimension of the five commands on S^D
            p.add_argument("--D", type=int, required=True)
        return p

    sub("volume", "total volume of S^D")

    p = sub("dirichlet", "monomial integral over S^n", dim=False)
    if p:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", action="append", metavar="A[,A...]",
                       help="one exponent per coordinate; repeat or comma-separate")
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--signed", action="store_true", help="integrate prod x_j^a_j")
        g.add_argument("--abs", dest="absolute", action="store_true",
                       help="integrate prod |x_j|^a_j")

    p = sub("mu-power", "polar-radius power integral over S^D")
    if p:
        p.add_argument("--alpha", action="append", metavar="A[,A...]")

    p = sub("reduce", "check the sphere-within-a-sphere reduction", check=False)
    if p:
        p.add_argument("--alpha", action="append", metavar="A[,A...]")

    p = sub("fluid", "integral of the Lorentz factor power gamma^(D+1)")
    if p:
        p.add_argument("--omega", action="append", metavar="W[,W...]",
                       help="one angular velocity per rotation circle")
        p.add_argument("--series", action="store_true",
                       help="also evaluate the truncated series")
        p.add_argument("--kmax", type=_bounded(int, 0), default=30,
                       help="series truncation order")

    p = sub("integrate-poly", "integrate a polynomial file over S^n", dim=False)
    if p:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--file", required=True,
                       help="one monomial per line: coeff e1 ... e_(n+1)")

    p = sub("sample", "dump uniform samples on S^D", check=False)
    if p:
        p.add_argument("--seed", type=_bounded(int, 0), default=0)
        p.add_argument("--count", type=_bounded(int, 1), default=10)
    return parser


# Fraction writes a decimal exponent out as a whole integer ("1e1000000000"
# would run for minutes); past this bound, Python's default limit on the
# digits of an integer literal, a coefficient is refused before it is built
_MAX_COEFF_EXPONENT = 4300


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
        exponent = parts[0].lower().partition("e")[2]
        try:
            big = bool(exponent) and abs(int(exponent)) > _MAX_COEFF_EXPONENT
            coeff = None if big else Fraction(parts[0])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad coefficient {parts[0]!r}; write p/q or an integer")
        if big:
            raise ValueError(f"line {lineno}: coefficient {parts[0]!r} has a decimal exponent "
                             f"past +-{_MAX_COEFF_EXPONENT}")
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
    # a double's exact decimal expansion has at most 767 significant digits,
    # so any larger precision prints the same text; format refuses 2^31 and up
    return f"{value:.{min(digits, 767)}g}"


# a relative gap at rounding level: below it, two doubles agree
_ROUNDOFF = 1e-12


def _sigma_of(diff: float, se: float, scale: float) -> float:
    # an error at rounding level (a constant integrand) measures no spread:
    # dividing a rounding gap by it would read as a disagreement
    tol = _ROUNDOFF * abs(scale)
    if se > tol:
        return diff / se
    return 0.0 if diff <= tol else math.inf


def _report(operation, inputs, closed=None, decimal=None, oracle_value=None,
            oracle_error=None, agreement_sigma=None, status="ok"):
    return {
        "operation": operation,
        "inputs": inputs,
        "exact": str(closed) if isinstance(closed, PiRational) else None,
        "decimal": decimal,
        "oracle_value": oracle_value,
        # JSON has no Infinity: an unbounded error and an infinite sigma say null
        "oracle_error": oracle_error if oracle_error != math.inf else None,
        "agreement_sigma": agreement_sigma if agreement_sigma != math.inf else None,
        "status": status,
    }


def _shown(value, digits: int) -> tuple:
    """A closed value's decimal and its headline, "exact = decimal" or the decimal alone."""
    if isinstance(value, PiRational):
        decimal = to_float(value)
        return decimal, f"{value} = {_fmt(decimal, digits)}"
    return float(value), _fmt(float(value), digits)


def _write(args, inputs, closed, decimal, lines, oracle_value=None, oracle_error=None,
           sigma=None, limit=None) -> int:
    """Print the text lines or the --json report; a check's sigma past its limit exits 3."""
    status = "ok" if sigma is None or sigma <= limit else "disagree"
    if sigma is not None:
        lines = [*lines, f"status = {status}"]
    if args.json:
        import json

        report = _report(args.command, inputs, closed, decimal, oracle_value, oracle_error,
                         sigma, status)
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    return 0 if status == "ok" else 3


# the MC oracle's time grows with its samples * (D+1) coordinates, times the
# term count of a polynomial integrand, which makes one pass per term; at
# this budget the slowest accepted check runs for a few seconds
_MAX_MC_VALUES = 10**8


def _closed(args, inputs, closed, D, quad=None, mc_f=None, terms=None) -> int:
    """Report a closed value on S^D, checked under --verify by an MC or quadrature oracle.

    --verify refuses D < 1 (the n = 0 sphere is two points) and refuses
    --oracle quad when no quad is given, so quadrature runs only with one.
    quad is (sphere, integrand, scale): quadrature integrates the
    integrand over the polar radii of S^sphere, times scale.  A mu-power
    product's integrand is its exponent tuple, integrated by the numpy-free
    product rule at every D; any other is a function of the radii, which
    only the tensor grid integrates.  mc_f maps a PointBatch on S^D and
    defaults to quad's integrand on its radii.  terms is a polynomial's
    term count, which the Monte Carlo budget multiplies in.
    """
    decimal, headline = _shown(closed, args.digits)
    lines = [headline]
    if not args.verify:
        return _write(args, inputs, closed, decimal, lines)
    if D < 1:
        raise DomainError("oracle verification needs n >= 1; the n = 0 sphere is two points")
    inputs.update(oracle=args.oracle, seed=args.seed, samples=args.samples)
    if quad:
        inputs["nodes"] = args.nodes
        sphere, integrand, scale = quad
    if args.oracle == "quad":
        if not quad:
            raise DomainError(f"{args.command} integrands are not radii-only, so quadrature "
                              "cannot check them; verify with --oracle mc")
        if callable(integrand):
            _check_quad(sphere, args.nodes)  # before numpy loads
            est = _oracle().quad_integrate(sphere, integrand, args.nodes)
        else:
            from .prodquad import quad_product

            est = quad_product(sphere, integrand, args.nodes)
        value, error = est.value * scale, est.error * scale
        sigma, limit = abs(decimal - value) / error, 1.0
    else:
        if args.samples < _MIN_MC_SAMPLES:
            raise _UsageError(f"--samples {args.samples} is below the Monte Carlo floor of "
                              f"{_MIN_MC_SAMPLES}: fewer samples give no honest error bar")
        if args.samples * (D + 1) * (terms or 1) > _MAX_MC_VALUES:
            work = "samples * (D+1)" if terms is None else f"samples * (D+1) * {terms} terms"
            raise BudgetError(
                f"--samples {args.samples} on S^{D} is past the Monte Carlo budget: "
                f"{work} may be at most {_MAX_MC_VALUES} coordinates"
            )
        oracle = _oracle()
        if mc_f is None:  # quad's integrand on the sampled radii
            mc_f = ((lambda b: integrand(b.mus)) if callable(integrand)
                    else (lambda b: oracle.monomial_values(b.mus, integrand)))
        est = oracle.mc_integrate(D, mc_f, oracle.MCConfig(args.seed, args.samples))
        value, error = est.value, est.error
        sigma, limit = _sigma_of(abs(decimal - value), error, decimal), args.sigma
    lines += [f"oracle ({args.oracle}) = {_fmt(value, args.digits)} +- {error:.3g}",
              f"agreement sigma = {sigma:.3g}"]
    return _write(args, inputs, closed, decimal, lines, value, error, sigma, limit)


def _volume(args) -> int:
    # the constant 1 is the empty mu-power product
    return _closed(args, {"D": args.D}, sphere_volume(args.D), args.D, (args.D, (), 1.0))


def _dirichlet(args) -> int:
    alphas = _number_list(
        args.alpha, "pass --alpha, one exponent per coordinate (repeat or comma-separate)"
    )
    closed = (dirichlet_signed if args.signed else dirichlet_abs)(args.n, alphas)
    # n < 1 is _closed's refusal, so it wins over this one
    if (args.verify and args.oracle == "quad" and args.signed and args.n >= 1
            and any(a % 2 for a in alphas)):
        raise DomainError("quadrature verifies |x| integrands only; an odd signed case is "
                          "exactly zero, check it with --oracle mc")
    return _closed(
        args,
        {"n": args.n, "alpha": alphas, "mode": "signed" if args.signed else "abs"},
        closed,
        args.n,
        # quadrature route: lift to polar-radius powers a-1 on S^(2n+1)
        (2 * args.n + 1, tuple(a - 1 for a in alphas), math.pi ** -(args.n + 1)),
        mc_f=lambda b: _oracle().monomial_values(b.xs, alphas, absolute=not args.signed),
    )


def _mu_power(args) -> int:
    alphas = _number_list(args.alpha, "pass --alpha, one exponent per rotation circle")
    return _closed(args, {"D": args.D, "alpha": alphas}, mu_power_integral(args.D, alphas),
                   args.D, (args.D, tuple(alphas), 1.0))


# Monte Carlo on gamma^(D+1) <= F = (1 - max w^2)^(-(D+1)/2): as the mean is
# >= 1, its relative standard error is at most sqrt((F - 1) / samples), and
# past this bound the samples rarely reach the peak that holds the mass
_MAX_FLUID_MC_REL_ERR = 0.1
# below this many samples the standard error is too noisy for a sigma verdict:
# at 2, 3, 5 and 10 samples a correct pi^2 disagreed for 27, 11, 8 and 4 of 100
# seeds.  The Monte Carlo calibration table holds its bound at the floor
_MIN_MC_SAMPLES = 1000


def _fluid(args) -> int:
    from .fluid import FluidParams, fluid_closed, fluid_series, gamma_power_values

    omegas = [float(w) for w in _number_list(
        args.omega, "pass --omega, one angular velocity per rotation circle")]
    params = FluidParams(args.D, omegas)
    closed = fluid_closed(params)  # a float, so it is its own decimal
    if args.series and args.verify:
        raise _UsageError("--series and --verify are separate checks; pick one per run")
    inputs = {"D": args.D, "omega": omegas}
    if not args.series:
        if args.verify and args.oracle == "mc" and args.samples >= _MIN_MC_SAMPLES:
            # F - 1 > tolerance^2 * samples, in logs: F can pass the double range.
            # Below the sample floor, _closed refuses first, with exit 1
            log_f = -0.5 * (args.D + 1) * math.log1p(-max(w * w for w in omegas))
            if log_f > math.log1p(_MAX_FLUID_MC_REL_ERR ** 2 * args.samples):
                err = math.sqrt(math.expm1(log_f) / args.samples) if log_f < 709 else math.inf
                raise DomainError(
                    f"near light speed, Monte Carlo's relative error may reach {err:.3g} "
                    f"at --samples {args.samples}, past {_MAX_FLUID_MC_REL_ERR:g}; "
                    "verify with --oracle quad"
                )
        return _closed(args, inputs, closed, args.D,
                       (args.D, lambda mus: gamma_power_values(mus, params), 1.0))
    res = fluid_series(params, args.kmax)
    inputs.update(oracle="series", kmax=args.kmax)
    # the partial sums rise to the closed value, by at most the tail bound
    gap, tol = closed - res.value, _ROUNDOFF * closed
    sigma = gap / (res.tail_bound + tol) if gap >= 0 else -gap / tol
    tail = "unbounded" if res.tail_bound == math.inf else f"{res.tail_bound:.3g}"
    lines = [_fmt(closed, args.digits),
             f"series (kmax={args.kmax}) = {_fmt(res.value, args.digits)} "
             f"(terms={res.terms_used}, last shell={res.last_term_magnitude:.3g})",
             f"tail bound = {tail}", f"relative gap = {abs(gap) / closed:.3g}",
             f"agreement sigma = {sigma:.3g}"]
    return _write(args, inputs, closed, closed, lines, res.value, res.tail_bound, sigma, 1.0)


def _integrate_poly(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            poly = parse_polynomial(fh.read(), args.n)
    except OSError as e:
        raise _UsageError(f"cannot read {args.file}: {e}")
    except ValueError as e:  # a malformed file
        raise _UsageError(str(e))
    return _closed(args, {"n": args.n, "file": args.file, "terms": len(poly)},
                   poly_integrate(args.n, poly), args.n,
                   mc_f=lambda b: _oracle().polynomial_values(b.xs, poly), terms=len(poly))


def _reduce(args) -> int:
    alphas = _number_list(args.alpha, "pass --alpha, one exponent per rotation circle")
    direct = mu_power_integral(args.D, alphas)
    reduced = reduction_rhs(args.D, alphas)
    decimal, headline = _shown(direct, args.digits)
    reduced_decimal, reduced_headline = _shown(reduced, args.digits)
    if isinstance(direct, PiRational):  # equal or not: sigma 0 or infinity against limit 0
        sigma, limit = (0.0 if direct == reduced else math.inf), 0.0
        note = "exact" if sigma == 0 else "MISMATCH"
    else:
        sigma = abs(decimal - reduced_decimal) / max(abs(decimal), 1e-300)
        limit, note = _FLOAT_MAX_REL_ERR, f"relative gap {sigma:.3g}"
    lines = [f"direct:  {headline}", f"reduced: {reduced_headline}", f"agreement: {note}"]
    return _write(args, {"D": args.D, "alpha": alphas, "oracle": "reduction"}, direct, decimal,
                  lines, reduced_decimal, 0.0, sigma, limit)


# sample streams its rows in blocks of about _MAX_SAMPLE_ROW_VALUES
# coordinates, so memory grows with neither --count nor D; a row wider than
# a block is refused, and the budget bounds the output size
_MAX_SAMPLE_VALUES = 1 << 20
_MAX_SAMPLE_ROW_VALUES = 1 << 13


def _sample_blocks(oracle, D, seed, count):
    """Blocks of (xs, mus, phis) rows as lists: sample_batch's stream and chart, one block held.

    phi_i = atan2(x_{2i}, x_{2i-1}) mod 2 pi, from libm per value: numpy's
    arctan2 picks its SIMD kernel by CPU, and its bits move with it.
    """
    k = (D + 1) // 2
    rows = _MAX_SAMPLE_ROW_VALUES // (D + 1)
    # the private stream: a public streaming API would be one more name for one caller
    for xs in oracle._iter_xs_blocks(D, oracle.MCConfig(seed=seed, samples=count), rows):
        pairs = xs[:, : 2 * k].ravel().tolist()  # x1, y1, x2, y2, ... row by row
        phis = [math.atan2(y, x) % math.tau for x, y in zip(pairs[0::2], pairs[1::2])]
        yield zip(xs.tolist(), oracle.PointBatch(D, xs).mus.tolist(),
                  (phis[j : j + k] for j in range(0, len(phis), k)))


def _sample(args) -> int:
    D = _check_D(args.D)
    if D + 1 > _MAX_SAMPLE_ROW_VALUES:
        raise BudgetError(f"sample --D {D} is past the row budget: a row's D+1 coordinates "
                          f"may be at most {_MAX_SAMPLE_ROW_VALUES}, one write block")
    if args.count * (D + 1) > _MAX_SAMPLE_VALUES:
        raise BudgetError(
            f"sample --count {args.count} on S^{D} is past the output budget: "
            f"count * (D+1) may be at most {_MAX_SAMPLE_VALUES} coordinates"
        )
    blocks = _sample_blocks(_oracle(), D, args.seed, args.count)  # numpy loads before any output
    out = sys.stdout
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
        header = ([f"x{i+1}" for i in range(D + 1)] + [f"mu{i+1}" for i in range(D // 2 + 1)]
                  + [f"phi{i+1}" for i in range((D + 1) // 2)])
        out.write(",".join(header) + "\n")
        for block in blocks:
            out.write("".join(",".join(map(repr, x + m + p)) + "\n" for x, m, p in block))
    return 0


# every subcommand is one function of the parsed args that returns the exit code
_COMMANDS = {
    "volume": _volume,
    "dirichlet": _dirichlet,
    "mu-power": _mu_power,
    "reduce": _reduce,
    "fluid": _fluid,
    "integrate-poly": _integrate_poly,
    "sample": _sample,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first token that is no flag names the command: the top level has no valued flag
    command = next((a for a in argv if not a.startswith("-")), "")
    try:
        try:
            args = build_parser(command).parse_args(argv)
            code = _COMMANDS[args.command](args)
        except SystemExit as e:  # --help
            code = int(e.code or 0)
        sys.stdout.flush()  # a full device may refuse only this last write
        return code
    except (_UsageError, ValueError, TypeError, OverflowError) as e:  # Domain-, BudgetError too
        sys.stderr.write(f"error: {e}\n")
        return 1 if isinstance(e, (_UsageError, BudgetError)) else 2
    except OSError as e:  # stdout closed or full; the one file read refuses its own OSError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for shutdown's flush
        sys.stderr.write(f"error: cannot write the output: {e}\n")
        return 1
