"""Traced pass: baseline cases, spawn probes and the per-layer metrics.

Every per-layer metric is printed on every workload.  It is measured on
the workload's own traced ops when the workload calls that layer, and on
the fixed baseline cases otherwise (the cases of ROADMAP item 1, which a
traced run always re-measures).  Where a single baseline case is all that
reaches a layer, the metric repeats that baseline.* value.  The
fluid.series_* metrics always come from SERIES_CASE.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import sphereint as si

from harness import layer_of, median, spawn_wall
from workloads import _run_cli, main_captured

MODULES = ("cli", "exactpi", "integrals", "fluid", "oracle")
BASELINE_CASES = (
    "cli_volume_d4_ms", "mc_1e6_d5_ms", "mc_1e6_d9_ms", "quad_n32_d5_ms", "quad_n32_d7_ms",
    "quad_n32_d9_ms", "series_k90_d3_ms", "series_k90_d6_ms", "mu_power_d8_us",
    "mu_power_d20001_ms",
)


def spawn_probes(py, env, root, reps):
    """Median wall of fresh interpreters: bare, importing numpy, importing sphereint."""
    cmds = {"interp": "pass", "numpy": "import numpy", "sphereint": "import sphereint"}
    walls = defaultdict(list)
    for _ in range(reps):
        for key, code in cmds.items():
            walls[key].append(spawn_wall([py, "-c", code], env, root))
    return {key: median(v) for key, v in walls.items()}


# fluid.series_* is measured on one fixed case, the series command of the
# cli workload (fluid --D 3 --omega 0.3,0.4 --series --kmax 30), in-process.
SERIES_CASE = (3, (0.3, 0.4), 30)
SERIES_REPS = 5


def run_baseline(tr, ctx, smoke):
    """The ROADMAP item 1 baseline cases, each inside a `baseline.<case>` span."""
    tr.phase = "baseline"
    failures = []
    checks = 0

    def check(ok, what):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    def case(name, fn, reps=1):
        for _ in range(reps):
            tr.call("baseline." + name, fn)

    def cli_volume():
        rc, out, _ = tr.call("cli.process", _run_cli, ctx, ["volume", "--D", "4"])
        check(rc == 0 and out.startswith(b"8/3 * pi^2"), "volume --D 4")

    samples = 10 ** 4 if smoke else 10 ** 6
    nodes = 8 if smoke else 32

    def mc(D, f, closed):
        est = tr.call("oracle.mc", si.mc_integrate, D, tr.wrap("oracle.mc.integrand", f),
                      si.MCConfig(0, samples))
        tr.count("oracle.mc.samples", est.samples_or_nodes)
        check(abs(est.value - closed) <= 5 * est.error, f"baseline MC at D={D}")

    fp9 = si.FluidParams(9, (0.3, 0.2, 0.1, 0.3, 0.2))

    def gpv9(mus):
        return tr.call("fluid.gamma_power_values", si.gamma_power_values, mus, fp9)

    def quad(D):
        al = (2,) + (0,) * ((D + 1) // 2 - 1)
        est = tr.call("oracle.quad", si.quad_integrate, D,
                      tr.wrap("oracle.quad.integrand", lambda m: si.mu_power_values(m, al)), nodes)
        tr.count("oracle.quad.nodes", est.samples_or_nodes)
        closed = si.to_float(si.mu_power_integral(D, al))
        check(abs(est.value - closed) <= est.error, f"baseline quad at D={D}")

    def series(D, omegas, kmax, name=None):
        fp = si.FluidParams(D, omegas)
        closed = tr.call("fluid.closed", si.fluid_closed, fp)
        res = tr.call(name, si.fluid_series, fp, kmax) if name else si.fluid_series(fp, kmax)
        check(res.value <= closed * (1 + 1e-13), f"series at D={D}, K={kmax}")
        return res

    d8 = (2, 0, -1, 3)
    big_D = 2001 if smoke else 20001
    big_al = tuple(j % 4 for j in range((big_D + 1) // 2))

    def mu_d8():
        v = tr.call("integrals.exact", si.mu_power_integral, 8, d8)
        tr.note("exactpi.q_bits", v.q.numerator.bit_length() + v.q.denominator.bit_length())

    def mu_big():
        v = tr.call("integrals.exact_large", si.mu_power_integral, big_D, big_al)
        tr.note("exactpi.q_bits", v.q.numerator.bit_length() + v.q.denominator.bit_length())

    case("cli_volume_d4_ms", cli_volume, reps=1 if smoke else 3)
    case("mc_1e6_d5_ms", lambda: mc(5, lambda b: si.mu_power_values(b.mus, (2, 0, 0)),
                                    si.to_float(si.mu_power_integral(5, (2, 0, 0)))))
    case("mc_1e6_d9_ms", lambda: mc(9, lambda b: gpv9(b.mus), si.fluid_closed(fp9)))
    for D in (5, 7, 9):
        case(f"quad_n32_d{D}_ms", lambda D=D: quad(D))
    kmax = 20 if smoke else 90
    case("series_k90_d3_ms", lambda: series(3, (0.5, 0.3), kmax))
    case("series_k90_d6_ms", lambda: series(6, (0.5, 0.3, 0.2), kmax))
    case("mu_power_d8_us", mu_d8, reps=20)
    case("mu_power_d20001_ms", mu_big)

    # single calls for the layers the cases above do not reach
    for _ in range(SERIES_REPS):
        res = series(*SERIES_CASE, name="fluid.series")
    tr.count("fluid.series.terms", res.terms_used)
    readme_poly = {(2, 2, 0): Fraction(1, 2), (0, 0, 0): Fraction(3)}
    for _ in range(20):
        v = si.mu_power_integral(8, d8)
        f = tr.call("exactpi.to_float", si.to_float, v)
        g = tr.call("integrals.float", si.mu_power_float, 8, d8)
        check(abs(f - g) <= 1e-12 * abs(f), "baseline mu-power D=8 float path")
        check(tr.call("integrals.reduction", lambda: si.reduction_rhs(8, d8) == v),
              "baseline reduction D=8")
        for a in d8:
            tr.call("exactpi.gamma_half", si.gamma_half, Fraction(2 + a, 2))
        tr.call("exactpi.gamma_half", si.gamma_half, Fraction(9 + sum(d8), 2))
        tr.call("oracle.poly_integrate", si.poly_integrate, 2, readme_poly)
    for _ in range(1 if smoke else 3):
        rc, out = tr.call("cli.main", main_captured, ["volume", "--D", "4"])
        check(rc == 0, "in-process volume --D 4")
    tr.count("cli.stdout_bytes", len(out.encode()))
    for D in (5, 9):
        tr.call("oracle.sample_batch", si.sample_batch, D, si.MCConfig(0, 10 ** 5))
    return checks, failures


class Spans:
    """Index over a Tracer's spans for metric queries."""

    def __init__(self, tr):
        self.spans = tr.spans
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        self.self_by_module = defaultdict(float)      # (module, phase) -> seconds
        for i, (s, own) in enumerate(zip(self.spans, tr.self_times())):
            if s[3] >= 0:
                self.children[s[3]].append(i)
            self.by_name[s[0]].append(i)
            self.self_by_module[(_module(s[0]), s[4])] += own
        self.passes = sorted({s[4] for s in self.spans if s[4].startswith("pass")})

    def ids(self, names, phases):
        return sorted(i for n in names for i in self.by_name.get(n, ()) if self.spans[i][4] in phases)

    def workload_or_baseline(self, names):
        """Span ids in the workload's traced passes and side calls, else in the baseline cases."""
        ids = self.ids(names, set(self.passes) | {"side"})
        return ids if ids else self.ids(names, {"baseline"})

    def dur(self, i):
        s = self.spans[i]
        return s[2] - s[1]

    def child_sum(self, i, names):
        total = 0.0
        for c in self.children[i]:
            if self.spans[c][0] in names:
                total += self.dur(c)
            else:
                total += self.child_sum(c, names)
        return total


def per_layer(tr, probes, overhead_frac):
    """Every per-layer metric, in the units BENCHMARK.json names."""
    sp = Spans(tr)
    out = {}

    def med(names, scale):
        return median([sp.dur(i) for i in sp.workload_or_baseline(set(names))]) * scale

    def count(name, names):
        """A counter from the first traced pass, or from the baseline cases."""
        uses_pass = bool(sp.ids(set(names), {"pass0"}))
        return tr.counts[("pass0" if uses_pass else "baseline", name)]

    out["interp.start_ms"] = probes["interp"] * 1e3
    out["numpy.import_ms"] = (probes["numpy"] - probes["interp"]) * 1e3
    out["sphereint.import_ms"] = (probes["sphereint"] - probes["interp"]) * 1e3
    out["cli.main_ms"] = med(["cli.main"], 1e3)
    out["cli.process_ms"] = med(["cli.process"], 1e3)
    out["cli.stdout_bytes"] = count("cli.stdout_bytes", ["cli.process"])

    out["exactpi.to_float_us"] = med(["exactpi.to_float"], 1e6)
    calls = sp.ids({"exactpi.to_float"}, {"pass0"}) or sp.ids({"exactpi.to_float"}, {"baseline"})
    out["exactpi.to_float.calls"] = len(calls)
    out["exactpi.gamma_half_us"] = med(["exactpi.gamma_half"], 1e6)
    qb_phase = "pass0" if tr.notes.get(("pass0", "exactpi.q_bits")) else "baseline"
    qbits = tr.notes[(qb_phase, "exactpi.q_bits")]
    out["exactpi.q_bits_p50"] = median(qbits)
    out["exactpi.q_bits_max"] = max(qbits)

    out["integrals.exact_us"] = med(["integrals.exact"], 1e6)
    out["integrals.exact_large_ms"] = med(["integrals.exact_large"], 1e3)
    out["integrals.float_us"] = med(["integrals.float"], 1e6)
    out["integrals.reduction_us"] = med(["integrals.reduction"], 1e6)
    out["oracle.poly_integrate_us"] = med(["oracle.poly_integrate"], 1e6)

    for method, unit in (("mc", "samples"), ("quad", "nodes")):
        ids = sp.workload_or_baseline({"oracle." + method})
        integrand = {f"oracle.{method}.integrand"}
        durs = [sp.dur(i) for i in ids]
        inner = [sp.child_sum(i, integrand) for i in ids]
        out[f"oracle.{method}_ms"] = median(durs) * 1e3
        out[f"oracle.{method}.integrand_ms"] = median(inner) * 1e3
        out[f"oracle.{method}.self_ms"] = median([d - c for d, c in zip(durs, inner)]) * 1e3
        name = f"oracle.{method}.{unit}"
        out[name] = count(name, ["oracle." + method])
        phases = {sp.spans[i][4] for i in ids}
        total = sum(tr.counts[(ph, name)] for ph in phases)
        out[f"{name}_per_s"] = total / sum(durs)
    out["oracle.sample_batch_ms"] = med(["oracle.sample_batch"], 1e3)

    # per oracle call whose integrand is the fluid gamma power
    for ids in (sp.workload_or_baseline({"oracle.mc", "oracle.quad"}),
                sp.ids({"oracle.mc", "oracle.quad"}, {"baseline"})):
        gpv = [g for g in (sp.child_sum(i, {"fluid.gamma_power_values"}) for i in ids) if g > 0.0]
        if gpv:
            break
    out["fluid.gamma_power_values_ms"] = median(gpv) * 1e3
    series_ms = med(["fluid.series"], 1e3)
    out["fluid.series_ms"] = series_ms
    out["fluid.series.terms"] = tr.counts[("baseline", "fluid.series.terms")]
    out["fluid.series.us_per_term"] = series_ms * 1e3 / out["fluid.series.terms"]
    out["fluid.closed_us"] = med(["fluid.closed"], 1e6)

    # self time per module, summed over one traced pass (median over passes)
    for mod in MODULES + ("bench",):
        per_pass = [sp.self_by_module[(mod, ph)] for ph in sp.passes]
        if not any(per_pass):
            per_pass = [sp.self_by_module[(mod, "baseline")]]
        out[f"{mod}.self_ms"] = median(per_pass) * 1e3

    for mod in ("cli", "integrals", "oracle", "fluid"):
        out[f"{mod}.errors"] = sum(v for (ph, k), v in tr.counts.items() if k == f"{mod}.errors")
    out["trace.overhead_frac"] = overhead_frac

    for c in BASELINE_CASES:
        durs = [sp.dur(i) for i in sp.ids({"baseline." + c}, {"baseline"})]
        out["baseline." + c] = median(durs) * (1e6 if c.endswith("_us") else 1e3)
    return out


def _module(name):
    """Module a span belongs to; op spans and baseline wrappers are the benchmark's own."""
    layer = layer_of(name)
    return "bench" if layer in ("op", "baseline") else layer
