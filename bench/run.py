"""sphereint benchmark: one seeded workload, one client, closed loop.

    python3 bench/run.py --workload {cli,exact,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A summary (passes, op count, tail percentile, first failures, machine
record) goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
THREADS = 1          # BLAS/OpenMP threads; one client needs no more, and it is <= nproc
SETUP_REPS = 9       # fresh interpreters per setup_s, spread over the run; the median is reported
PROBE_REPS = 5
WORKDIR = ".bench_work"
WORKLOADS = ("cli", "exact", "oracle")
# What a setup_s probe runs in a fresh interpreter: `import sphereint`, then
# the workload's warm-up op written out, so that no benchmark code is timed.
SETUP_CODE = {
    "cli": "import sphereint",
    "exact": "\n".join([
        "import sphereint as si",
        "al = (2, 0, -1, 3)",
        "v = si.mu_power_integral(8, al)",
        "assert abs(si.to_float(v) - si.mu_power_float(8, al)) <= 1e-12 * si.to_float(v)",
        "assert si.reduction_rhs(8, al) == v"]),
    "oracle": "\n".join([
        "import sphereint as si",
        "al = (2, 0, 0)",
        "closed = si.to_float(si.mu_power_integral(5, al))",
        "est = si.mc_integrate(5, lambda b: si.mu_power_values(b.mus, al), si.MCConfig(0, 100000))",
        "assert abs(est.value - closed) <= 5 * est.error"]),
}


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(THREADS)


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_record():
    import mpmath
    import numpy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "blas_threads": THREADS, "git_sha": _git_sha()}


def build(name, seed, smoke):
    import harness
    import workloads as w

    # per-process, fixed-width, so concurrent runs do not collide and byte counts repeat
    workdir = f"{WORKDIR}/{os.getpid():010d}"
    ctx = w.CliContext(harness.python(), ROOT, harness.child_env(ROOT), workdir)
    if name == "cli":
        return w.cli_workload(seed, smoke, ctx), ctx
    make = {"exact": w.exact_workload, "oracle": w.oracle_workload}
    return make[name](seed, smoke), ctx


class SetupProbes:
    """setup_s: fresh interpreters that run SETUP_CODE, spread over the timed run.

    Host speed drifts over seconds, so the probes do not run back to back:
    probe i is due once i/reps of the measuring time has passed, and it
    runs between two passes, outside the timed walls.
    """

    def __init__(self, name, seconds, smoke):
        import harness

        self.argv = [harness.python(), "-c", SETUP_CODE[name]]
        self.env = harness.child_env(ROOT)
        self.seconds = seconds
        self.reps = 1 if smoke else SETUP_REPS
        self.walls = []

    def run_due(self, elapsed):
        import harness

        due = min(self.reps, int(elapsed / self.seconds * self.reps) + 1)
        while len(self.walls) < due:
            self.walls.append(harness.spawn_wall(self.argv, self.env, ROOT))

    def median(self):
        import harness

        self.run_due(self.seconds)
        return harness.median(self.walls)


def timed(wl, seconds, min_passes, trace_pairs=False, tr=None, between=None):
    """Whole passes until the time is used; min_passes always run.

    Returns per-op latencies, the gaps of the first min_passes passes,
    attempted and failed counts, the summed pass walls and failure notes.
    With trace_pairs, each pass runs twice, untraced and traced, in
    alternating order, and the two wall sums are returned as well.
    between(elapsed) runs before every pass; its time is not counted
    against `seconds`.
    """
    import harness

    null = harness.NullTracer()
    lat, gaps, failures = [], [], []
    attempted = failed = 0
    walls = {"untraced": 0.0, "traced": 0.0}
    pass_times = []
    t_start = harness.perf()
    paused = 0.0
    p = 0
    while True:
        elapsed = harness.perf() - t_start - paused
        if between is not None:
            t0 = harness.perf()
            between(elapsed)
            paused += harness.perf() - t0
        if p >= min_passes and elapsed + harness.median(pass_times) > seconds:
            break
        ops = wl.pass_ops(p)                 # inputs are built before the pass is timed
        order = [("untraced", null)]
        if trace_pairs:
            order.append(("traced", tr))
            if p % 2:
                order.reverse()
        t_pair = 0.0
        for label, tracer in order:
            if tracer is not null:
                tracer.phase = f"pass{p}"
            t0 = harness.perf()
            pl, pg, pf = harness.run_pass(ops, wl.table, tracer, failures)
            dt = harness.perf() - t0
            walls[label] += dt
            t_pair += dt
            attempted += len(ops)
            failed += pf
            if label == "untraced":
                lat += pl
                if p < min_passes:
                    gaps += pg
        pass_times.append(t_pair)
        p += 1
    return lat, gaps, attempted, failed, walls, p, failures


def end_to_end(name, seed, seconds, smoke):
    import harness

    wl, ctx = build(name, seed, smoke)
    if wl.warmup is not None:
        harness.run_pass([wl.warmup], wl.table, harness.NullTracer(), [])
    gc.freeze()   # the op lists are the benchmark's own; keep them out of the program's GC scans
    probes = SetupProbes(name, seconds, smoke)
    lat, gaps, attempted, failed, walls, passes, failures = timed(
        wl, seconds, wl.min_passes, between=probes.run_due)
    setup_s = probes.median()
    if name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / walls["untraced"],
        "op_p50_ms": harness.median(lat) * 1e3,
        "op_tail_ms": harness.nearest_rank(lat, wl.tail_pct) * 1e3,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
        "rel_gap_p50": harness.median(gaps),
    }
    info = {"passes": passes, "ops": len(lat), "tail_pct": wl.tail_pct,
            "gap_pairs": len(gaps), "failures": failures}
    return attempted, failed, metrics, info


def traced_run(name, seed, seconds, smoke):
    import harness
    import layers

    wl, ctx = build(name, seed, smoke)
    py, env = harness.python(), harness.child_env(ROOT)
    probes = layers.spawn_probes(py, env, ROOT, 1 if smoke else PROBE_REPS)
    tr = harness.Tracer()
    base_checks, base_failures = layers.run_baseline(tr, ctx, smoke)
    if wl.warmup is not None:
        harness.run_pass([wl.warmup], wl.table, harness.NullTracer(), [])
    gc.freeze()
    # one traced pass is enough for the counts, which repeat exactly for a seed
    lat, gaps, attempted, failed, walls, passes, failures = timed(wl, seconds, 1, True, tr)
    tr.phase = "side"
    if wl.side is not None:
        wl.side(tr, wl.pass_ops(0))
    overhead = walls["traced"] / walls["untraced"] - 1.0
    metrics = layers.per_layer(tr, probes, overhead)
    failed += len(base_failures)
    attempted += base_checks
    info = {"passes": passes, "spans": len(tr.spans),
            "failures": failures + base_failures}
    return attempted, failed, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny passes, for bench/smoke.py")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sphereint", "__init__.py")):
        sys.stderr.write(f"error: no sphereint sources under {ROOT}/src; "
                         "run from the root of a sphereint checkout\n")
        return 2
    _pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)

    try:
        run = traced_run if args.trace else end_to_end
        attempted, failed, metrics, info = run(args.workload, args.seed, args.seconds, args.smoke)
    finally:
        shutil.rmtree(os.path.join(ROOT, WORKDIR, f"{os.getpid():010d}"), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORKDIR))
        except OSError:
            pass

    info.update(workload=args.workload, seed=args.seed, machine=machine_record())
    sys.stderr.write(json.dumps(info) + "\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.stderr.write(f"error: metrics {sorted(set(units) ^ set(metrics))} are not both "
                         "declared in BENCHMARK.json and measured\n")
        return 2
    out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
