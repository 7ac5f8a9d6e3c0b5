"""Steadiness mode: repeat one workload over several seeds and judge the spread.

    python3 bench/steady.py --workload oracle --runs 10 [--sets 2]

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json.  A spread below a third of the
bound is "steady"; below the bound, "within"; above it, "UNSTEADY".
With --sets 2 the same seeds 1..runs run twice; the second set's spread
and its median's drift in the worse direction are compared with the
bound too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}: {p.stderr[-800:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: failed ops: {p.stderr[-800:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def drift(first, second, better):
    """Relative change of the median in the worse direction (negative: it improved)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for wl in names:
        sets = []
        for _ in range(args.sets):
            runs = [run_once(wl, seed, seconds) for seed in range(1, args.runs + 1)]
            sets.append({m: summarize([r[m] for r in runs]) for m in spec})
        print(f"== {wl}: {args.runs} seeds x {args.sets} set(s), {seconds:g} s each")
        for m, s in spec.items():
            first = sets[0][m]
            if first["spread"] <= s["bound"] / 3:
                verdict = "steady"
            elif first["spread"] <= s["bound"]:
                verdict = "within"
            else:
                verdict, ok = "UNSTEADY", False
            line = (f"  {m:12s} median {first['median']:.6g} {s['unit']:6s} "
                    f"q1 {first['q1']:.6g} q3 {first['q3']:.6g} "
                    f"spread {first['spread']:.4f} bound {s['bound']} {verdict}")
            if args.sets == 2:
                d = drift(first["median"], sets[1][m]["median"], s["better"])
                line += (f" | set2 median {sets[1][m]['median']:.6g} "
                         f"spread {sets[1][m]['spread']:.4f} drift {d:+.4f}")
                if d > s["bound"] or sets[1][m]["spread"] > s["bound"]:
                    line += " FAIL"
                    ok = False
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
