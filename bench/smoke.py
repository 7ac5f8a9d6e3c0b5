"""Smoke test for the benchmark itself (not part of the package's test suite).

    python3 bench/smoke.py

Runs every workload at a tiny size (--smoke), traced and untraced, and
asserts that the last stdout line has the required shape, that every op
passed its check, and that every metric BENCHMARK.json declares is
emitted with its unit and a finite value.  It also checks that a
directory holding only BENCHMARK.json and bench/ makes run.py exit
non-zero without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(root, workload, trace, smoke=True):
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


def check_result(p, declared, label):
    assert p.returncode == 0, f"{label}: exit {p.returncode}\n{p.stderr[-1500:]}"
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {p.stderr[-1500:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want), f"{label}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, m in got.items():
        assert m["unit"] == want[name], f"{label}: {name} unit {m['unit']!r}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{label}: {name}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check_result(run(ROOT, wl, trace), bench[key], f"{wl} --trace {trace}")
            print(f"ok  {wl:7s} --trace {trace}")

    # Without the package sources the benchmark must refuse, printing no result.
    bare = os.path.join(ROOT, ".bench_work", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, "exact", 0, smoke=False)
        assert p.returncode != 0 and not p.stdout.strip(), f"bare dir: exit {p.returncode}, {p.stdout!r}"
        print("ok  bare directory refused")
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
