"""Steadiness report: run a workload N times and judge the spread.

    python3 xqbench/steady.py --workload served_rw --runs 10
    python3 xqbench/steady.py --workload all --runs 5 --seconds 20

Each run is a fresh ``run.py`` process with its own seed (``--seed-base``
plus the run index).  For every end-to-end metric the report prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), min, max
and the spread -- the interquartile range over the median -- against
the metric's bound from BENCHMARK.json.  A metric whose spread exceeds
its bound is flagged ``OVER`` (``setup_s`` is reported but never
flagged); one above a third of its bound is marked ``wide``.  The exit
code is 1 when any metric is flagged or any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: float):
    """Run ``run.py`` once; returns (result dict or None, wall seconds)."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-2000:])
        return None, wall
    return json.loads(lines[-1]), wall


def report(workload: str, results, spec) -> bool:
    """Print the table for one workload; returns True if nothing is flagged."""
    ok = True
    print(f"\n{workload}: {len(results)} runs")
    print(f"{'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} "
          f"{'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = ""
        if spread > bound and name != "setup_s":
            flag, ok = "OVER", False
        elif spread > bound / 3:
            flag = "wide"
        print(f"{name:<18} {median:11.4f} {q1:11.4f} {q3:11.4f} {min(values):11.4f} "
              f"{max(values):11.4f} {spread:7.3f} {bound:6.2f} {flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        results = []
        for index in range(args.runs):
            result, wall = one_run(name, args.seed_base + index, seconds)
            status = "failed" if result is None else f"correct={result['correct']}"
            print(f"{name} seed {args.seed_base + index}: {status}  {wall:.1f} s", flush=True)
            if result is None or not result["correct"]:
                ok = False
                continue
            results.append(result)
        if len(results) >= 2:
            ok = report(name, results, spec) and ok
        else:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
