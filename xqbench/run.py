"""Run one benchmark workload and print its metrics.

    python3 xqbench/run.py --workload calc_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are the run header and a table of every metric with
its raw wall-clock value beside the reference-host value.  The exit code
is non-zero when any op's output was wrong or an op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: where a traced run writes its span trees (ignored by git)
SPANS_DIR = os.path.join(ROOT, ".xqbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics():
    """(end-to-end, per-layer) ``name -> unit`` maps from BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"xqbench: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    from loop import Run, header_lines
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"xqbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics()
    run = Run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    try:
        run.set_up()
        run.execute()
        if args.trace:
            values = run.per_layer()
            units = per_layer_units
            table = [(name, values[name], None) for name in units]
        else:
            values = run.end_to_end()
            units = end_to_end_units
            table = [(name, values[name]["value"], values[name]["wall"]) for name in units]
        for line in header_lines(run):
            print(line)
    finally:
        run.workload.close()
    for name, margin in run.tail_margins().items():
        if margin < 10:
            print(f"note: only {margin} samples beyond {name}")
    print(f"{'metric':<48} {'reference':>14} {'wall clock':>14}  unit")
    for name, value, wall in table:
        wall_text = f"{wall:14.4f}" if wall is not None else f"{'':>14}"
        print(f"{name:<48} {value:14.4f} {wall_text}  {units[name]}")
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(f"traced run: {run.tracer.dump(path)} spans written to {path}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value, _ in table},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
