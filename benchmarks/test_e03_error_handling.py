"""E3 — error handling: error-as-value vs exceptions.

Paper claims reproduced:

* "this turned nearly every function call into a half-dozen lines of
  code" — the static ladder measurement: lines per required-child fetch in
  the XQuery chain vs the Java-style chain;
* the runtime cost of threading error values through every return vs one
  exception at the top, on healthy and broken chains.
"""

import pytest

from conftest import format_table, record_result
from repro.docgen import GenTrouble
from repro.workloads import (
    native_chain,
    nested_input,
    xquery_chain_program,
)
from repro.xquery import EngineConfig, XQueryEngine

#: the paper's period engine: a naive interpreter, pinned explicitly.
engine = XQueryEngine(EngineConfig(backend="treewalk"))

DEPTHS = [4, 16, 64]


def xquery_chain_runner(depth, break_at=0):
    program = engine.compile(xquery_chain_program(depth))
    tree = nested_input(depth, break_at=break_at)

    def run():
        return program.run(variables={"input": tree})

    return run


def native_chain_runner(depth, break_at=0):
    tree = nested_input(depth, break_at=break_at)

    def run():
        try:
            return native_chain(tree, depth)
        except GenTrouble as trouble:
            return trouble

    return run


class TestStaticLadder:
    def test_lines_per_call(self, benchmark):
        def measure():
            rows = []
            for depth in DEPTHS:
                program = xquery_chain_program(depth)
                body_lines = [
                    line
                    for line in program.splitlines()
                    if line.strip() and not line.lstrip().startswith("declare")
                    and not line.lstrip().startswith(("}", '"', "    if (empty"))
                ]
                # the Java-style chain is one line per fetch (+1 return).
                java_lines = depth + 1
                rows.append(
                    (
                        depth,
                        len(body_lines),
                        java_lines,
                        f"{len(body_lines) / depth:.1f}",
                        f"{len(body_lines) / java_lines:.1f}x",
                    )
                )
            return rows

        rows = benchmark.pedantic(measure, rounds=3, iterations=1)
        table = format_table(
            ["depth", "xquery lines", "java-style lines", "lines/call", "blowup"],
            rows,
        )
        record_result("e03_ladder_lines.txt", table)
        # "nearly every function call into a half-dozen lines of code":
        for _, _, _, lines_per_call, _ in rows:
            assert float(lines_per_call) >= 4.0


class TestRuntime:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_xquery_chain_healthy(self, benchmark, depth):
        run = xquery_chain_runner(depth)
        result = benchmark(run)
        assert result[0].name == "done"

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_native_chain_healthy(self, benchmark, depth):
        run = native_chain_runner(depth)
        assert benchmark(run) == f"c{depth}"

    @pytest.mark.parametrize("depth", [64])
    def test_xquery_chain_broken_midway(self, benchmark, depth):
        run = xquery_chain_runner(depth, break_at=depth // 2)
        result = benchmark(run)
        assert result[0].name == "failed"

    @pytest.mark.parametrize("depth", [64])
    def test_native_chain_broken_midway(self, benchmark, depth):
        run = native_chain_runner(depth, break_at=depth // 2)
        trouble = benchmark(run)
        assert isinstance(trouble, GenTrouble)
        # the exception carries the context for free.
        assert f"c{depth // 2}" in str(trouble)

    def test_shape_claim_summary(self, benchmark):
        """The error-value chain costs more per call than exceptions."""
        import time

        def measure():
            rows = []
            for depth in DEPTHS:
                xquery_run = xquery_chain_runner(depth)
                native_run = native_chain_runner(depth)
                started = time.perf_counter()
                for _ in range(3):
                    xquery_run()
                xquery_seconds = (time.perf_counter() - started) / 3
                started = time.perf_counter()
                for _ in range(300):
                    native_run()
                native_seconds = (time.perf_counter() - started) / 300
                rows.append(
                    (
                        depth,
                        f"{xquery_seconds * 1e6:.0f}us",
                        f"{native_seconds * 1e6:.0f}us",
                        f"{xquery_seconds / native_seconds:.0f}x",
                    )
                )
            return rows

        rows = benchmark.pedantic(measure, rounds=1, iterations=1)
        record_result(
            "e03_runtime.txt",
            format_table(["depth", "xquery chain", "native chain", "ratio"], rows),
        )
        # shape: the error-value regime is consistently slower.
        for _, _, _, ratio in rows:
            assert float(ratio.rstrip("x")) > 1.0
