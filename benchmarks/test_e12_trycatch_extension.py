"""E12 (extension) — what try/catch would have fixed.

Not a claim from the paper but its direct consequence: lesson 4 says "a
little language should provide exception handling", and XQuery 3.0 added
try/catch in 2014.  This experiment runs the E3 error-chain workload in
all three regimes:

* 2004 XQuery: error-as-``<error>``-value, a ladder at every call;
* XQuery + try/catch (this engine's extension): throwing utility, one
  handler;
* the Java-style host: exceptions.

Shape expected: try/catch restores the one-line-per-call code shape and
removes the per-call error-test overhead, landing between the two.
"""

import time

from conftest import format_table, record_result
from repro.docgen import GenTrouble
from repro.workloads import (
    native_chain,
    nested_input,
    trycatch_chain_program,
    xquery_chain_program,
)
from repro.xquery import EngineConfig, XQueryEngine

#: the paper's period engine: a naive interpreter, pinned explicitly.
engine = XQueryEngine(EngineConfig(backend="treewalk"))
DEPTHS = [8, 32]


def code_lines(program: str) -> int:
    return len(
        [line for line in program.splitlines() if line.strip() and "declare" not in line]
    )


def test_e12_code_shape(benchmark):
    def measure():
        rows = []
        for depth in DEPTHS:
            ladder = code_lines(xquery_chain_program(depth))
            trycatch = code_lines(trycatch_chain_program(depth))
            java_style = depth + 1
            rows.append((depth, ladder, trycatch, java_style))
        return rows

    rows = benchmark.pedantic(measure, rounds=3, iterations=1)
    record_result(
        "e12_code_shape.txt",
        format_table(
            ["depth", "error-value lines", "try/catch lines", "java-style lines"],
            rows,
        ),
    )
    for depth, ladder, trycatch, java_style in rows:
        # try/catch collapses the ladder to near the host-language shape.
        assert trycatch < ladder / 2
        assert trycatch <= java_style + 12  # constant overhead only


def test_e12_runtime_three_regimes(benchmark):
    def measure():
        rows = []
        for depth in DEPTHS:
            tree = nested_input(depth)
            ladder_program = engine.compile(xquery_chain_program(depth))
            trycatch_program = engine.compile(trycatch_chain_program(depth))

            started = time.perf_counter()
            for _ in range(5):
                ladder_program.run(variables={"input": tree})
            ladder_seconds = (time.perf_counter() - started) / 5

            started = time.perf_counter()
            for _ in range(5):
                trycatch_program.run(variables={"input": tree})
            trycatch_seconds = (time.perf_counter() - started) / 5

            started = time.perf_counter()
            for _ in range(200):
                native_chain(tree, depth)
            native_seconds = (time.perf_counter() - started) / 200

            rows.append(
                (
                    depth,
                    f"{ladder_seconds * 1e6:.0f}us",
                    f"{trycatch_seconds * 1e6:.0f}us",
                    f"{native_seconds * 1e6:.0f}us",
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "e12_runtime.txt",
        format_table(["depth", "error-value", "try/catch", "java-style"], rows),
    )
    for _, ladder, trycatch, native in rows:
        assert float(trycatch.rstrip("us")) <= float(ladder.rstrip("us")) * 1.15


def test_e12_broken_chain_equivalent_reporting(benchmark):
    def check():
        depth = 16
        tree = nested_input(depth, break_at=9)
        ladder = engine.evaluate(
            xquery_chain_program(depth), variables={"input": tree}
        )[0]
        trycatch = engine.evaluate(
            trycatch_chain_program(depth), variables={"input": tree}
        )[0]
        try:
            native_chain(tree, depth)
            native_message = None
        except GenTrouble as trouble:
            native_message = trouble.bare_message
        return (
            ladder.string_value(),
            trycatch.string_value(),
            native_message,
        )

    ladder_msg, trycatch_msg, native_msg = benchmark.pedantic(
        check, rounds=2, iterations=1
    )
    # all three regimes identify the same failing level.
    assert "c9" in ladder_msg and "c9" in trycatch_msg and "c9" in native_msg
