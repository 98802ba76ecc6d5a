"""E8 — debugging: the trace-eating optimizer and error() bisection.

* the 2004 Galax behaviour: a trace in a dead ``let`` silently vanishes
  under optimization; the insinuated form survives; the fixed optimizer
  keeps both;
* the cost of the paper's only earlier workflow — binary search by
  ``error()`` probes, each costing a full program run.
"""

import pytest

from conftest import format_table, record_result
from repro.workloads import make_it_model, system_context_template
from repro.xquery import EngineConfig, TraceLog, XQueryEngine
from repro.xquery.debug import ErrorBisector, make_probe_runner

DEAD_TRACE = "let $x := 6 * 7 let $dummy := trace('x=', $x) return $x"
LIVE_TRACE = "let $x := trace('x=', 6 * 7) return $x"


def traced_run(engine, source):
    trace = TraceLog()
    value = engine.evaluate(source, trace=trace)
    return value, trace.messages


def test_e08_trace_visibility_matrix(benchmark):
    def measure():
        engines = {
            "galax 2004 (buggy dce)": XQueryEngine(
                EngineConfig(
                    optimize=True, trace_is_dead_code=True, backend="treewalk"
                )
            ),
            "fixed optimizer": XQueryEngine(
                EngineConfig(
                    optimize=True, trace_is_dead_code=False, backend="treewalk"
                )
            ),
            "no optimizer": XQueryEngine(
                EngineConfig(optimize=False, backend="treewalk")
            ),
        }
        rows = []
        for name, engine in engines.items():
            _, dead_messages = traced_run(engine, DEAD_TRACE)
            _, live_messages = traced_run(engine, LIVE_TRACE)
            rows.append(
                (
                    name,
                    "lost" if not dead_messages else "printed",
                    "lost" if not live_messages else "printed",
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=3, iterations=1)
    record_result(
        "e08_trace_matrix.txt",
        format_table(["engine", "trace in dead let", "insinuated trace"], rows),
    )
    matrix = {row[0]: (row[1], row[2]) for row in rows}
    assert matrix["galax 2004 (buggy dce)"] == ("lost", "printed")
    assert matrix["fixed optimizer"] == ("printed", "printed")
    assert matrix["no optimizer"] == ("printed", "printed")


def make_pipeline_program(total, bug_at):
    def source_for_probe(probe_at):
        lines = ["let $x0 := 1"]
        for step in range(1, total + 1):
            if step == probe_at:
                lines.append('let $p := error("probe")')
            if step == bug_at:
                lines.append(f"let $x{step} := $x{step - 1} idiv 0")
            else:
                lines.append(f"let $x{step} := $x{step - 1} + 1")
        lines.append(f"return $x{total}")
        return "\n".join(lines)

    return source_for_probe


@pytest.mark.parametrize("total,bug_at", [(16, 11), (64, 37), (256, 201)])
def test_e08_error_bisection_cost(benchmark, total, bug_at):
    engine = XQueryEngine(EngineConfig(backend="treewalk"))
    runner = make_probe_runner(engine, make_pipeline_program(total, bug_at))

    def locate():
        return ErrorBisector(total, runner).locate()

    result = benchmark.pedantic(locate, rounds=1, iterations=1)
    assert result.failing_step == bug_at
    # each of these runs is a full edit-and-rerun cycle in the paper's
    # workflow; log2(N) of them.
    assert result.runs <= total.bit_length() + 1


def test_e08_bisection_runs_table(benchmark):
    def measure():
        rows = []
        for total, bug_at in [(16, 11), (64, 37), (256, 201)]:
            engine = XQueryEngine(EngineConfig(backend="treewalk"))
            runner = make_probe_runner(engine, make_pipeline_program(total, bug_at))
            result = ErrorBisector(total, runner).locate()
            rows.append((total, bug_at, result.failing_step, result.runs))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "e08_bisection.txt",
        format_table(["program steps", "bug at", "found", "full runs needed"], rows),
    )
    for total, bug_at, found, runs in rows:
        assert found == bug_at


def test_e08_trace_overhead_on_real_workload(benchmark):
    """Tracing the real docgen: the flood of data the paper mentions."""
    model = make_it_model(scale=4)
    from repro.docgen import XQueryDocumentGenerator

    generator = XQueryDocumentGenerator(model, config=EngineConfig(backend="treewalk"))
    trace = TraceLog()

    def run():
        return generator.generate(system_context_template(), trace=trace)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.document is not None
