"""E7 — set-of-strings vs XML-encoded sets.

"If we represent the two sets as XML structures (which makes the basic
operations several times as expensive)..."  The same fold-and-probe
workload over both encodings; shape check: the XML encoding costs a
multiple of the string-sequence encoding.
"""

import time

import pytest

from conftest import format_table, record_result
from repro.workloads import STRING_SET_PROGRAM, XML_SET_PROGRAM, make_values
from repro.xquery import EngineConfig, XQueryEngine

#: the paper's period engine: a naive interpreter, pinned explicitly.
engine = XQueryEngine(EngineConfig(backend="treewalk"))
SIZES = [16, 48, 96]


def make_runner(program_source, count):
    program = engine.compile(program_source)
    values = make_values(count)

    def run():
        return program.run(variables={"values": values})

    return run


@pytest.mark.parametrize("count", SIZES)
def test_e07_string_sets(benchmark, count):
    run = make_runner(STRING_SET_PROGRAM, count)
    result = benchmark.pedantic(run, rounds=2, iterations=1)
    size, members = result
    assert members == count  # every inserted value is found again
    assert size < count  # duplicates were deduplicated


@pytest.mark.parametrize("count", SIZES)
def test_e07_xml_sets(benchmark, count):
    run = make_runner(XML_SET_PROGRAM, count)
    result = benchmark.pedantic(run, rounds=2, iterations=1)
    size, members = result
    assert members == count
    assert size < count


def test_e07_encodings_agree_and_cost_table(benchmark):
    def measure():
        rows = []
        for count in SIZES:
            string_run = make_runner(STRING_SET_PROGRAM, count)
            xml_run = make_runner(XML_SET_PROGRAM, count)

            started = time.perf_counter()
            string_result = string_run()
            string_seconds = time.perf_counter() - started

            started = time.perf_counter()
            xml_result = xml_run()
            xml_seconds = time.perf_counter() - started

            assert string_result == xml_result
            rows.append(
                (
                    count,
                    string_result[0],
                    f"{string_seconds * 1000:.1f}ms",
                    f"{xml_seconds * 1000:.1f}ms",
                    f"{xml_seconds / string_seconds:.1f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "e07_set_encodings.txt",
        format_table(
            ["values", "set size", "string seq", "xml encoded", "ratio"], rows
        ),
    )
    # "several times as expensive": ratio > 1.5 at every size.
    for row in rows:
        assert float(row[-1].rstrip("x")) > 1.5
