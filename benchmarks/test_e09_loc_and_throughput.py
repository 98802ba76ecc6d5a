"""E9 — the rewrite comparison: code size and end-to-end throughput.

"Our XQuery program ended up being a few thousand lines long...  When
circumstances forced us to rewrite that component in Java, the rewrite
took a small fraction of the time...  In a few weeks we had pretty much
reproduced the power of the XQuery code."

We measure the two *shipped* generator implementations of this repo:
lines of code of each (the .xq sources vs the Java-style Python), and
end-to-end System Context generation throughput.
"""

import os
import time

from conftest import format_table, record_result
from repro.docgen import NativeDocumentGenerator, XQueryDocumentGenerator
from repro.workloads import make_it_model, system_context_template
from repro.workloads.loc import inventory
from repro.xquery import EngineConfig

#: the paper's period engine: a naive interpreter, pinned explicitly.
TREEWALK = EngineConfig(backend="treewalk")

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src", "repro")

XQUERY_IMPL_PATHS = [os.path.join(SRC, "docgen", "xquery_impl", "modules")]
NATIVE_IMPL_PATHS = [os.path.join(SRC, "docgen", "native")]


def loc_rows():
    xquery_files = inventory(XQUERY_IMPL_PATHS)
    native_files = inventory(NATIVE_IMPL_PATHS)
    xquery_total = sum(xquery_files.values())
    native_total = sum(native_files.values())
    return xquery_files, native_files, xquery_total, native_total


def test_e09_loc_inventory(benchmark):
    xquery_files, native_files, xquery_total, native_total = benchmark.pedantic(
        loc_rows, rounds=3, iterations=1
    )
    rows = []
    for path, loc in sorted(xquery_files.items()):
        rows.append(("xquery", os.path.basename(path), loc))
    for path, loc in sorted(native_files.items()):
        rows.append(("java-style", os.path.basename(path), loc))
    rows.append(("xquery", "TOTAL", xquery_total))
    rows.append(("java-style", "TOTAL", native_total))
    record_result(
        "e09_loc.txt", format_table(["implementation", "file", "loc"], rows)
    )
    # shape: the functional implementation is bigger than the rewrite
    # (the error ladders and phase copies are all code).
    assert xquery_total > native_total
    # and the walk is "a hundred lines of code" scale, not thousands.
    assert xquery_total < 2000


def test_e09_end_to_end_throughput(benchmark):
    def measure():
        rows = []
        for scale in (4, 8, 16):
            model = make_it_model(scale=scale)
            template = system_context_template()
            native_generator = NativeDocumentGenerator(model)
            xquery_generator = XQueryDocumentGenerator(model, config=TREEWALK)

            started = time.perf_counter()
            for _ in range(5):
                native_result = native_generator.generate(template)
            native_seconds = (time.perf_counter() - started) / 5

            started = time.perf_counter()
            xquery_result = xquery_generator.generate(template)
            xquery_seconds = time.perf_counter() - started

            assert sorted(native_result.visited_node_ids) == sorted(
                xquery_result.visited_node_ids
            )
            rows.append(
                (
                    model.stats()["nodes"],
                    f"{native_seconds * 1000:.1f}ms",
                    f"{xquery_seconds * 1000:.0f}ms",
                    f"{xquery_seconds / native_seconds:.0f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "e09_throughput.txt",
        format_table(["model nodes", "java-style", "xquery", "slowdown"], rows),
    )
    for row in rows:
        assert float(row[-1].rstrip("x")) > 5.0
