"""E5 — the row/column table: all-at-once functional vs skeleton-then-fill.

"Producing this in XQuery takes a certain amount of care, because each row
and then the table itself must be produced in its entirety, all at once...
The Java was substantially easier to arrange."

Both implementations must produce the same table; the functional one pays
the all-at-once construction cost (every nested constructor re-copies its
children).
"""

import pytest

from conftest import format_table, record_result
from repro.docgen import NativeDocumentGenerator, XQueryDocumentGenerator
from repro.workloads import make_it_model, table_template
from repro.xmlio import serialize
from repro.xquery import EngineConfig

#: the paper's period engine: a naive interpreter, pinned explicitly.
TREEWALK = EngineConfig(backend="treewalk")

SIZES = [4, 10, 20]  # model scale drives rows (users) and cols (programs)


def checkmark_count(document):
    return serialize(document).count("✓")


@pytest.mark.parametrize("scale", SIZES)
def test_e05_native_skeleton_fill(benchmark, scale):
    model = make_it_model(scale=scale)
    template = table_template("User", "Program", "uses")
    generator = NativeDocumentGenerator(model)
    result = benchmark(lambda: generator.generate(template))
    assert checkmark_count(result.document) > 0


@pytest.mark.parametrize("scale", SIZES)
def test_e05_xquery_all_at_once(benchmark, scale):
    model = make_it_model(scale=scale)
    template = table_template("User", "Program", "uses")
    generator = XQueryDocumentGenerator(model, config=TREEWALK)
    result = benchmark.pedantic(
        lambda: generator.generate(template), rounds=1, iterations=1
    )
    assert checkmark_count(result.document) > 0


def test_e05_tables_identical_and_ratio(benchmark):
    import time

    def measure():
        rows = []
        for scale in SIZES:
            model = make_it_model(scale=scale)
            template = table_template("User", "Program", "uses")
            native_generator = NativeDocumentGenerator(model)
            xquery_generator = XQueryDocumentGenerator(model, config=TREEWALK)

            started = time.perf_counter()
            for _ in range(5):
                native_result = native_generator.generate(template)
            native_seconds = (time.perf_counter() - started) / 5

            started = time.perf_counter()
            xquery_result = xquery_generator.generate(template)
            xquery_seconds = time.perf_counter() - started

            same = serialize(native_result.document) == serialize(
                xquery_result.document
            )
            rows.append(
                (
                    f"{scale}x{max(2, scale // 2)}",
                    f"{native_seconds * 1000:.1f}ms",
                    f"{xquery_seconds * 1000:.1f}ms",
                    f"{xquery_seconds / native_seconds:.0f}x",
                    "same" if same else "DIFFER",
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "e05_table_generation.txt",
        format_table(
            ["table size", "skeleton+fill", "all-at-once", "slowdown", "output"], rows
        ),
    )
    for row in rows:
        assert row[-1] == "same"
        assert float(row[-2].rstrip("x")) > 1.0
