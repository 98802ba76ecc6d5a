"""E6 — "Calling XQuery from Java to evaluate queries was preposterously
inefficient, and would have made the workbench unusably slow."

The same calculus queries run through the native graph interpreter and
through compilation-to-XQuery over the XML export, across model sizes and
query batch sizes (the UI runs many small queries).
"""

import time

import pytest

from conftest import format_table, record_json, record_result
from repro.querycalc import XQueryCalculusBackend, parse_query_xml, run_query
from repro.workloads import make_it_model
from repro.xquery import EngineConfig, XQueryEngine

QUERY = parse_query_xml(
    """
    <query>
      <start type="User"/>
      <follow relation="likes"/>
      <follow relation="uses" target-type="Program"/>
      <collect sort-by="label"/>
    </query>
    """
)

SCALES = [8, 24, 48]


def _treewalk():
    """The paper's period engine: a naive interpreter, pinned explicitly."""
    return XQueryEngine(EngineConfig(backend="treewalk"))


@pytest.mark.parametrize("scale", SCALES)
def test_e06_native_backend(benchmark, scale):
    model = make_it_model(scale=scale)
    result = benchmark(lambda: run_query(QUERY, model))
    assert result  # the query finds programs


@pytest.mark.parametrize("scale", SCALES)
def test_e06_xquery_backend(benchmark, scale):
    model = make_it_model(scale=scale)
    backend = XQueryCalculusBackend(model, engine=_treewalk())
    backend.export  # build the export outside the timed region
    result = benchmark.pedantic(lambda: backend.run(QUERY), rounds=1, iterations=1)
    assert [n.id for n in result] == [n.id for n in run_query(QUERY, model)]


def test_e06_slowdown_table(benchmark):
    def measure():
        rows = []
        for scale in SCALES:
            model = make_it_model(scale=scale)
            backend = XQueryCalculusBackend(model, engine=_treewalk())
            backend.export

            started = time.perf_counter()
            for _ in range(50):
                run_query(QUERY, model)
            native_seconds = (time.perf_counter() - started) / 50

            started = time.perf_counter()
            backend.run(QUERY)
            xquery_seconds = time.perf_counter() - started

            rows.append(
                (
                    model.stats()["nodes"],
                    model.stats()["relations"],
                    f"{native_seconds * 1000:.2f}ms",
                    f"{xquery_seconds * 1000:.1f}ms",
                    f"{xquery_seconds / native_seconds:.0f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "e06_query_backends.txt",
        format_table(
            ["nodes", "relations", "native/query", "xquery/query", "slowdown"], rows
        ),
    )
    record_json(
        "e06_query_backends.json",
        {
            "experiment": "e06",
            "rows": [
                {
                    "nodes": nodes,
                    "relations": relations,
                    "native_ms": float(native.rstrip("ms")),
                    "xquery_ms": float(xquery.rstrip("ms")),
                    "slowdown": float(slowdown.rstrip("x")),
                }
                for nodes, relations, native, xquery, slowdown in rows
            ],
        },
    )
    # shape: at least an order of magnitude at every size, growing with
    # model size (the joins scan the whole export per hop).
    slowdowns = [float(row[-1].rstrip("x")) for row in rows]
    assert all(s >= 10 for s in slowdowns)
    assert slowdowns[-1] > slowdowns[0]
