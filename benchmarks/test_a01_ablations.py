"""Ablations — measure the design choices the reproduction made.

* A1: optimizer on/off — what dead-let elimination and constant folding
  buy on the real docgen workload (and what the buggy mode silently costs
  you in lost traces).
* A2: query compilation caching — compile-once-run-many vs recompiling
  per query (the engine's `CompiledQuery` design).
* A3: model-export caching in the XQuery calculus backend — the
  workbench-realistic amortization of `export_model`.
"""

import time

from conftest import format_table, record_result
from repro.docgen import XQueryDocumentGenerator
from repro.querycalc import XQueryCalculusBackend, parse_query_xml
from repro.workloads import make_it_model, system_context_template
from repro.xquery import EngineConfig, XQueryEngine


def test_a01_optimizer_ablation(benchmark):
    model = make_it_model(scale=4)
    template = system_context_template()

    def measure():
        rows = []
        for label, config in (
            ("optimize=on", EngineConfig(optimize=True, backend="treewalk")),
            ("optimize=off", EngineConfig(optimize=False, backend="treewalk")),
        ):
            generator = XQueryDocumentGenerator(model, config=config)
            started = time.perf_counter()
            result = generator.generate(template)
            elapsed = time.perf_counter() - started
            rows.append((label, f"{elapsed * 1000:.0f}ms", len(result.problems)))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "a01_optimizer.txt", format_table(["engine", "docgen time", "problems"], rows)
    )
    # both configurations must agree on behaviour.
    assert rows[0][2] == rows[1][2]


def test_a02_compile_caching_ablation(benchmark):
    """A2: the engine's LRU compile cache vs recompiling per query.

    The cached engine's `evaluate` goes through `XQueryEngine.compile`,
    which is the same code path the docgen runner and the calculus backend
    use, so the hit/miss counters in the table are the cache's own numbers
    rather than a re-timing estimate.
    """
    source = (
        "declare function local:f($n) { if ($n le 0) then 0 "
        "else $n + local:f($n - 1) }; local:f($in)"
    )
    runs = 30

    def measure():
        cached_engine = XQueryEngine(EngineConfig(backend="treewalk"))
        uncached_engine = XQueryEngine(
            EngineConfig(compile_cache_size=0, backend="treewalk")
        )

        started = time.perf_counter()
        for index in range(runs):
            cached_engine.evaluate(source, variables={"in": index % 10})
        cached_seconds = time.perf_counter() - started
        info = cached_engine.cache_info()

        started = time.perf_counter()
        for index in range(runs):
            uncached_engine.evaluate(source, variables={"in": index % 10})
        recompile_seconds = time.perf_counter() - started
        uncached_info = uncached_engine.cache_info()

        return [
            (
                "lru cache on",
                f"{cached_seconds / runs * 1000:.2f}ms/run",
                f"{info['hits']}/{info['misses']}",
                f"{info['currsize']}/{info['maxsize']}",
            ),
            (
                "cache off (size=0)",
                f"{recompile_seconds / runs * 1000:.2f}ms/run",
                f"{uncached_info['hits']}/{uncached_info['misses']}",
                f"{uncached_info['currsize']}/{uncached_info['maxsize']}",
            ),
            (
                "compile overhead",
                f"{(recompile_seconds - cached_seconds) / runs * 1000:.2f}ms/run",
                "",
                "",
            ),
        ], info

    (rows, info) = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "a02_compile_caching.txt",
        format_table(["mode", "cost", "hits/misses", "cache fill"], rows),
    )
    # the cache really was exercised: one miss, then all hits.
    assert info["misses"] == 1
    assert info["hits"] == runs - 1


def test_a03_export_caching_ablation(benchmark):
    model = make_it_model(scale=16)
    query = parse_query_xml(
        '<query><start type="User"/><follow relation="uses"/>'
        '<collect sort-by="label"/></query>'
    )
    runs = 3

    def measure():
        backend = XQueryCalculusBackend(
            model, engine=XQueryEngine(EngineConfig(backend="treewalk"))
        )
        backend.export  # warm
        started = time.perf_counter()
        for _ in range(runs):
            backend.run(query)
        cached_seconds = (time.perf_counter() - started) / runs

        # the cost being amortized: building the export itself.
        started = time.perf_counter()
        for _ in range(runs):
            backend.invalidate_export()
            backend.export
        export_seconds = (time.perf_counter() - started) / runs
        return [
            ("query (export cached)", f"{cached_seconds * 1000:.1f}ms"),
            ("export rebuild", f"{export_seconds * 1000:.1f}ms"),
            (
                "rebuild as share of query",
                f"{export_seconds / cached_seconds * 100:.0f}%",
            ),
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result("a03_export_caching.txt", format_table(["what", "cost"], rows))
    assert float(rows[1][1].rstrip("ms")) > 0.0


def test_a04_error_regime_ablation(benchmark):
    """A4: the whole generator under both error regimes.

    The exceptions-regime sources (modules_trycatch/) are the
    counterfactual generator — same behaviour, lesson 4 heeded.  Measures
    the code the error-value convention costs and the runtime difference.
    """
    from repro.docgen.xquery_impl import (
        LIBRARY_MODULES,
        LIBRARY_MODULES_TC,
        read_module,
    )
    from repro.workloads.loc import count_xquery_loc
    from repro.xmlio import serialize

    model = make_it_model(scale=5)
    template = system_context_template()

    def measure():
        values_loc = sum(
            count_xquery_loc(read_module(name)) for name in LIBRARY_MODULES
        )
        exceptions_loc = sum(
            count_xquery_loc(read_module(name)) for name in LIBRARY_MODULES_TC
        )

        values_generator = XQueryDocumentGenerator(
            model, config=EngineConfig(backend="treewalk")
        )
        exceptions_generator = XQueryDocumentGenerator(
            model, config=EngineConfig(backend="treewalk"), error_regime="exceptions"
        )
        started = time.perf_counter()
        values_result = values_generator.generate(template)
        values_seconds = time.perf_counter() - started
        started = time.perf_counter()
        exceptions_result = exceptions_generator.generate(template)
        exceptions_seconds = time.perf_counter() - started
        identical = serialize(values_result.document) == serialize(
            exceptions_result.document
        )
        return [
            ("error-value regime", values_loc, f"{values_seconds * 1000:.0f}ms"),
            (
                "try/catch regime",
                exceptions_loc,
                f"{exceptions_seconds * 1000:.0f}ms",
            ),
            (
                "ladder share of code",
                f"{100 * (values_loc - exceptions_loc) / values_loc:.0f}%",
                "same output" if identical else "DIFFER",
            ),
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "a04_error_regime.txt",
        format_table(["generator sources", "loc", "docgen time"], rows),
    )
    assert rows[2][2] == "same output"
    assert rows[1][1] < rows[0][1]
