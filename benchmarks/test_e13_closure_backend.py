"""E13 — the closure-compiling backend vs the treewalk reference.

The paper's lopsidedness numbers (`e05`, `e06`) are measured on the
period-accurate treewalk.  The closure backend compiles the same optimized
AST to nested Python closures and uses the lazy name indexes on elements;
this experiment shows how much of the gap was interpreter overhead rather
than the language itself — and that the paper's native-vs-XQuery *ordering*
survives: even compiled, the XQuery path stays well behind the native one.

Methodology: this machine's throughput drifts by 2–3x between processes,
so each comparison interleaves the backends inside one process; the
treewalk acts as the in-run control.  Outputs are asserted identical
before anything is timed.

The hard gates (kept CI-noise-proof at a generous 1.0x): the closure
backend is never *slower* than the treewalk on the e05 workloads (best of
N alternations), and neither is the algebra backend — the default, whose
fallback leaves run closure-compiled code — judged on the median of the
interleaved rounds.
"""

import os
import statistics
import time

from conftest import format_table, record_json, record_result
from repro.docgen import NativeDocumentGenerator, XQueryDocumentGenerator
from repro.querycalc import XQueryCalculusBackend, parse_query_xml, run_query
from repro.workloads import make_it_model, table_template
from repro.xmlio import serialize
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

E05_SCALES = [4, 10]
E06_SCALES = [8, 24]
ROUNDS = 5


def _interleaved_samples(tasks, rounds=ROUNDS):
    """Wall times per task, alternating tasks within each round."""
    samples = {name: [] for name in tasks}
    for _ in range(rounds):
        for name, fn in tasks.items():
            started = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - started)
    return samples


def _engine(backend):
    return XQueryEngine(EngineConfig(backend=backend))


def _ms(seconds, digits=1):
    return round(seconds * 1000, digits)


def test_e13_closure_backend_speedups():
    rows = []
    guard_ratios = {}
    algebra_ratios = {}

    # e05: the docgen table workload, full five-phase generate().
    for scale in E05_SCALES:
        model = make_it_model(scale=scale)
        template = table_template("User", "Program", "uses")
        generators = {
            backend: XQueryDocumentGenerator(model, engine=_engine(backend))
            for backend in ("treewalk", "closures", "algebra")
        }
        native = NativeDocumentGenerator(model)
        outputs = {
            backend: serialize(generator.generate(template).document)
            for backend, generator in generators.items()
        }
        assert outputs["treewalk"] == outputs["closures"] == outputs["algebra"]
        assert outputs["treewalk"] == serialize(native.generate(template).document)

        samples = _interleaved_samples(
            {
                backend: (lambda g=generator: g.generate(template))
                for backend, generator in generators.items()
            }
        )
        best = {name: min(times) for name, times in samples.items()}
        median = {name: statistics.median(times) for name, times in samples.items()}
        started = time.perf_counter()
        for _ in range(5):
            native.generate(template)
        native_seconds = (time.perf_counter() - started) / 5
        ratio = best["treewalk"] / best["closures"]
        guard_ratios[f"e05/{scale}"] = ratio
        algebra_ratio = median["treewalk"] / median["algebra"]
        algebra_ratios[f"e05/{scale}"] = algebra_ratio
        # the paper's ordering: native stays far ahead of every backend.
        assert native_seconds < best["closures"]
        assert native_seconds < best["algebra"]
        rows.append(
            {
                "workload": f"e05 docgen {scale}x{max(2, scale // 2)}",
                "treewalk_ms": _ms(best["treewalk"]),
                "closures_ms": _ms(best["closures"]),
                "speedup": round(ratio, 2),
                "treewalk_p50_ms": _ms(median["treewalk"]),
                "algebra_p50_ms": _ms(median["algebra"]),
                "algebra_speedup_p50": round(algebra_ratio, 2),
                "native_ms": _ms(native_seconds, 2),
                "output": "same",
            }
        )

    # e06: the calculus-to-XQuery query workload.
    for scale in E06_SCALES:
        model = make_it_model(scale=scale)
        backends = {
            backend: XQueryCalculusBackend(model, engine=_engine(backend))
            for backend in ("treewalk", "closures")
        }
        for backend in backends.values():
            backend.export  # build the XML export outside the timed region
        ids = {
            name: [n.id for n in backend.run(QUERY)]
            for name, backend in backends.items()
        }
        native_ids = [n.id for n in run_query(QUERY, model)]
        assert ids["treewalk"] == ids["closures"] == native_ids

        samples = _interleaved_samples(
            {
                name: (lambda b=backend: b.run(QUERY))
                for name, backend in backends.items()
            }
        )
        best = {name: min(times) for name, times in samples.items()}
        started = time.perf_counter()
        for _ in range(50):
            run_query(QUERY, model)
        native_seconds = (time.perf_counter() - started) / 50
        ratio = best["treewalk"] / best["closures"]
        guard_ratios[f"e06/{scale}"] = ratio
        assert native_seconds < best["closures"]
        stats = model.stats()
        rows.append(
            {
                "workload": f"e06 query n={stats['nodes']}",
                "treewalk_ms": _ms(best["treewalk"]),
                "closures_ms": _ms(best["closures"]),
                "speedup": round(ratio, 2),
                "treewalk_p50_ms": None,
                "algebra_p50_ms": None,
                "algebra_speedup_p50": None,
                "native_ms": _ms(native_seconds, 2),
                "output": "same",
            }
        )

    columns = list(rows[0])
    record_result(
        "e13_closure_backend.txt",
        format_table(
            columns,
            [["-" if row[column] is None else row[column] for column in columns] for row in rows],
        ),
    )
    record_json(
        "e13_closure_backend.json",
        {"experiment": "e13", "rounds": ROUNDS, "cpu_count": os.cpu_count(), "rows": rows},
    )

    # The CI gate: closures must never regress below the treewalk on the
    # small docgen workload (generous 1.0x so machine noise cannot flake it).
    assert guard_ratios["e05/4"] >= 1.0
    # And every measured workload must at least not regress.
    assert all(ratio >= 1.0 for ratio in guard_ratios.values())
    # The default backend: algebra runs docgen's fallback as closures, so it
    # must not be slower than the treewalk either, judged on the median of
    # the interleaved rounds rather than on a lucky best run.
    assert all(ratio >= 1.0 for ratio in algebra_ratios.values()), algebra_ratios

