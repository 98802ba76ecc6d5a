"""The benchmark's own tests.

    python3 -m pytest xqbench/tests -q

Each workload gets two short traced runs of one seed (an untraced and a
traced cycle each), shared by the tests below.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from loop import Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: per-layer metrics that are exact counts or ratios of counts.
EXACT = [
    "xquery.algebra.plan_nodes_per_read",
    "xquery.algebra.fallback_leaf_share",
    "xquery.api.compile_cache_hit_ratio",
    "querycalc.service.result_hit_ratio",
    "querycalc.service.plan_hit_ratio",
    "querycalc.service.kept_per_write",
    "querycalc.service.patched_per_write",
    "querycalc.service.invalidated_per_write",
    "serving.pool.calls_per_read",
    "serving.pool.respawns",
    "docgen.bytes_copied_per_doc",
    "collections.service.cache_hit_ratio",
    "collections.service.scatter_share",
    "collections.worker.requests_per_read",
    "collections.fulltext.maintenance_ops_per_write",
]

_RUNS = {}


def traced_run(name: str, attempt: int) -> Run:
    key = (name, attempt)
    if key not in _RUNS:
        run = Run(WORKLOADS[name](seed=7), seconds=0, trace=True)
        try:
            run.set_up()
            run.execute()
        finally:
            run.workload.close()
        _RUNS[key] = run
    return _RUNS[key]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_span_trees_nest_under_one_request_id(name):
    run = traced_run(name, 0)
    assert run.failed == 0, run.failures
    roots = run.tracer.roots
    assert roots and len({root.request_id for root in roots}) == len(roots)
    for root in roots:
        assert root.parent_id is None and root.name.startswith("op.")
        for span in root.walk():
            assert span.request_id == root.request_id
            previous_end = span.start_ns
            for child in span.children:
                assert child.parent_id == span.span_id
                assert previous_end <= child.start_ns <= child.end_ns <= span.end_ns
                previous_end = child.end_ns


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_are_non_negative_and_add_up(name):
    run = traced_run(name, 0)
    layers = set()
    for root in run.tracer.roots:
        spans = list(root.walk())
        layers.update(span.name for span in spans[1:])
        assert all(span.self_ns >= 0 for span in spans)
        assert sum(span.self_ns for span in spans) == root.duration_ns
    assert layers, "no layer entry point was traced"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(name):
    first = traced_run(name, 0).per_layer()
    second = traced_run(name, 1).per_layer()
    assert {key: first[key] for key in EXACT} == {key: second[key] for key in EXACT}


def test_traced_runs_cover_their_layers():
    expected = {
        "calc_cold": ["xquery.parser.self_ms_per_read", "xquery.algebra.execute_ms_per_read",
                      "querycalc.via_xquery.ms_per_read", "xquery.algebra.plan_nodes_per_read"],
        "served_rw": ["serving.pool.execute_ms_per_call", "serving.pool.delta_ms_per_write",
                      "xquery.updates.apply_ms_per_write", "awb.xml_io.export_ms_per_write"],
        "search_rw": ["collections.worker.wait_ms_per_read", "collections.store.put_ms_per_write",
                      "collections.fulltext.maintenance_ops_per_write"],
        "docgen": ["docgen.phase1_generate_ms", "docgen.phase5_strip_ms", "xslt.transform_ms_per_doc",
                   "xmlio.serialize_ms_per_doc", "docgen.bytes_copied_per_doc"],
    }
    for name, metrics in expected.items():
        values = traced_run(name, 0).per_layer()
        assert all(values[metric] > 0 for metric in metrics), (name, values)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_make_different_inputs(name):
    workload = WORKLOADS[name]
    assert workload(1).fingerprint() == workload(1).fingerprint()
    assert workload(1).fingerprint() != workload(2).fingerprint()


def test_oracles_reject_wrong_outputs():
    calc = WORKLOADS["calc_cold"](3)
    calc.set_up()
    outputs = ((op, op.call()) for op in calc.ops() if op.kind == "read")
    read, output = next((op, out) for op, out in outputs if len(out) > 1)
    assert read.check(output) is None
    assert read.check(list(output)[1:]) is not None
    from repro.collections import SearchRequest

    search = WORKLOADS["search_rw"](3)
    search.warm()
    request = SearchRequest(kind="search", collection="docs/", phrase="alpha")
    hits = search.counter.hits("docs/", "alpha", 0)
    check = search._read_check(request)

    def served(rows):
        return SimpleNamespace(text="".join(f'<hit uri="{u}" score="{n}"/>' for u, n in rows))

    assert len(hits) > 1 and check(served(hits)) is None
    assert check(served(hits[1:])) is not None
    assert check(served([(uri, n + 1) for uri, n in hits])) is not None


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "xqbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "xqbench/run.py", "--workload", "calc_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
