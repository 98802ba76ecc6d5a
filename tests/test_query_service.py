"""The query service: caching, invalidation, batching, metrics, CLI."""

import pytest

from repro.awb import export_model_text
from repro.querycalc import (
    QueryService,
    XQueryCalculusBackend,
    normalize_query,
    parse_query_xml,
    run_query,
)
from repro.querycalc.service import PlanCache, QueryPlan, ResultCache
from repro.querycalc.service.service import _percentile
from repro.workloads import make_it_model

LIKES_USES = """
    <query>
      <start type="User"/>
      <follow relation="likes"/>
      <follow relation="uses" target-type="Program"/>
      <collect sort-by="label"/>
    </query>
"""

ALL_USERS = '<query><start type="User"/><collect sort-by="label"/></query>'

QUERIES = [
    LIKES_USES,
    ALL_USERS,
    '<query><start all="true"/><filter-type type="Program"/><collect/></query>',
    '<query><start type="User"/>'
    '<filter-property name="birthYear" op="ge" value="1970"/>'
    '<collect order="descending"/></query>',
]


@pytest.fixture()
def model():
    return make_it_model(scale=6)


@pytest.fixture()
def service(model):
    return QueryService(model)


def ids(nodes):
    return [node.id for node in nodes]


class TestNormalization:
    def test_equal_queries_share_a_key(self):
        assert normalize_query(parse_query_xml(LIKES_USES)) == normalize_query(
            parse_query_xml(LIKES_USES)
        )

    def test_different_queries_differ(self):
        keys = {normalize_query(parse_query_xml(source)) for source in QUERIES}
        assert len(keys) == len(QUERIES)

    def test_key_is_readable(self):
        key = normalize_query(parse_query_xml(LIKES_USES))
        assert key.startswith("start(type='User')|follow('likes'")


class TestQueryServiceCorrectness:
    @pytest.mark.parametrize("source", QUERIES)
    def test_matches_native_interpreter(self, model, service, source):
        query = parse_query_xml(source)
        assert ids(service.run(query)) == ids(run_query(query, model))

    @pytest.mark.parametrize("source", QUERIES)
    def test_native_backend_service_matches_too(self, model, source):
        service = QueryService(model, backend="native")
        query = parse_query_xml(source)
        assert ids(service.run(query)) == ids(run_query(query, model))

    def test_warm_run_is_a_cache_hit_with_same_results(self, model, service):
        query = parse_query_xml(LIKES_USES)
        first = service.run(query)
        second = service.run(query)
        assert ids(first) == ids(second)
        metrics = service.metrics()
        assert metrics["queries"] == 2
        assert metrics["executed"] == 1
        assert metrics["hits"] == 1

    def test_mutation_invalidates_results(self, model, service):
        query = parse_query_xml(ALL_USERS)
        before = ids(service.run(query))
        added = model.create_node("User", label="AAA-first")
        after = ids(service.run(query))
        assert added.id in after and added.id not in before
        assert after == ids(run_query(parse_query_xml(ALL_USERS), model))

    def test_node_removal_invalidates_results(self, model, service):
        query = parse_query_xml(ALL_USERS)
        victim = model.nodes_of_type("User", include_subtypes=False)[0]
        assert victim.id in ids(service.run(query))
        model.remove_node(victim)
        assert victim.id not in ids(service.run(query))

    def test_property_mutation_invalidates_results(self, model, service):
        source = (
            '<query><start type="User"/>'
            '<filter-property name="firstName" op="eq" value="Zed"/>'
            "<collect/></query>"
        )
        query = parse_query_xml(source)
        assert ids(service.run(query)) == []
        model.nodes_of_type("User")[0].set("firstName", "Zed")
        assert len(ids(service.run(query))) == 1

    def test_results_are_live_model_nodes(self, model, service):
        nodes = service.run(parse_query_xml(ALL_USERS))
        assert all(model.nodes[node.id] is node for node in nodes)

    def test_invalidate_clears_and_recovers(self, model, service):
        query = parse_query_xml(LIKES_USES)
        expected = ids(service.run(query))
        service.invalidate()
        assert ids(service.run(query)) == expected
        assert service.cache_stats()["export"]["full_exports"] == 2

    def test_rejects_unknown_backend(self, model):
        with pytest.raises(ValueError):
            QueryService(model, backend="graphql")


class TestQueryServiceBatch:
    def test_batch_matches_sequential(self, model, service):
        queries = [parse_query_xml(source) for source in QUERIES] * 3
        batch = service.run_batch(queries, workers=4)
        assert [ids(result) for result in batch] == [
            ids(run_query(query, model)) for query in queries
        ]

    def test_batch_deduplicates_within_the_batch(self, model, service):
        queries = [parse_query_xml(LIKES_USES) for _ in range(8)]
        service.run_batch(queries, workers=4)
        metrics = service.metrics()
        assert metrics["queries"] == 8
        assert metrics["executed"] == 1
        assert metrics["batch_deduped"] == 7

    def test_batch_reuses_result_cache_across_calls(self, model, service):
        queries = [parse_query_xml(source) for source in QUERIES]
        service.run_batch(queries)
        service.run_batch(queries)
        metrics = service.metrics()
        assert metrics["executed"] == len(QUERIES)
        assert metrics["hits"] == len(QUERIES)

    def test_empty_batch(self, service):
        assert service.run_batch([]) == []

    def test_single_worker_batch(self, model, service):
        queries = [parse_query_xml(source) for source in QUERIES]
        batch = service.run_batch(queries, workers=1)
        assert [ids(result) for result in batch] == [
            ids(run_query(query, model)) for query in queries
        ]


class TestMetricsAndStats:
    def test_metrics_shape(self, service):
        service.run(parse_query_xml(ALL_USERS))
        metrics = service.metrics()
        for field in (
            "backend", "queries", "batches", "executed", "batch_deduped",
            "errors", "timeouts", "fallbacks", "errors_by_kind",
            "hits", "misses", "plan_hits", "plan_misses", "p50_ms", "p95_ms",
        ):
            assert field in metrics
        assert metrics["p50_ms"] >= 0.0
        assert metrics["p95_ms"] >= metrics["p50_ms"] or metrics["queries"] < 2

    def test_cache_stats_layers(self, service):
        service.run(parse_query_xml(ALL_USERS))
        stats = service.cache_stats()
        assert stats["plans"]["misses"] == 1
        assert stats["results"]["misses"] == 1
        assert stats["compile"]["currsize"] == 1
        assert stats["export"]["full_exports"] == 1

    def test_incremental_export_is_subtree_only_after_point_mutation(
        self, model, service
    ):
        query = parse_query_xml(ALL_USERS)
        service.run(query)
        model.nodes_of_type("User")[0].set("firstName", "Patched")
        service.run(query)
        stats = service.cache_stats()["export"]
        assert stats["full_exports"] == 1
        assert stats["subtree_exports"] == 1


class TestClose:
    def test_close_detaches_the_model_listener(self, model):
        before = len(model._listeners)
        service = QueryService(model)
        assert len(model._listeners) == before + 1
        service.close()
        assert len(model._listeners) == before
        service.close()  # idempotent
        assert len(model._listeners) == before

    def test_context_exit_detaches_and_writes_stay_local(self, model):
        before = len(model._listeners)
        with QueryService(model) as service:
            service.run(parse_query_xml(ALL_USERS))
        assert len(model._listeners) == before
        # a write after close no longer reaches the discarded exporter
        model.nodes_of_type("User")[0].set("firstName", "After")
        assert not service._backend._exporter._has_pending()

    def test_closed_service_refuses_work(self, model):
        service = QueryService(model)
        query = parse_query_xml(ALL_USERS)
        service.run(query)
        service.close()
        # the exporter no longer follows the model, so answering would mean
        # answering from a stale export.
        model.nodes_of_type("User")[0].set("firstName", "After")
        with pytest.raises(RuntimeError, match="closed"):
            service.run(query)
        with pytest.raises(RuntimeError, match="closed"):
            service.run_batch([query])
        with pytest.raises(RuntimeError, match="closed"):
            service.explain(query)
        with pytest.raises(RuntimeError, match="closed"):
            service.apply_update('insert node Document with (label "d")')
        assert service.metrics()["queries"] == 1

    def test_native_backend_close_is_harmless(self, model):
        before = len(model._listeners)
        QueryService(model, backend="native").close()
        assert len(model._listeners) == before


class TestPlanAndResultCacheUnits:
    def test_plan_cache_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda k=key: QueryPlan(k, "native", None))
        stats = cache.stats()
        assert stats["currsize"] == 2
        assert stats["misses"] == 3
        # "a" was evicted; rebuilding it is a miss again
        cache.get_or_build("a", lambda: QueryPlan("a", "native", None))
        assert cache.stats()["misses"] == 4

    def test_result_cache_generation_keys_do_not_collide(self):
        cache = ResultCache(maxsize=8)
        cache.put(("q", 1), ["N1"])
        cache.put(("q", 2), ["N2"])
        assert cache.get(("q", 1)) == (["N1"], ())
        assert cache.get(("q", 2)) == (["N2"], ())

    def test_result_cache_returns_copies(self):
        cache = ResultCache(maxsize=8)
        cache.put(("q", 1), ["N1"])
        first_ids, _ = cache.get(("q", 1))
        first_ids.append("N2")
        assert cache.get(("q", 1)) == (["N1"], ())

    def test_result_cache_keeps_traces(self):
        cache = ResultCache(maxsize=8)
        cache.put(("q", 1), ["N1"], traces=["probe 1"])
        assert cache.get(("q", 1)) == (["N1"], ("probe 1",))

    def test_zero_sized_caches_disable_cleanly(self, model):
        service = QueryService(model, plan_cache_size=0, result_cache_size=0)
        query = parse_query_xml(ALL_USERS)
        expected = ids(run_query(query, model))
        assert ids(service.run(query)) == expected
        assert ids(service.run(query)) == expected
        assert service.metrics()["executed"] == 2  # nothing was cached


class TestPercentile:
    """The ceil-based nearest-rank formula (the round() one was off by one)."""

    def test_empty(self):
        assert _percentile([], 0.5) == 0.0

    def test_median_of_odd_count_is_the_middle_value(self):
        # round(0.5 * 5) == 2 under banker's rounding — the old bug
        assert _percentile([5.0, 1.0, 4.0, 2.0, 3.0], 0.50) == 3.0

    def test_median_of_two(self):
        # nearest-rank p50 of two samples is the lower one (rank ceil(1.0)=1)
        assert _percentile([1.0, 2.0], 0.50) == 1.0

    def test_p95_of_one_hundred(self):
        samples = [float(value) for value in range(1, 101)]
        assert _percentile(samples, 0.95) == 95.0
        assert _percentile(samples, 0.50) == 50.0

    def test_extremes_clamp(self):
        samples = [1.0, 2.0, 3.0]
        assert _percentile(samples, 0.0) == 1.0
        assert _percentile(samples, 1.0) == 3.0

    def test_single_sample(self):
        assert _percentile([7.0], 0.95) == 7.0


class TestBackendParityUnderService:
    def test_service_and_raw_backend_agree(self, model):
        # the service must not change what the engine computes, only when.
        backend = XQueryCalculusBackend(model)
        service = QueryService(model)
        for source in QUERIES:
            query = parse_query_xml(source)
            assert ids(service.run(query)) == ids(backend.run(query))


class TestServiceCli:
    @pytest.fixture()
    def model_file(self, tmp_path):
        path = tmp_path / "model.xml"
        path.write_text(export_model_text(make_it_model(scale=3)), encoding="utf-8")
        return str(path)

    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "query.xml"
        path.write_text(ALL_USERS, encoding="utf-8")
        return str(path)

    def test_service_backend_agrees_with_native(self, model_file, query_file, capsys):
        from repro.querycalc.__main__ import main as calc_main

        assert calc_main(["--model", model_file, "--query", query_file]) == 0
        native_out = capsys.readouterr().out
        assert (
            calc_main(
                ["--model", model_file, "--query", query_file, "--backend", "service"]
            )
            == 0
        )
        assert capsys.readouterr().out == native_out

    def test_repeat_prints_cold_then_warm(self, model_file, query_file, capsys):
        from repro.querycalc.__main__ import main as calc_main

        calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "service",
                "--repeat", "3",
                "--time",
            ]
        )
        err = capsys.readouterr().err
        assert "run 1" in err and "(cold)" in err
        assert "run 3" in err and "(warm)" in err
        assert "service backend" in err
        assert "result-cache hit(s)" in err

    def test_repeat_works_for_other_backends(self, model_file, query_file, capsys):
        from repro.querycalc.__main__ import main as calc_main

        calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "xquery",
                "--repeat", "2",
                "--time",
            ]
        )
        err = capsys.readouterr().err
        assert "best of 2" in err and "xquery backend" in err

    def test_repeat_rejects_zero(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        with pytest.raises(SystemExit):
            calc_main(
                [
                    "--model", model_file,
                    "--query", query_file,
                    "--repeat", "0",
                ]
            )

    def test_timeout_completes_with_ample_budget(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        assert calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "service",
                "--timeout", "30",
            ]
        ) == 0

    def test_injected_faults_exit_nonzero_with_structured_error(
        self, model_file, query_file, capsys
    ):
        from repro.querycalc.__main__ import main as calc_main

        code = calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "service",
                "--inject-faults", "eval=1.0,kind=dynamic",
                "--time",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "query failed — dynamic:" in err
        assert "1/1 run(s) failed" in err
        assert "error(s)" in err and "fallback(s)" in err

    def test_fault_flags_require_service_backend(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        with pytest.raises(SystemExit):
            calc_main(
                ["--model", model_file, "--query", query_file, "--timeout", "1"]
            )
        with pytest.raises(SystemExit):
            calc_main(
                [
                    "--model", model_file,
                    "--query", query_file,
                    "--inject-faults", "eval=0.5",
                ]
            )

    def test_bad_fault_spec_rejected(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        with pytest.raises(SystemExit):
            calc_main(
                [
                    "--model", model_file,
                    "--query", query_file,
                    "--backend", "service",
                    "--inject-faults", "explode=1.0",
                ]
            )
