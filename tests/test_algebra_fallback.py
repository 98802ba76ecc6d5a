"""Algebra fallback leaves run closure-compiled code, never the treewalk.

Every ``EvalPlan`` leaf of an algebra program carries a closure built by
the closure backend's compiler, and a whole-body fallback runs that
closure directly.  The document generator is the workload that lives on
fallback (its recursive library functions lie outside the lowered
fragment), so it pins both halves of the contract: no fallback reaches
the reference evaluator, and the output stays byte-identical to it.
"""

import pytest

import repro.docgen.xquery_impl.runner as runner
import repro.xquery.algebra as algebra
import repro.xquery.algebra.executor as executor
import repro.xquery.api as api
import repro.xquery.compiler as compiler
import repro.xquery.evaluator as evaluator
from repro.docgen import XQueryDocumentGenerator
from repro.docgen.xquery_impl import assemble_main_program
from repro.workloads import (
    make_it_model,
    simple_list_template,
    system_context_template,
    table_template,
    toc_heavy_template,
)
from repro.xmlio import serialize
from repro.xquery import EngineConfig, TraceLog, XQueryEngine
from repro.xquery.algebra.plans import EvalPlan

TEMPLATES = {
    "list": lambda: simple_list_template("User"),
    "table": lambda: table_template("User", "Program", "uses"),
    "toc": lambda: toc_heavy_template(3),
    "system_context": system_context_template,
}

REGIMES = ("values", "exceptions")


def _leaves(plan):
    return [node for node in algebra._walk(plan) if isinstance(node, EvalPlan)]


@pytest.fixture(scope="module")
def model():
    return make_it_model(scale=3)


def _generator(model, backend, regime):
    return XQueryDocumentGenerator(
        model, config=EngineConfig(backend=backend), error_regime=regime
    )


def _treewalk_forbidden(*args, **kwargs):
    raise AssertionError("an algebra fallback reached the treewalk evaluator")


class TestNoTreewalkOnTheFastPath:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_docgen_phases_never_call_the_treewalk(self, model, regime, monkeypatch):
        generator = _generator(model, "algebra", regime)
        monkeypatch.setattr(algebra, "evaluate", _treewalk_forbidden)
        monkeypatch.setattr(executor, "evaluate", _treewalk_forbidden)
        monkeypatch.setattr(api, "evaluate", _treewalk_forbidden)
        # any recursion through the reference interpreter goes through here
        monkeypatch.setattr(evaluator, "evaluate", _treewalk_forbidden)
        # the XSLT stream split runs on the treewalk by design; it is not
        # one of the five XQuery phases.
        monkeypatch.setattr(runner, "transform", lambda stylesheet, document: [])
        for make_template in TEMPLATES.values():
            result = generator.generate(make_template())
            assert set(result.metrics["bytes_per_phase"]) == {
                "phase1_generate",
                "phase2_omissions",
                "phase3_toc",
                "phase4_replace",
                "phase5_strip",
            }

    def test_every_phase_program_has_compiled_leaves(self, model):
        generator = _generator(model, "algebra", "values")
        generator.generate(simple_list_template("User"))
        assert len(generator._compiled) == 5
        for query in generator._compiled.values():
            leaves = _leaves(query.algebra.plan)
            assert leaves
            assert all(leaf.thunk is not None for leaf in leaves)

    def test_no_leaves_compiles_nothing(self, monkeypatch):
        # a query that lowers completely builds no closure compiler at all.
        monkeypatch.setattr(algebra, "_Compiler", _treewalk_forbidden)
        engine = XQueryEngine(EngineConfig(backend="algebra"))
        query = engine.compile(
            "declare variable $d external; for $n in $d/a/b return $n"
        )
        assert not _leaves(query.algebra.plan)
        assert query.run(variables={"d": []}) == []

    def test_function_bodies_compile_on_first_call(self, monkeypatch):
        compiled = []
        original = compiler._Compiler.compile

        def spy(self, expr):
            compiled.append(expr)
            return original(self, expr)

        monkeypatch.setattr(compiler._Compiler, "compile", spy)
        engine = XQueryEngine(EngineConfig(backend="algebra"))
        query = engine.compile(
            "declare function local:used($n) "
            "{ if ($n le 0) then 0 else $n + local:used($n - 1) };\n"
            "declare function local:unused($n) { $n };\n"
            "local:used(4)"
        )
        used, unused = (declaration.body for declaration in query.module.functions)
        assert query.algebra.trivial
        assert not any(expr is used for expr in compiled)
        assert query.run() == [10]
        assert sum(expr is used for expr in compiled) == 1
        assert not any(expr is unused for expr in compiled)

    def test_declared_globals_bind_through_closures(self, monkeypatch):
        monkeypatch.setattr(api, "evaluate", _treewalk_forbidden)
        monkeypatch.setattr(evaluator, "evaluate", _treewalk_forbidden)
        engine = XQueryEngine(EngineConfig(backend="algebra"))
        query = engine.compile(
            "declare variable $n := count((1, 2, 3));\n"
            "for $i in 1 to $n return $i * $n"
        )
        assert query.run() == [3, 6, 9]


#: the generator's recursive descent, with a trace on every template node.
WALK = "for $c in $children return local:gen($c, $focus, $depth)"
TRACED_WALK = (
    'for $c in $children return local:gen(trace($c, concat("gen ", $depth)), '
    "$focus, $depth)"
)


def _traced_generator(model, backend, regime):
    """A generator whose phase-1 program traces its recursive walk.

    The shipped sources call no ``fn:trace``, so without this the trace
    comparison would compare two empty logs.
    """
    generator = _generator(model, backend, regime)
    source = assemble_main_program(regime)
    assert source.count(WALK) == 1
    generator._compiled[f"main-{regime}"] = generator.engine.compile(
        source.replace(WALK, TRACED_WALK)
    )
    return generator


class TestByteIdenticalToTreewalk:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_document_and_trace_match(self, model, name, regime):
        template = TEMPLATES[name]()
        outcomes = {}
        for backend in ("treewalk", "algebra"):
            trace = TraceLog()
            generator = _traced_generator(model, backend, regime)
            result = generator.generate(template, trace=trace)
            assert trace.messages
            outcomes[backend] = (
                serialize(result.document),
                [(p.severity, p.directive, p.message) for p in result.problems],
                [(e.level, e.text) for e in result.toc],
                result.visited_node_ids,
                result.metrics["bytes_per_phase"],
                trace.messages,
            )
        assert outcomes["algebra"] == outcomes["treewalk"]
