"""The algebraic backend: set-at-a-time plans for the XQuery engine.

The paper's central complaint is *lopsidedness*: a language small enough to
write in an afternoon, implemented so naively that a two-line query is
"preposterously inefficient".  This package is the repository's answer —
the third execution backend, ``EngineConfig(backend="algebra")``:

* :mod:`.lowering` turns the parsed AST into a small logical algebra
  (index scans, twig hash joins, select/project, order-by, FLWOR tuple
  sources), falling back to closure-compiled code (the closure backend's
  compiler) for anything outside the fragment;
* :mod:`.optimize` is the rewrite/cost pass, fed by a
  :class:`~.stats.StatisticsCatalog` collected at export time;
* :mod:`.executor` interprets plans set-at-a-time, producing bit-identical
  XDM sequences (the differential fuzzer enforces this);
* :class:`AlgebraProgram` packages the three behind the same interface the
  closure backend exposes to :class:`~repro.xquery.api.CompiledQuery`.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional, Tuple

from .. import ast
from ..compiler import Thunk, _Compiler
from ..context import DynamicContext, EngineConfig
from ..evaluator import evaluate  # noqa: F401  (instrumentation hook: xqbench wraps it)
from .executor import ExecState, SharedEvalCache, execute_plan
from .lowering import Lowerer
from .optimize import optimize_plan
from .plans import EvalPlan, Plan
from .signature import expr_signature, module_signature
from .stats import DEFAULT_STATS, StatisticsCatalog

__all__ = [
    "AlgebraProgram",
    "SharedEvalCache",
    "StatisticsCatalog",
    "DEFAULT_STATS",
    "expr_signature",
    "module_signature",
]


class AlgebraProgram:
    """A module lowered to a logical plan, ready for repeated execution.

    Mirrors the closure backend's ``CompiledProgram`` contract: built once
    per compiled query (lazily, under the query's lock) and reused across
    runs.  Re-optimization happens when a run supplies a different
    statistics catalog; every optimizer decision is semantics-preserving,
    so executions racing a re-optimization stay correct.

    Every :class:`~.plans.EvalPlan` leaf runs a closure compiled by one
    per-program compiler, built only when the plan has such a leaf or the
    prolog declares a global; user-function bodies compile on first call.
    """

    def __init__(
        self,
        module: ast.Module,
        functions: Dict[Tuple[str, int], ast.FunctionDecl],
        config: EngineConfig,
    ):
        self.module = module
        self.functions = functions
        self.config = config
        self.plan: Plan = Lowerer(functions, config).lower(module.body)
        #: whole-body fallback: nothing in the query lowered to algebra.
        self.trivial = isinstance(self.plan, EvalPlan)
        leaves = [node for node in _walk(self.plan) if isinstance(node, EvalPlan)]
        #: closures for the prolog's declared globals, the same contract as
        #: ``CompiledProgram.variable_values``.
        self.variable_values: Dict[str, Thunk] = {}
        if leaves or any(d.value is not None for d in module.variables):
            compiler = _Compiler(functions, config)
            for leaf in leaves:
                leaf.thunk = compiler.compile(leaf.expr)
            self.variable_values = compiler.compile_globals(module)
        self._optimize_lock = threading.Lock()
        self._optimized_for: Optional[StatisticsCatalog] = None
        self._occurrences: Optional[Dict[int, str]] = None
        if not self.trivial:
            # a lone fallback leaf has nothing to optimize; explain() still
            # annotates it on demand.
            self.optimize_for(None)

    # -- optimization -----------------------------------------------------

    def occurrence_map(self) -> Dict[int, str]:
        """``id(ast expr) → occurrence`` for the exprs this plan references.

        Computed once per program from the static-type pass (occurrences
        never depend on the catalog) and only for the handful of AST nodes
        the plan tree actually points at, so the cold path stays cheap.
        """
        if self._occurrences is None:
            # lazy: the analysis package import chain reaches back here.
            from ..analysis.cardinality import iter_scoped, module_environments
            from ..analysis.types import TypeAnalyzer, occurrence_indicator

            targets = set()
            for plan in _walk(self.plan):
                expr = getattr(plan, "expr", None)
                if expr is not None:
                    targets.add(id(expr))
                for op in getattr(plan, "ops", ()):
                    clause = getattr(op, "clause", None)
                    for attr in ("source", "value"):
                        sub = getattr(clause, attr, None)
                        if sub is not None:
                            targets.add(id(sub))
            analyzer = TypeAnalyzer(self.module)
            body_env, function_envs = module_environments(self.module, analyzer)
            occurrences: Dict[int, str] = {}
            units = [(f.body, function_envs[id(f)]) for f in self.module.functions]
            units.append((self.module.body, body_env))
            for root, env in units:
                for expr, scope in iter_scoped(root, env, analyzer):
                    if id(expr) in targets and id(expr) not in occurrences:
                        occurrences[id(expr)] = occurrence_indicator(
                            analyzer.card(expr, scope)
                        )
            self._occurrences = occurrences
        return self._occurrences

    def optimize_for(self, statistics: Optional[StatisticsCatalog]) -> Plan:
        """(Re)run the cost pass if *statistics* changed since last time."""
        catalog = statistics or DEFAULT_STATS
        if self._optimized_for is not catalog:
            with self._optimize_lock:
                if self._optimized_for is not catalog:
                    optimize_plan(self.plan, catalog, self.occurrence_map())
                    self._optimized_for = catalog
        return self.plan

    # -- execution --------------------------------------------------------

    def run(
        self,
        ctx: DynamicContext,
        statistics: Optional[StatisticsCatalog] = None,
        shared_cache: Optional[SharedEvalCache] = None,
    ):
        if self.trivial:
            # the whole body fell back: run its closure with no
            # plan-interpretation overhead at all.
            return self.plan.thunk(ctx)
        plan = self.optimize_for(statistics)
        return execute_plan(plan, ctx, {}, ExecState(shared_cache))

    # -- explain ----------------------------------------------------------

    def explain(self, statistics: Optional[StatisticsCatalog] = None) -> dict:
        """The optimized plan as text and JSON, with estimated rows."""
        plan = self.optimize_for(statistics)
        return {
            "backend": "algebra",
            "fallback": self.trivial,
            "text": "\n".join(plan.render()),
            "plan": plan.to_dict(),
        }

    def explain_text(self, statistics: Optional[StatisticsCatalog] = None) -> str:
        return self.explain(statistics)["text"]

    def explain_json(self, statistics: Optional[StatisticsCatalog] = None) -> str:
        return json.dumps(self.explain(statistics), indent=2, sort_keys=True)


def _walk(plan: Plan):
    """Every node of the plan tree under *plan*, *plan* included."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in node.children() if child is not None)
