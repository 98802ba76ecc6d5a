"""Public engine facade: compile and run XQuery programs.

Typical use::

    from repro.xquery import XQueryEngine

    engine = XQueryEngine()
    result = engine.evaluate("for $i in 1 to 3 return $i * $i")
    # result == [1, 4, 9]

    query = engine.compile(source)           # parse + optimize once
    value = query.run(context_item=doc, variables={"mode": ["draft"]})

The engine's :class:`EngineConfig` flags select between spec behaviour and
the 2004 Galax behaviours the paper describes (see
:mod:`repro.xquery.context`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import fields
from typing import Dict, List, Optional, Tuple

from ..xdm import DocumentNode, Node, Sequence, is_node, sequence
from ..xmlio import serialize
from .ast import FunctionDecl, Module
from .compiler import CompiledProgram
from .context import DynamicContext, EngineConfig, TraceLog
from .errors import XQueryStaticError, extended_stack
from .evaluator import evaluate
from .optimizer import OptimizerStats, optimize_module
from .parser import parse_query

#: Names accepted by ``EngineConfig.backend`` / ``CompiledQuery.run``.
BACKENDS = ("treewalk", "closures", "algebra")


class CompiledQuery:
    """A parsed (and optionally optimized) query, ready to run."""

    def __init__(self, module: Module, config: EngineConfig):
        self.module = module
        self.config = config
        self.functions: Dict[Tuple[str, int], FunctionDecl] = {}
        for declaration in module.functions:
            name = declaration.name
            if name.startswith("local:"):
                name = name[len("local:") :]
            key = (name, declaration.arity)
            if key in self.functions:
                raise XQueryStaticError(
                    f"duplicate declaration of function {declaration.name}()"
                    f" with arity {declaration.arity}",
                    code="XQST0034",
                    line=declaration.line,
                    column=declaration.column,
                )
            self.functions[key] = declaration
        seen_variables = set()
        for variable in module.variables:
            if variable.name in seen_variables:
                raise XQueryStaticError(
                    f"duplicate declaration of variable ${variable.name}",
                    code="XQST0049",
                    line=variable.line,
                    column=variable.column,
                )
            seen_variables.add(variable.name)
        #: lint findings, populated when ``config.lint`` is not "off".
        self.diagnostics: List["Diagnostic"] = []
        if config.lint != "off":
            # lint BEFORE optimization: XQL001's whole point is to see the
            # trace binding the dead-code pass is about to delete.
            self._run_lint()
        self.optimizer_stats: Optional[OptimizerStats] = None
        if config.optimize:
            self.optimizer_stats = optimize_module(
                module, trace_is_dead_code=config.trace_is_dead_code
            )
        self._closures: Optional[CompiledProgram] = None
        self._closures_lock = threading.Lock()
        self._algebra: Optional["AlgebraProgram"] = None
        self._algebra_lock = threading.Lock()
        self._plan_signature: Optional[str] = None

    def _run_lint(self) -> None:
        import warnings

        from .analysis import LintWarning, analyze_module, severity_at_least

        self.diagnostics = analyze_module(self.module, config=self.config)
        for diagnostic in self.diagnostics:
            if not severity_at_least(diagnostic, "warning"):
                continue
            if self.config.lint == "error":
                raise XQueryStaticError(
                    f"lint: {diagnostic.code} {diagnostic.message}",
                    code=diagnostic.spec_code or diagnostic.code,
                    line=diagnostic.line or None,
                    column=diagnostic.column or None,
                )
            warnings.warn(diagnostic.render(), LintWarning, stacklevel=4)

    @property
    def closures(self) -> CompiledProgram:
        """The closure-compiled form of this query, built on first use.

        The treewalk backend needs nothing beyond the AST, so queries that
        never run under ``backend="closures"`` never pay for compilation.
        Built under a lock so concurrent first runs (the query service's
        thread pool) share one program instead of racing to build two.
        """
        if self._closures is None:
            with self._closures_lock:
                if self._closures is None:
                    with extended_stack():
                        self._closures = CompiledProgram(
                            self.module, self.functions, self.config
                        )
        return self._closures

    @property
    def algebra(self) -> "AlgebraProgram":
        """The algebraic plan for this query, built on first use.

        Like :attr:`closures`, lowering is deferred until the query first
        runs under ``backend="algebra"`` and the result is shared across
        threads (one plan, one lock).
        """
        if self._algebra is None:
            with self._algebra_lock:
                if self._algebra is None:
                    from .algebra import AlgebraProgram

                    with extended_stack():
                        self._algebra = AlgebraProgram(
                            self.module, self.functions, self.config
                        )
        return self._algebra

    @property
    def plan_signature(self) -> str:
        """A structural key for this query's module, stable across reparses.

        Position information (line/column) is excluded, so two textually
        different sources with identical structure share a signature; the
        query service keys its plan/result caches on this.

        Computed once per query; the module is immutable after parse, so
        the signature never changes. (A racing second computation yields
        the same string, so no lock is needed.)
        """
        signature = self._plan_signature
        if signature is None:
            from .algebra import module_signature

            signature = module_signature(self.module)
            self._plan_signature = signature
        return signature

    def explain(self, statistics=None) -> dict:
        """The optimized algebraic plan as a dict (text + JSON-ready tree).

        Includes ``static_type``: the whole query's inferred item type and
        occurrence from the static-type pass (``None`` for a body-less
        library module).
        """
        explanation = self.algebra.explain(statistics)
        # deferred: the analysis package's import chain reaches back here.
        from .analysis.types import infer_body_type

        inferred = infer_body_type(self.module)
        explanation["static_type"] = (
            inferred.describe() if inferred is not None else None
        )
        return explanation

    @property
    def external_variable_names(self) -> List[str]:
        return [v.name for v in self.module.variables if v.value is None]

    def run(
        self,
        context_item: Optional[Node] = None,
        variables: Optional[Dict[str, object]] = None,
        documents: Optional[Dict[str, DocumentNode]] = None,
        trace: Optional[TraceLog] = None,
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        statistics=None,
        algebra_cache=None,
        collections=None,
    ) -> Sequence:
        """Evaluate the query body; returns a flat sequence of items.

        ``variables`` supplies external variables; plain Python values are
        coerced into sequences (a list is a sequence, a scalar a singleton).
        ``backend`` overrides the config's backend for this run only.
        ``timeout`` is a wall-clock budget in seconds (``deadline`` the
        equivalent absolute ``time.monotonic()`` instant); a run that
        exceeds it raises :class:`~repro.xquery.errors.XQueryTimeoutError`
        (``XQDY_TIMEOUT``) at the next stage boundary instead of hanging
        the calling thread.

        ``collections`` supplies a :class:`repro.collections.DocumentStore`
        backing ``fn:doc``/``fn:collection`` and the ``ft:*`` full-text
        builtins, in every backend.

        ``statistics`` and ``algebra_cache`` only affect
        ``backend="algebra"``: the former is a
        :class:`~repro.xquery.algebra.StatisticsCatalog` steering the cost
        pass, the latter a :class:`~repro.xquery.algebra.SharedEvalCache`
        sharing scan/join work across queries over the same document.
        """
        backend = backend if backend is not None else self.config.backend
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if timeout is not None:
            budget = time.monotonic() + timeout
            deadline = budget if deadline is None else min(deadline, budget)
        ctx = DynamicContext(
            functions=self.functions,
            documents=documents or {},
            config=self.config,
            trace=trace,
            deadline=deadline,
            collections=collections,
        )
        provided = {
            name: _coerce_sequence(value) for name, value in (variables or {}).items()
        }
        program = None
        if backend == "algebra":
            program = self.algebra
        elif backend == "closures":
            program = self.closures
        with extended_stack():
            self._bind_globals(ctx, provided, program)
            if context_item is not None:
                ctx = ctx.with_focus(context_item, 1, 1)
            if backend == "algebra":
                return program.run(
                    ctx, statistics=statistics, shared_cache=algebra_cache
                )
            if program is not None:
                return program.body(ctx)
            return evaluate(self.module.body, ctx)

    def _bind_globals(
        self,
        ctx: DynamicContext,
        provided: Dict[str, Sequence],
        program=None,
    ) -> None:
        """Bind the prolog's globals; declared values run on *program*'s
        ``variable_values`` closures when given, else on the treewalk."""
        for declaration in self.module.variables:
            if declaration.value is None:
                if declaration.name not in provided:
                    raise XQueryStaticError(
                        f"external variable ${declaration.name} was not provided",
                        code="XPDY0002",
                        line=declaration.line,
                        column=declaration.column,
                    )
                value = provided[declaration.name]
            elif program is not None:
                value = program.variable_values[declaration.name](ctx)
            else:
                value = evaluate(declaration.value, ctx)
            if (
                declaration.declared_type is not None
                and not declaration.declared_type.matches(value)
            ):
                raise XQueryStaticError(
                    f"variable ${declaration.name} does not match its declared "
                    f"type {declaration.declared_type!r}",
                    code="XPTY0004",
                    line=declaration.line,
                    column=declaration.column,
                )
            ctx.globals[declaration.name] = value
            ctx.variables[declaration.name] = value
        # extra provided variables become implicit externals, a convenience
        # the Python host uses heavily.
        for name, value in provided.items():
            if name not in ctx.globals:
                ctx.globals[name] = value
                ctx.variables[name] = value


def _coerce_sequence(value: object) -> Sequence:
    # lists and tuples are both "a sequence of items" to the host API;
    # sequence() flattens either kind of nesting, and wraps a scalar.
    return sequence(value)


class XQueryEngine:
    """Compiles and evaluates XQuery programs under one configuration.

    Repeated compilations of identical source are served from a bounded
    LRU cache (size ``config.compile_cache_size``; ``0`` disables it).
    The cache key includes every config field, so an engine whose config
    is mutated between calls never serves a stale compilation.  The cache
    (lookup, insert, eviction, counters) is guarded by a lock, so one
    engine can be shared by the query service's worker threads.
    """

    def __init__(self, config: Optional[EngineConfig] = None, **flags):
        if config is None:
            config = EngineConfig(**flags)
        elif flags:
            raise TypeError("pass either a config object or keyword flags, not both")
        self.config = config
        self._cache: "OrderedDict[tuple, CompiledQuery]" = OrderedDict()
        self._cache_lock = threading.RLock()
        self.cache_hits = 0
        self.cache_misses = 0
        #: threads that compiled but lost the insert race: counted as
        #: misses (the compile work really happened) and tallied here.
        self.cache_races = 0

    def _cache_key(self, source: str) -> tuple:
        return (source,) + tuple(
            (f.name, getattr(self.config, f.name)) for f in fields(self.config)
        )

    def compile(self, source: str, use_cache: bool = True) -> CompiledQuery:
        """Parse, validate, and (per config) optimize a query."""
        if not use_cache or self.config.compile_cache_size <= 0:
            return CompiledQuery(parse_query(source), self.config)
        key = self._cache_key(source)
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                return cached
        # parse/compile outside the lock: compilation is pure, and a rare
        # duplicate compile beats serializing every miss behind one lock.
        query = CompiledQuery(parse_query(source), self.config)
        with self._cache_lock:
            existing = self._cache.get(key)
            if existing is not None:
                # we lost the insert race after doing a full compile: that
                # is real compile work, so it counts as a miss, not a hit.
                self.cache_misses += 1
                self.cache_races += 1
                self._cache.move_to_end(key)
                return existing
            self.cache_misses += 1
            self._cache[key] = query
            while len(self._cache) > self.config.compile_cache_size:
                self._cache.popitem(last=False)
        return query

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters, in the shape ``functools.lru_cache`` uses."""
        with self._cache_lock:
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "races": self.cache_races,
                "currsize": len(self._cache),
                "maxsize": self.config.compile_cache_size,
            }

    def cache_clear(self) -> None:
        with self._cache_lock:
            self._cache.clear()
            self.cache_hits = 0
            self.cache_misses = 0
            self.cache_races = 0

    def evaluate(
        self,
        source: str,
        context_item: Optional[Node] = None,
        variables: Optional[Dict[str, object]] = None,
        documents: Optional[Dict[str, DocumentNode]] = None,
        trace: Optional[TraceLog] = None,
        timeout: Optional[float] = None,
        collections=None,
    ) -> Sequence:
        """One-shot compile-and-run."""
        return self.compile(source).run(
            context_item=context_item,
            variables=variables,
            documents=documents,
            trace=trace,
            timeout=timeout,
            collections=collections,
        )

    def evaluate_to_string(self, source: str, **kwargs) -> str:
        """Evaluate and serialize the result the way a CLI would print it."""
        return serialize_result(self.evaluate(source, **kwargs))


def serialize_result(result: Sequence) -> str:
    """Serialize a result sequence: nodes as XML, atomics space separated."""
    parts: List[str] = []
    previous_was_atomic = False
    for item in result:
        if is_node(item):
            parts.append(serialize(item))
            previous_was_atomic = False
        else:
            from ..xdm import string_value_of_atomic

            text = string_value_of_atomic(item)
            if previous_was_atomic:
                parts.append(" " + text)
            else:
                parts.append(text)
            previous_was_atomic = True
    return "".join(parts)
