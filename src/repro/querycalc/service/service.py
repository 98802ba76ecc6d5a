"""The query service: a fault-tolerant serving layer over the calculus backends.

This is the architectural answer to E6 *and* the robustness answer to the
paper's error-handling chapter.  The caching story (PR 3) keeps four
layers warm between requests:

1. a **plan cache**: normalized calculus text → generated XQuery source →
   compiled closure program (the engine's own compile LRU backs this up);
2. an **incremental model export**: mutations dirty individual subtrees,
   so the XML document the queries scan is patched, not rebuilt;
3. a **result cache** keyed by (plan, export generation): repeat queries
   against an unchanged model are a dict hit, and any model mutation
   bumps the generation and silently invalidates every stale entry;
4. a **batch API**: :meth:`QueryService.run_batch` runs a whole UI
   refresh worth of queries over one shared export snapshot on a thread
   pool, evaluating each distinct plan once and fanning results out to
   duplicates.

The robustness layer on top makes failure a first-class outcome instead
of an unhandled exception:

* **per-query error isolation** — a failing job in :meth:`run_batch`
  yields a :class:`~repro.querycalc.service.results.BatchItem` carrying a
  structured :class:`~repro.querycalc.service.errors.QueryError` while
  every sibling completes; metrics always record the whole batch;
* **deadlines** — a wall-clock budget per query (and optionally per
  batch) is threaded down into both engine backends, which check it
  between pipeline stages and raise ``XQDY_TIMEOUT`` cleanly instead of
  hanging a worker;
* **graceful degradation** — an *internal* (non-spec) error from the
  closures backend is retried once on the treewalk reference backend
  before surfacing, and counted in ``metrics()["fallbacks"]``;
* **fault injection** — a :class:`~repro.querycalc.service.faults.FaultInjector`
  can fail or stall any pipeline site, which is how the chaos suite and
  the E16 benchmark exercise all of the above.

Engine semantics are untouched: a cold miss runs exactly the code E6
measures, quirks and all.  The service only decides *how often* that
code runs — and, now, what happens when it fails.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from ...awb.model import Model, ModelNode
from ...xdm import ElementNode
from ...xquery import EngineConfig, TraceLog, XQueryEngine
from ...xquery.errors import XQueryError, XQueryTimeoutError
from ..ast import Query
from ..native import QueryRuntimeError, run_query
from ..via_xquery import XQueryCalculusBackend
from .deps import DependencyIndex, derive_dependencies, patch_result
from .errors import Deadline, QueryError, QueryOverloadError, classify_error
from .faults import FaultInjector
from .plans import PlanCache, QueryPlan, normalize_query
from .results import BatchItem, ResultCache

#: the service's execution modes: a thread pool in this process (threads
#: only help via dedup+caching — the GIL serializes evaluation), or a
#: shared-nothing pool of worker processes (see :mod:`repro.serving`).
SERVICE_MODES = ("thread", "process")

#: Latency samples kept for the p50/p95 metrics (oldest evicted first).
MAX_LATENCY_SAMPLES = 2048


def _percentile(samples: List[float], fraction: float) -> float:
    """Standard ceil-based nearest-rank percentile (1-indexed rank).

    The previous ``round()``-based formula suffered banker's rounding:
    p50 of five samples landed on the 2nd value instead of the median.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]


class QueryService:
    """Serves calculus queries from caches, falling back to a backend.

    ``backend`` selects the engine under the caches: ``"xquery"`` (the
    paper's preposterously inefficient path, served by the algebra
    backend's optimized plans by default) or ``"native"`` (the live-graph
    interpreter).
    Both share the same plan normalization, result cache, and metrics, so
    E15 can compare them under identical serving conditions.

    ``default_timeout`` is the per-query wall-clock budget in seconds
    applied when a call does not pass its own; ``fault_injector`` wires a
    :class:`~repro.querycalc.service.faults.FaultInjector` into the
    pipeline's hook points for chaos testing.
    """

    def __init__(
        self,
        model: Model,
        engine: Optional[XQueryEngine] = None,
        backend: str = "xquery",
        plan_cache_size: int = 128,
        result_cache_size: int = 512,
        workers: int = 4,
        default_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        mode: str = "thread",
        partition: str = "type",
        max_pending: Optional[int] = None,
    ):
        if backend not in ("xquery", "native"):
            raise ValueError(f"unknown backend {backend!r}")
        if mode not in SERVICE_MODES:
            raise ValueError(f"mode must be one of {SERVICE_MODES}, not {mode!r}")
        if mode == "process" and backend != "xquery":
            raise ValueError("mode='process' serves the XQuery backend only")
        self.model = model
        self.backend = backend
        if workers == 0:
            # "as many as the machine has": meaningful parallelism in
            # process mode; in thread mode extra workers only widen the
            # dedup window (the GIL serializes actual evaluation — use
            # mode="process" for real scaling).
            workers = os.cpu_count() or 1
        self.workers = workers
        self.mode = mode
        self.default_timeout = default_timeout
        self.faults = fault_injector
        if backend == "xquery":
            # the algebra backend is the default cold path: set-at-a-time
            # plans with hash joins, running closure-compiled code for any
            # subtree outside the lowered fragment (and the reference
            # evaluator wholesale, via _execute's retry, on any internal
            # error).
            self.engine = engine or XQueryEngine(EngineConfig(backend="algebra"))
            self._backend = XQueryCalculusBackend(model, engine=self.engine)
        else:
            self.engine = engine
            self._backend = None
        #: batch-level common-subexpression cache for the algebra backend,
        #: replaced whenever the export generation moves.
        self._algebra_cache = None
        self._algebra_cache_generation: Optional[int] = None
        self._plans = PlanCache(maxsize=plan_cache_size)
        self._results = ResultCache(maxsize=result_cache_size)
        self._deps = DependencyIndex()
        self._updates = 0
        self._propagations: Dict[str, int] = {
            "kept": 0,
            "patched": 0,
            "invalidated": 0,
            "skipped": 0,
        }
        self._export_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._latencies: List[float] = []
        self._queries = 0
        self._batches = 0
        self._executed = 0
        self._batch_deduped = 0
        self._errors = 0
        self._timeouts = 0
        self._fallbacks = 0
        self._errors_by_kind: Dict[str, int] = {}
        self._shed = 0
        self._routes: Dict[str, int] = {}
        #: set by close(): a closed service no longer tracks the model, so it
        #: refuses further work rather than answer from a stale export.
        self._closed = False
        # -- the shared-nothing serving tier (mode="process") --------------
        self._pool = None
        self.partition = partition
        if max_pending is None and mode == "process":
            max_pending = workers * 4
        self.max_pending = max_pending
        self._admission = (
            threading.BoundedSemaphore(max_pending)
            if max_pending is not None
            else None
        )
        if mode == "process":
            # imported lazily: repro.serving imports this package's errors
            # module, so a top-level import would be circular.
            from ...serving.pool import ProcessPool

            self._pool = ProcessPool(
                model,
                shards=workers,
                scheme=partition,
                plan_cache_size=plan_cache_size,
            )

    # -- public API -------------------------------------------------------------

    def run(self, query: Query, timeout: Optional[float] = None) -> BatchItem:
        """Serve one query: result cache → plan cache → backend.

        Returns a :class:`BatchItem` (a list of live model nodes carrying
        ``served_from_cache`` and ``traces``).  Failures raise — callers
        that want errors as values use :meth:`run_batch` — but are still
        recorded in :meth:`metrics` first.
        """
        self._check_open()
        started = time.perf_counter()
        deadline = self._deadline(timeout)
        plan_key: Optional[str] = None
        executed = 0
        try:
            plan = self._plan(query)
            plan_key = plan.key
            root, generation = self._snapshot()
            cached = self._results.get((plan.cache_key, generation))
            if cached is not None:
                ids, traces = cached
                self._record(1, 0, time.perf_counter() - started)
                return BatchItem(
                    self._materialize(ids), served_from_cache=True, traces=traces
                )
            executed = 1
            admitted = self._admit()
            try:
                ids, traces = self._execute(plan, root, deadline)
            finally:
                if admitted:
                    self._admission.release()
            self._store(plan, generation, ids, traces)
            self._record(1, 1, time.perf_counter() - started)
            return BatchItem(self._materialize(ids), traces=traces)
        except Exception as exc:
            error = classify_error(exc, plan_key)
            self._record(
                1, executed, time.perf_counter() - started, errors=(error,)
            )
            raise

    def run_batch(
        self,
        queries: Iterable[Query],
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        batch_timeout: Optional[float] = None,
    ) -> List[BatchItem]:
        """Run independent read-only queries over one export snapshot.

        Distinct plans are evaluated once each — duplicates within the
        batch share the result — on a pool of ``workers`` threads.  The
        model must not be mutated while a batch is in flight.

        Failures are **isolated per query**: a failing job yields a
        :class:`BatchItem` whose ``error`` is a structured
        :class:`QueryError` while every sibling completes, and metrics
        record the entire batch either way.  ``timeout`` budgets each
        query's wall clock (default :attr:`default_timeout`);
        ``batch_timeout`` additionally caps the whole batch — queries
        that would start after it expires fail fast with kind
        ``timeout``.
        """
        self._check_open()
        started = time.perf_counter()
        queries = list(queries)
        if not queries:
            return []
        workers = self.workers if workers is None else workers
        if workers == 0:
            # "one per core" — see the constructor note: in thread mode
            # this only widens the dedup window (GIL); real scaling needs
            # mode="process", where each worker is its own interpreter.
            workers = os.cpu_count() or 1
        per_query = timeout if timeout is not None else self.default_timeout
        batch_deadline = (
            Deadline.after(batch_timeout) if batch_timeout is not None else None
        )

        # 1. plan every query, isolating per-query compile/lint failures.
        plan_keys: List[str] = []
        plans: Dict[str, QueryPlan] = {}
        plan_errors: Dict[str, QueryError] = {}
        for index, query in enumerate(queries):
            try:
                plan = self._plan(query)
            except Exception as exc:
                try:
                    key = normalize_query(query)
                except Exception:
                    key = f"<unplannable #{index}>"
                plan_keys.append(key)
                plan_errors.setdefault(key, classify_error(exc, key))
            else:
                plan_keys.append(plan.key)
                plans.setdefault(plan.key, plan)

        # 2. one shared export snapshot; if it fails, every planned query
        # gets the structured error instead of the batch raising.
        root: Optional[ElementNode] = None
        generation = 0
        export_error: Optional[QueryError] = None
        try:
            root, generation = self._snapshot()
        except Exception as exc:
            export_error = classify_error(exc)

        # 3. serve each distinct plan: result cache, then the backend.
        outcomes: Dict[str, Tuple] = {}
        to_run: List[QueryPlan] = []
        if export_error is None:
            for key, plan in plans.items():
                cached = self._results.get((plan.cache_key, generation))
                if cached is not None:
                    ids, traces = cached
                    outcomes[key] = ("ok", ids, traces, True)
                else:
                    to_run.append(plan)

            def job(plan: QueryPlan) -> Tuple[str, Tuple]:
                deadline = (
                    Deadline.after(per_query) if per_query is not None else None
                )
                if deadline is not None:
                    deadline = deadline.cap(batch_deadline)
                else:
                    deadline = batch_deadline
                try:
                    if deadline is not None:
                        deadline.check("batch queue")
                    admitted = self._admit()
                    try:
                        ids, traces = self._execute(plan, root, deadline)
                    finally:
                        if admitted:
                            self._admission.release()
                    self._store(plan, generation, ids, traces)
                    return plan.key, ("ok", ids, traces, False)
                except Exception as exc:
                    return plan.key, ("err", classify_error(exc, plan.key))

            if workers <= 1 or len(to_run) <= 1:
                for plan in to_run:
                    key, outcome = job(plan)
                    outcomes[key] = outcome
            else:
                pool = ThreadPoolExecutor(max_workers=min(workers, len(to_run)))
                try:
                    for key, outcome in pool.map(job, to_run):
                        outcomes[key] = outcome
                finally:
                    pool.shutdown()

        # 4. fan results (and errors) out to the original query order.
        items: List[BatchItem] = []
        errors: List[QueryError] = []
        for key in plan_keys:
            if key in plan_errors:
                error = plan_errors[key]
            elif export_error is not None:
                error = QueryError(
                    kind=export_error.kind,
                    message=export_error.message,
                    code=export_error.code,
                    plan_key=key,
                    exception=export_error.exception,
                )
            else:
                outcome = outcomes[key]
                if outcome[0] == "ok":
                    _, ids, traces, from_cache = outcome
                    items.append(
                        BatchItem(
                            self._materialize(ids),
                            served_from_cache=from_cache,
                            traces=traces,
                        )
                    )
                    continue
                error = outcome[1]
            errors.append(error)
            items.append(BatchItem((), error=error))

        # 5. bookkeeping happens unconditionally — partial failure no
        # longer skips it (the pre-robustness bug this layer fixes).
        elapsed = time.perf_counter() - started
        with self._metrics_lock:
            self._batches += 1
            self._batch_deduped += len(queries) - len(set(plan_keys))
        self._record(len(queries), len(to_run), elapsed, errors=errors)
        return items

    def apply_update(self, script, check: str = "error") -> Dict[str, object]:
        """Apply an update-language script and *maintain* the caches.

        ``script`` is update-language text (or a parsed
        :class:`~repro.xquery.updates.ast.UpdateScript`).  The script is
        statically checked against the live model (``check="error"``
        rejects error-severity findings before any statement executes),
        applied through the model API, and its exact footprint is then
        intersected with every warm result-cache entry's dependency set:

        * disjoint entries are **re-keyed** to the new generation — a
          repeat of that query stays a cache hit;
        * membership-only changes to patchable scans are **patched**
          (inserted/deleted rows spliced at their sorted position);
        * everything else is invalidated, never served stale.

        In process mode the resolved script is broadcast to the worker
        replicas as a delta instead of a full re-export.  Propagation is
        skipped (entries simply age out, exactly the old behavior) when
        foreign mutations — raw ``model`` writes that bypassed this
        method — have already moved the generation past the export.

        Returns a summary: statements applied, the footprint, per-entry
        propagation counts, and the new generation.
        """
        self._check_open()
        from ...xquery.updates.apply import apply_script

        with self._export_lock:
            old_generation = self.model.generation
            export_generation = (
                self._backend.export_generation
                if self._backend is not None
                else old_generation
            )
            in_sync = old_generation == export_generation
            result = apply_script(script, self.model, check=check)
            new_generation = self.model.generation
            propagation = {"kept": 0, "patched": 0, "invalidated": 0, "skipped": 0}
            if new_generation == old_generation:
                # every statement was a no-op: generation-neutral, every
                # cache entry still keyed to the live generation.
                pass
            elif in_sync:
                footprint = result.footprint
                deps_index = self._deps
                model = self.model

                def decide(plan_key, ids):
                    deps = deps_index.get(plan_key)
                    if deps is None:
                        return ("drop", None)
                    reasons = deps.affected_by(footprint)
                    if not reasons:
                        return ("keep", None)
                    if reasons == {"membership"} and deps.patchable:
                        patched = patch_result(ids, footprint, deps, model)
                        if patched is not None:
                            return ("patch", patched)
                    return ("drop", None)

                propagation = self._results.propagate(
                    export_generation, new_generation, decide
                )
                propagation["skipped"] = 0
            else:
                # foreign mutations already orphaned the warm entries;
                # footprint-based carry-over would be unsound here.
                propagation["skipped"] = self._results.stats()["currsize"]
            if self._backend is not None and new_generation != old_generation:
                # fold the script's subtree patches into the export now:
                # the next apply_update (or query) then sees
                # export_generation == model.generation, so back-to-back
                # updates keep propagating instead of being mistaken for
                # foreign mutations and falling into the skip path.
                self._backend.export
            if (
                self._pool is not None
                and new_generation != old_generation
            ):
                self._pool.apply_delta(
                    result.text,
                    base_generation=export_generation,
                    new_generation=new_generation,
                    in_sync=in_sync,
                )
            with self._metrics_lock:
                self._updates += 1
                for key in ("kept", "patched", "invalidated", "skipped"):
                    self._propagations[key] += propagation[key]
            return {
                "applied": result.applied,
                "generation": new_generation,
                "footprint": result.footprint.describe(),
                "propagation": propagation,
                "diagnostics": [d.to_json() for d in result.diagnostics],
                "script": result.text,
            }

    def invalidate(self) -> None:
        """Drop cached results and force a full re-export.

        Never required for correctness — mutation tracking invalidates
        automatically — but useful to reclaim memory or force a clean
        baseline in benchmarks.
        """
        self._results.clear()
        if self._backend is not None:
            self._backend.invalidate_export()

    def explain(self, query: Query) -> Dict[str, object]:
        """The optimized plan for one query, as text and a JSON-ready tree.

        For the XQuery backend this is the algebra backend's plan (with
        cardinalities estimated from the current export's statistics
        catalog) plus the generated source; the native backend has no plan
        beyond the normalized query text.
        """
        self._check_open()
        plan = self._plan(query)
        if plan.backend == "native":
            return {"backend": "native", "plan_key": plan.key}
        self._snapshot()  # refresh the export so statistics are current
        # process-mode plans carry no parent-side compilation; explain is a
        # diagnostic, so compiling here on demand is fine (the engine's
        # compile LRU keeps repeats cheap).
        compiled = plan.compiled or self.engine.compile(plan.source)
        explanation = compiled.explain(self._backend.statistics)
        explanation["plan_key"] = plan.key
        explanation["source"] = plan.source
        if self._pool is not None:
            route = self._route(query)
            explanation["route"] = {
                "kind": route.kind,
                "shard": route.shard,
                "reason": route.reason,
            }
        return explanation

    def close(self) -> None:
        """Detach from the model and shut down the worker-process pool.

        Every XQuery-backed service listens to its model through an
        incremental exporter; closing removes that listener, so later
        model writes no longer notify a discarded service.  Process-mode
        services also own real OS processes.  Tests/benchmarks that create
        many services should close them (or use the service as a context
        manager).  Running queries or updates on a closed service raises
        ``RuntimeError``.
        """
        self._closed = True
        if self._backend is not None:
            self._backend.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ----------------------------------------------------------

    def serving_stats(self) -> Optional[Dict[str, object]]:
        """Synchronous per-worker counters (process mode; worker round-trips)."""
        if self._pool is None:
            return None
        return self._pool.stats()

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-layer cache counters: plans, results, engine compile, export."""
        stats = {
            "plans": self._plans.stats(),
            "results": self._results.stats(),
        }
        if self.engine is not None:
            stats["compile"] = self.engine.cache_info()
        if self._backend is not None:
            stats["export"] = self._backend.export_stats()
        return stats

    def metrics(self) -> Dict[str, object]:
        """The small metrics dict the E15/E16 reports read."""
        with self._metrics_lock:
            latencies = list(self._latencies)
            queries = self._queries
            batches = self._batches
            executed = self._executed
            deduped = self._batch_deduped
            errors = self._errors
            timeouts = self._timeouts
            fallbacks = self._fallbacks
            by_kind = dict(self._errors_by_kind)
            shed = self._shed
            routes = dict(self._routes)
            updates = self._updates
            propagations = dict(self._propagations)
        plan_stats = self._plans.stats()
        result_stats = self._results.stats()
        serving = None
        if self._pool is not None:
            # pool-level counters only — per-worker counters require a
            # round-trip; see :meth:`serving_stats`.
            serving = {
                "scheme": self._pool.scheme,
                "shards": self._pool.shards,
                "generation": self._pool.generation,
                "refreshes": self._pool.refreshes,
                "deltas": self._pool.deltas,
                "plan_blobs": self._pool.blob_stats(),
                "restarts": sum(h.restarts for h in self._pool.handles),
                "routes": routes,
                "shed": shed,
                "max_pending": self.max_pending,
            }
        return {
            "backend": self.backend,
            "mode": self.mode,
            "shed": shed,
            "routes": routes,
            "serving": serving,
            "queries": queries,
            "batches": batches,
            "executed": executed,
            "batch_deduped": deduped,
            "errors": errors,
            "timeouts": timeouts,
            "fallbacks": fallbacks,
            "errors_by_kind": by_kind,
            "updates": updates,
            "propagations": propagations,
            "hits": result_stats["hits"],
            "misses": result_stats["misses"],
            "plan_hits": plan_stats["hits"],
            "plan_misses": plan_stats["misses"],
            "p50_ms": _percentile(latencies, 0.50) * 1000.0,
            "p95_ms": _percentile(latencies, 0.95) * 1000.0,
            "p99_ms": _percentile(latencies, 0.99) * 1000.0,
            # the engine compile LRU (hits/misses/races) for the active
            # backend; the native backend has no engine, hence no cache.
            "compile_cache": (
                self.engine.cache_info() if self.engine is not None else None
            ),
            "algebra_cache": (
                self._algebra_cache.info() if self._algebra_cache is not None else None
            ),
        }

    # -- internals --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("QueryService is closed")

    def _deadline(self, timeout: Optional[float]) -> Optional[Deadline]:
        timeout = timeout if timeout is not None else self.default_timeout
        return Deadline.after(timeout) if timeout is not None else None

    def _plan(self, query: Query) -> QueryPlan:
        key = normalize_query(query)

        def build() -> QueryPlan:
            if self.faults is not None:
                self.faults.on_compile(key)
            deps = derive_dependencies(query, self.model.metamodel)
            if self.backend == "native":
                return QueryPlan(key, "native", query, deps=deps)
            source = self._backend.compile_to_xquery(query)
            if self.mode == "process":
                # the front-end never compiles in process mode: workers own
                # the compile LRUs, and the plan's structural signature
                # (this plan's cross-process result key) is learned from
                # the first worker reply.
                return QueryPlan(key, "xquery", query, source=source, deps=deps)
            compiled = self.engine.compile(source)
            return QueryPlan(
                key,
                "xquery",
                query,
                source=source,
                compiled=compiled,
                result_key=compiled.plan_signature,
                deps=deps,
            )

        plan = self._plans.get_or_build(key, build)
        if plan.deps is not None:
            # idempotent; registered under the *current* cache key, which
            # process mode may upgrade after the first worker reply (the
            # upgrade site re-registers under the new key).
            self._deps.register(plan.cache_key, plan.deps)
        return plan

    def _snapshot(self) -> Tuple[Optional[ElementNode], int]:
        """The (export root, generation) pair queries should run against."""
        if self._backend is None:
            if self.faults is not None:
                self.faults.on_export()
            return None, self.model.generation
        with self._export_lock:
            if self.faults is not None:
                self.faults.on_export()
            document = self._backend.export
            generation = self._backend.export_generation
            if self._algebra_cache_generation != generation:
                from ...xquery.algebra import SharedEvalCache

                self._algebra_cache = SharedEvalCache()
                self._algebra_cache_generation = generation
                # collect the statistics catalog here, at export time: the
                # walk rides the (already O(model)) export refresh instead
                # of taxing the first query after a mutation.
                self._backend.statistics
            if self._pool is not None:
                # broadcast the new generation to the worker replicas
                # before any query of this generation is dispatched.
                self._pool.ensure_generation(generation)
            return document.document_element(), generation

    def _execute(
        self,
        plan: QueryPlan,
        root: Optional[ElementNode],
        deadline: Optional[Deadline] = None,
    ) -> Tuple[List[str], Tuple[str, ...]]:
        """Evaluate one plan, returning (node ids, trace messages).

        Spec errors (including timeouts) surface as-is.  An *internal*
        error from the compiled closures backend is retried once on the
        treewalk reference backend — graceful degradation: correctness
        from the reference interpreter beats failing the request — and
        only surfaces if the retry also fails.
        """
        start_id = plan.query.start.node_id
        if start_id is not None and start_id not in self.model.nodes:
            # both engine backends treat a dangling start id as a caller
            # error (native always did; the XQuery backend was aligned by
            # the differential fuzzer) — the service must agree even when
            # it evaluates the cached plan itself.
            raise QueryRuntimeError(f"start node {start_id!r} is not in the model")
        if plan.backend == "native":
            if self.faults is not None:
                self.faults.on_evaluate(plan.key, deadline, backend="native")
            if deadline is not None:
                deadline.check("evaluate")
            return [node.id for node in run_query(plan.query, self.model)], ()
        if self._pool is not None:
            return self._process_execute(plan, deadline)
        primary_backend = self.engine.config.backend
        try:
            return self._evaluate_plan(plan, root, deadline, primary_backend)
        except XQueryError:
            raise
        except Exception as primary:
            if primary_backend == "treewalk":
                raise  # already on the reference backend: nothing to degrade to
            with self._metrics_lock:
                self._fallbacks += 1
            try:
                return self._evaluate_plan(plan, root, deadline, "treewalk")
            except XQueryTimeoutError:
                raise  # the budget ran out during the retry: that is a timeout
            except Exception:
                raise primary

    def _admit(self) -> bool:
        """Reserve an execution slot, or shed with ``XQDY_OVERLOAD``.

        Returns False when admission control is off (``max_pending=None``);
        cache hits never reach this point, so a saturated tier still
        answers everything it has already computed.
        """
        if self._admission is None:
            return False
        if not self._admission.acquire(blocking=False):
            with self._metrics_lock:
                self._shed += 1
            raise QueryOverloadError(
                f"serving tier saturated: {self.max_pending} requests "
                "already in flight"
            )
        return True

    def _route(self, query: Query):
        """The serving tier's routing decision for one query."""
        from ...serving.partition import route_query

        pool = self._pool
        domain = self._backend.statistics.attribute_domain("node", "type")

        def owner_of_id(node_id: str) -> Optional[int]:
            node = self.model.nodes.get(node_id)
            if node is None:
                return None
            return pool.partitioner.shard_of(node_id, node.type_name)

        return route_query(
            query,
            pool.partitioner,
            domain,
            self.model.metamodel.node_subtype_names,
            owner_of_id,
        )

    def _process_execute(
        self, plan: QueryPlan, deadline: Optional[Deadline]
    ) -> Tuple[List[str], Tuple[str, ...]]:
        """Serve one plan from the worker-process pool (scatter or single)."""
        from ...serving.pool import PlanBlob

        pool = self._pool

        def build() -> PlanBlob:
            query = plan.query
            return PlanBlob(
                key=plan.key,
                source_full=plan.source
                or self._backend.compile_to_xquery(query),
                source_shard=self._backend.compile_to_xquery(
                    query, shard_variable=pool.partitioner.shard_variable()
                ),
                sort_property=self._backend.sort_property(query),
                descending=query.collect.descending,
                distinct=query.collect.distinct,
            )

        blob = pool.blob(plan.key, build)
        route = self._route(plan.query)
        with self._metrics_lock:
            self._routes[route.kind] = self._routes.get(route.kind, 0) + 1
        if self.faults is not None:
            self.faults.on_evaluate(plan.key, deadline, backend="process")
        if deadline is not None:
            deadline.check("dispatch")
        remaining = deadline.remaining() if deadline is not None else None
        ids, traces = pool.execute(blob, route, remaining)
        if blob.signature is not None and plan.result_key is None:
            # upgrade the plan's result-cache key to the structural
            # signature the worker reported, matching thread mode.
            plan.result_key = blob.signature
            if plan.deps is not None:
                self._deps.register(plan.cache_key, plan.deps)
        return ids, traces

    def _evaluate_plan(
        self,
        plan: QueryPlan,
        root: Optional[ElementNode],
        deadline: Optional[Deadline],
        backend: str,
    ) -> Tuple[List[str], Tuple[str, ...]]:
        if self.faults is not None:
            self.faults.on_evaluate(plan.key, deadline, backend=backend)
        if deadline is not None:
            deadline.check("evaluate")
        trace = TraceLog()
        algebra = backend == "algebra"
        result = plan.compiled.run(
            variables={"model": root},
            trace=trace,
            backend=backend,
            deadline=deadline.at if deadline is not None else None,
            statistics=self._backend.statistics if algebra else None,
            algebra_cache=self._algebra_cache if algebra else None,
        )
        if deadline is not None:
            deadline.check("materialize")
        ids: List[str] = []
        for item in result:
            if not isinstance(item, ElementNode):
                continue
            node_id = item.get_attribute("id")
            if node_id is not None and node_id in self.model.nodes:
                ids.append(node_id)
        return ids, tuple(trace.messages)

    def _store(
        self,
        plan: QueryPlan,
        generation: int,
        ids: List[str],
        traces: Tuple[str, ...],
    ) -> None:
        """Cache a computed result — unless the model has moved on.

        A mutation landing between :meth:`_snapshot` and here means the
        evaluation may have read post-mutation state (the native backend
        reads the live graph); storing that under the pre-mutation
        generation would let :meth:`apply_update`'s carry-over re-key a
        torn result into the new generation.  The entry is simply not
        cached; the next request recomputes against a clean snapshot.
        """
        if self.model.generation == generation:
            self._results.put((plan.cache_key, generation), ids, traces)

    def _materialize(self, ids: List[str]) -> List[ModelNode]:
        nodes = self.model.nodes
        return [nodes[node_id] for node_id in ids if node_id in nodes]

    def _record(
        self,
        queries: int,
        executed: int,
        elapsed: float,
        errors: Iterable[QueryError] = (),
    ) -> None:
        with self._metrics_lock:
            self._queries += queries
            self._executed += executed
            self._latencies.append(elapsed)
            if len(self._latencies) > MAX_LATENCY_SAMPLES:
                del self._latencies[: len(self._latencies) - MAX_LATENCY_SAMPLES]
            for error in errors:
                self._errors += 1
                self._errors_by_kind[error.kind] = (
                    self._errors_by_kind.get(error.kind, 0) + 1
                )
                if error.kind == "timeout":
                    self._timeouts += 1
