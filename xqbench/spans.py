"""Request spans recorded from the benchmark's side of each layer boundary.

A traced run replaces the public entry point of each layer (a module
attribute or a class method) with a wrapper that opens a span around the
call.  The program itself is not edited: spans inside it, and inside the
worker processes, are a later change.  Worker processes are therefore
visible only as the pipe round trip that waits for them.

Every span records its name, start, end, parent and the request id of
the op that caused it.  Spans live in memory; :meth:`Tracer.dump` writes
them out when the run ends.  Only the thread that runs the ops is
traced: a scatter helper thread calls straight through.
"""

from __future__ import annotations

import gc
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    request_id: int
    name: str
    start_ns: int
    end_ns: int = 0
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        """Duration minus the part of it that child spans cover."""
        return self.duration_ns - sum(child.duration_ns for child in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Span stack and counters for one single-client run."""

    def __init__(self) -> None:
        self.active = False
        self.thread = threading.get_ident()
        self.roots: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_span = 0
        self._next_request = 0
        self._gc_started: Optional[int] = None

    # -- ops -----------------------------------------------------------------

    def begin_op(self, kind: str) -> Span:
        """Open the root span of one op under a fresh request id."""
        self._next_request += 1
        root = self._open(f"op.{kind}", parent=None)
        self.active = True
        return root

    def end_op(self) -> Span:
        self.active = False
        root = self._stack.pop()
        root.end_ns = time.perf_counter_ns()
        if self._stack:
            raise RuntimeError("spans left open at the end of an op")
        self.roots.append(root)
        return root

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, parent: Optional[Span]) -> Span:
        self._next_span += 1
        span = Span(
            span_id=self._next_span,
            parent_id=parent.span_id if parent is not None else None,
            request_id=self._next_request,
            name=name,
            start_ns=time.perf_counter_ns(),
        )
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def traced(self, name: str) -> bool:
        """Whether a call entering layer *name* right now gets a span: in
        an op, on the op's thread, and not re-entering the same layer."""
        if not self.active or threading.get_ident() != self.thread:
            return False
        return self._stack[-1].name != name

    def open(self, name: str) -> Span:
        return self._open(name, self._stack[-1])

    def close(self, span: Span) -> None:
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end_ns = time.perf_counter_ns()

    # -- garbage collector ---------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started is not None:
            self.count("gc.pause_ns", time.perf_counter_ns() - self._gc_started)
            if info.get("generation") == 2:
                self.count("gc.gen2")
            self._gc_started = None

    # -- output --------------------------------------------------------------

    def dump(self, path: str, limit: int = 200) -> int:
        """Write the first *limit* span trees as JSON lines; returns count."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for root in self.roots[:limit]:
                for span in root.walk():
                    handle.write(
                        json.dumps(
                            {
                                "request": span.request_id,
                                "span": span.span_id,
                                "parent": span.parent_id,
                                "name": span.name,
                                "start_ns": span.start_ns,
                                "end_ns": span.end_ns,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written


# -- layer entry points --------------------------------------------------------


def _plan_shape(program, tracer: Tracer) -> None:
    """Count an algebra program's plan nodes and its EvalPlan leaves."""
    from repro.xquery.algebra.plans import EvalPlan

    stack = [program.plan]
    while stack:
        plan = stack.pop()
        tracer.count("algebra.plan_nodes")
        if isinstance(plan, EvalPlan):
            tracer.count("algebra.fallback_leaves")
        stack.extend(child for child in plan.children() if child is not None)


def _compile_before(args) -> int:
    return args[0].cache_hits


def _compile_after(args, token: int, tracer: Tracer) -> None:
    tracer.count("compile.calls")
    tracer.count("compile.hits", args[0].cache_hits - token)


def _execute_after(args, token, tracer: Tracer) -> None:
    tracer.count("pool.calls")


#: (module, attribute path, span name, before hook, after hook).
#: Hooks count work at the same boundary the span times.
TARGETS: Tuple[tuple, ...] = (
    ("repro.querycalc.service.service", "QueryService.run", "querycalc.service", None, None),
    ("repro.querycalc.service.service", "QueryService.apply_update", "querycalc.service", None, None),
    ("repro.querycalc.via_xquery", "XQueryCalculusBackend.compile_to_xquery", "querycalc.via_xquery", None, None),
    ("repro.xquery.api", "XQueryEngine.compile", "xquery.api.compile", _compile_before, _compile_after),
    ("repro.xquery.api", "CompiledQuery.run", "xquery.api.run", None, None),
    ("repro.xquery.api", "parse_query", "xquery.parser", None, None),
    ("repro.xquery.api", "optimize_module", "xquery.optimizer", None, None),
    ("repro.xquery.algebra", "AlgebraProgram.__init__", "xquery.algebra.lower", None, None),
    ("repro.xquery.algebra", "AlgebraProgram.optimize_for", "xquery.algebra.optimize", None, None),
    ("repro.xquery.algebra", "execute_plan", "xquery.algebra.execute", None, None),
    ("repro.xquery.algebra", "evaluate", "xquery.evaluator", None, None),
    ("repro.xquery.algebra.executor", "evaluate", "xquery.evaluator", None, None),
    ("repro.xquery.api", "evaluate", "xquery.evaluator", None, None),
    ("repro.docgen.xquery_impl.runner", "serialize", "xmlio.serialize", None, None),
    ("repro.docgen.xquery_impl.runner", "transform", "xslt.transform", None, None),
    ("repro.xquery.updates.apply", "apply_script", "xquery.updates.apply", None, None),
    ("repro.awb.xml_io", "IncrementalExporter.export", "awb.xml_io.export", None, None),
    ("repro.serving.pool", "ProcessPool.execute", "serving.pool.execute", None, _execute_after),
    ("repro.serving.pool", "ProcessPool.apply_delta", "serving.pool.delta", None, None),
    ("repro.collections.service", "SearchService.run", "collections.service", None, None),
    ("repro.collections.service", "SearchService.put_text", "collections.service", None, None),
    ("repro.collections.service", "_WorkerHandle.request", "collections.worker", None, None),
    ("repro.collections.store", "DocumentStore.put_text", "collections.store.put", None, None),
    ("repro.collections.fulltext", "InvertedIndex.add", "collections.fulltext", None, None),
    ("repro.collections.fulltext", "InvertedIndex.remove", "collections.fulltext", None, None),
)


def _wrap(original: Callable, name: str, before, after, tracer: Tracer):
    def wrapper(*args, **kwargs):
        if not tracer.traced(name):
            return original(*args, **kwargs)
        token = before(args) if before is not None else None
        span = tracer.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(span)
            if after is not None:
                after(args, token, tracer)

    wrapper.__wrapped__ = original
    return wrapper


def _wrap_init(original: Callable, name: str, tracer: Tracer):
    """``AlgebraProgram.__init__``: time the lowering, count the plan."""

    def wrapper(self, *args, **kwargs):
        if not tracer.traced(name):
            return original(self, *args, **kwargs)
        span = tracer.open(name)
        try:
            original(self, *args, **kwargs)
        finally:
            tracer.close(span)
        _plan_shape(self, tracer)

    wrapper.__wrapped__ = original
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps."""
    undo: List[Tuple[object, str, object]] = []
    for module_name, path, name, before, after in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attribute)
        if attribute == "__init__":
            replacement = _wrap_init(original, name, tracer)
        else:
            replacement = _wrap(original, name, before, after, tracer)
        setattr(owner, attribute, replacement)
        undo.append((owner, attribute, original))
    gc.callbacks.append(tracer.on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


# -- per-layer metrics -----------------------------------------------------------


def layer_times(roots: List[Span], scales: List[float]) -> Dict[str, Dict[str, float]]:
    """Per op kind and span name: scaled inclusive and self seconds.

    Keys are ``(kind, name, "total"|"self")`` flattened to
    ``"kind|name|total"``; ``scales`` holds each op's host-speed factor.
    Docgen phases are the op's direct ``xquery.api.run`` children in call
    order, reported under ``docgen.phase<k>``.
    """
    sums: Dict[str, float] = {}
    for root, scale in zip(roots, scales):
        kind = root.name.split(".", 1)[1]
        for span in root.walk():
            for measure, ns in (("total", span.duration_ns), ("self", span.self_ns)):
                key = f"{kind}|{span.name}|{measure}"
                sums[key] = sums.get(key, 0.0) + ns * 1e-9 * scale
        phases = [child for child in root.children if child.name == "xquery.api.run"]
        if len(phases) == 5:
            for index, span in enumerate(phases, start=1):
                key = f"{kind}|docgen.phase{index}|total"
                sums[key] = sums.get(key, 0.0) + span.duration_ns * 1e-9 * scale
    return sums
