"""Static and dynamic evaluation contexts, and engine configuration."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..xdm import DocumentNode, Sequence
from .ast import FunctionDecl
from .errors import XQueryTimeoutError


@dataclass
class EngineConfig:
    """Tunable behaviours, several of which reproduce 2004-era Galax.

    ``duplicate_attribute_mode``
        What a constructor does when two attribute nodes share a name:
        ``"last"`` or ``"first"`` keep one (the two legal outcomes the paper
        shows), ``"keep"`` keeps both (the Galax bug the paper observed),
        ``"error"`` raises XQDY0025 (the eventual standard).
    ``galax_diagnostics``
        When True, dynamic errors lose their location information and a
        missing variable is reported as the infamous
        ``Internal_Error: Variable '$glx:dot' not found.`` — the message the
        paper quotes.  Used by the debugging experiments.
    ``optimize`` / ``trace_is_dead_code``
        Run the optimizer; and, if so, whether its dead-code pass considers
        ``fn:trace`` removable (the transient Galax optimizer bug that made
        the paper's tracing vanish).
    ``max_recursion_depth``
        Guard for runaway recursive user functions.
    ``backend``
        Which execution backend ``CompiledQuery.run`` uses by default:
        ``"algebra"`` (the default: the set-at-a-time plan executor with
        index scans and hash joins, running everything outside its
        fragment as closure-compiled code; see :mod:`repro.xquery.algebra`),
        ``"closures"`` (the closure-compiling backend alone), or
        ``"treewalk"`` (the period-accurate reference interpreter, which
        the paper-reproduction benchmarks pin explicitly).  Parity across
        all three is asserted by ``tests/test_backend_parity.py`` and the
        differential fuzzer.
    ``compile_cache_size``
        Maximum number of compiled queries the engine's LRU compile cache
        retains; ``0`` disables caching entirely.
    ``lint``
        Run the static analyzer (:mod:`repro.xquery.analysis`) at compile
        time, *before* the optimizer runs: ``"off"`` (default), ``"warn"``
        (emit a :class:`~repro.xquery.analysis.LintWarning` per finding of
        warning severity or worse), or ``"error"`` (raise
        :class:`~repro.xquery.errors.XQueryStaticError` on the first such
        finding).  Linting pre-optimization is what lets XQL001 warn about
        the trace the dead-code pass is about to delete.
    ``lint_schema``
        Which document schema the lint pass evaluates paths and
        predicates against: ``"awb"`` (default — the AWB export schema,
        enabling the typed rules XQL010–XQL012) or ``"off"`` (schema-free
        linting, XQL001–XQL009 only).  With ``lint="error"`` and the
        default schema, compilation rejects statically dead paths and
        ill-typed operators outright — the typed mode the paper skipped.
    """

    duplicate_attribute_mode: str = "last"
    galax_diagnostics: bool = False
    optimize: bool = True
    trace_is_dead_code: bool = False
    max_recursion_depth: int = 2000
    type_check_calls: bool = True
    backend: str = "algebra"
    compile_cache_size: int = 128
    lint: str = "off"
    lint_schema: str = "awb"

    def __post_init__(self) -> None:
        if self.lint not in ("off", "warn", "error"):
            raise ValueError(
                f"lint must be 'off', 'warn', or 'error', not {self.lint!r}"
            )
        if self.lint_schema not in ("awb", "off"):
            raise ValueError(
                f"lint_schema must be 'awb' or 'off', not {self.lint_schema!r}"
            )


class TraceLog:
    """Collects ``fn:trace`` output; optionally tees to a print function."""

    def __init__(self, echo: Optional[Callable[[str], None]] = None):
        self.messages: List[str] = []
        self._echo = echo

    def emit(self, message: str) -> None:
        self.messages.append(message)
        if self._echo is not None:
            self._echo(message)

    def clear(self) -> None:
        self.messages.clear()


@dataclass
class StaticContext:
    """Compile-time knowledge: declared functions and global variables."""

    functions: Dict[Tuple[str, int], FunctionDecl] = field(default_factory=dict)
    variable_names: List[str] = field(default_factory=list)
    namespaces: Dict[str, str] = field(default_factory=dict)


class DynamicContext:
    """The dynamic context: focus, variable bindings, documents, config.

    Variable scopes are handled by *copying* the bindings dict on scope
    entry — bindings are small in practice and copying keeps semantics
    obviously correct (no accidental capture, which matters for a purely
    functional language's evaluator).
    """

    __slots__ = (
        "variables",
        "globals",
        "item",
        "position",
        "size",
        "functions",
        "documents",
        "collections",
        "config",
        "trace",
        "depth",
        "deadline",
    )

    def __init__(
        self,
        variables: Optional[Dict[str, Sequence]] = None,
        functions: Optional[Dict[Tuple[str, int], FunctionDecl]] = None,
        documents: Optional[Dict[str, DocumentNode]] = None,
        config: Optional[EngineConfig] = None,
        trace: Optional[TraceLog] = None,
        deadline: Optional[float] = None,
        collections=None,
    ):
        self.variables: Dict[str, Sequence] = variables if variables is not None else {}
        #: module-level (prolog-declared and external) variables; visible in
        #: every scope including user-function bodies.
        self.globals: Dict[str, Sequence] = {}
        self.item = None  # context item, or None if absent
        self.position = 0
        self.size = 0
        self.functions = functions if functions is not None else {}
        self.documents = documents if documents is not None else {}
        #: a :class:`repro.collections.DocumentStore` (or None): the
        #: uri-addressed multi-document store behind ``fn:doc``,
        #: ``fn:collection``, and the ``ft:*`` builtins.
        self.collections = collections
        self.config = config if config is not None else EngineConfig()
        self.trace = trace if trace is not None else TraceLog()
        self.depth = 0
        #: absolute ``time.monotonic()`` instant after which evaluation must
        #: stop, or None for no budget.  Checked between pipeline stages,
        #: FLWOR tuples, and user-function calls in both backends.
        self.deadline = deadline

    def check_deadline(self) -> None:
        """Raise ``XQDY_TIMEOUT`` if the wall-clock budget has been spent."""
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise XQueryTimeoutError("query exceeded its wall-clock deadline")

    def with_variables(self, new_bindings: Dict[str, Sequence]) -> "DynamicContext":
        """A child context with additional variable bindings."""
        child = self._clone()
        child.variables = dict(self.variables)
        child.variables.update(new_bindings)
        return child

    def with_tuple(
        self, bindings: Dict[str, object], bare: Tuple[str, ...]
    ) -> "DynamicContext":
        """A child context binding one FLWOR tuple (see :func:`tuple_scope`)."""
        child = self._clone()
        child.variables = variables = dict(self.variables)
        variables.update(bindings)
        for name in bare:
            variables[name] = [variables[name]]
        return child

    def with_focus(self, item, position: int, size: int) -> "DynamicContext":
        """A child context with a new focus (context item / position / size)."""
        child = self._clone()
        child.item = item
        child.position = position
        child.size = size
        return child

    def function_scope(self, bindings: Dict[str, Sequence]) -> "DynamicContext":
        """A context for a user-function body: parameters + globals only.

        XQuery functions do not close over the caller's local variables.
        """
        child = self._clone()
        child.variables = dict(self.globals)
        child.variables.update(bindings)
        child.item = None
        child.position = 0
        child.size = 0
        child.depth = self.depth + 1
        return child

    def _clone(self) -> "DynamicContext":
        child = DynamicContext.__new__(DynamicContext)
        child.variables = self.variables
        child.globals = self.globals
        child.item = self.item
        child.position = self.position
        child.size = self.size
        child.functions = self.functions
        child.documents = self.documents
        child.collections = self.collections
        child.config = self.config
        child.trace = self.trace
        child.depth = self.depth
        child.deadline = self.deadline
        return child


# -- FLWOR binding tuples ------------------------------------------------------
#
# A FLWOR materializes one binding tuple per iteration, often tens of
# thousands of them.  A tuple keeps each `for`/`at` variable as its bare item
# rather than a one-item list: a dict whose values are all atomic is not
# tracked by Python's cyclic garbage collector, so tuples over atomic items
# add nothing to its work.  With a list per variable every tuple added two
# tracked objects, and a 90k-tuple FLWOR set off full collections of 40-100
# ms each in the middle of the loop, where no deadline check can interrupt
# them.  The *bare* names of a clause say which variables are stored so.


def tuple_scope(bindings: Dict[str, object], bare: Tuple[str, ...]) -> Dict[str, Sequence]:
    """The variable bindings of one FLWOR tuple, every value a sequence."""
    if not bare:
        return bindings
    scope = dict(bindings)
    for name in bare:
        scope[name] = [scope[name]]
    return scope


def bare_after(
    bare: Tuple[str, ...], bound: Tuple[str, ...], stored_bare: bool
) -> Tuple[str, ...]:
    """The bare names once a clause binds *bound*, bare or as sequences."""
    kept = tuple(name for name in bare if name not in bound)
    return kept + tuple(dict.fromkeys(bound)) if stored_bare else kept
