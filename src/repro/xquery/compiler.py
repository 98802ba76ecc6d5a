"""The closure-compiling XQuery backend.

The tree-walking evaluator pays a ``_DISPATCH`` dict lookup, attribute
re-resolution, and a chain of ``isinstance`` tests on *every* evaluation
step of every node — per row, per cell, per predicate.  This module walks
the (already optimized) AST **once** at compile time and emits nested
Python closures (``Callable[[DynamicContext], Sequence]``): all dispatch
decisions, node-test shapes, and function resolutions are taken while
compiling, so running a query is just calling plain closures.

Semantics are *bit-for-bit* the treewalk's — same quirks, same error codes,
same evaluation order — which is asserted by ``tests/test_backend_parity.py``
rather than by sharing the interpreter loop.  To keep drift impossible the
compiler reuses every evaluator helper that does not itself recurse through
``evaluate`` (``construct_element``, ``_test_matches``, ``_OrderKey``, …);
only the recursion itself is replaced by closures.

Child and attribute axis steps with a name test additionally use the lazy
name indexes on :class:`~repro.xdm.nodes.ElementNode`, turning the docgen
templates' hammered axes from O(children) scans into dict hits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..xdm import (
    AttributeNode,
    Node,
    CastError,
    CommentNode,
    DocumentNode,
    ElementNode,
    ComparisonTypeError,
    ProcessingInstructionNode,
    Sequence,
    TextNode,
    UntypedAtomic,
    atomize,
    cast_atomic,
    general_compare,
    sort_document_order,
    string_value_of_atomic,
    value_compare,
)
from . import ast
from .context import DynamicContext, EngineConfig, bare_after
from .errors import XQueryDynamicError, XQueryTypeError
from .evaluator import (
    _OrderKey,
    _axis_candidates,
    _descendant_or_self_nodes,
    _error,
    _is_numeric_predicate,
    _node_comparison,
    _singleton_integer,
    _test_matches,
    _enclosed_items,
    construct_element,
    ebv,
)
from .functions import lookup_builtin
from .operators import arithmetic, negate, set_operation

#: A compiled expression: call it with a dynamic context, get a sequence.
Thunk = Callable[[DynamicContext], Sequence]


class CompiledProgram:
    """A whole module compiled to closures: body, globals, and functions."""

    def __init__(
        self,
        module: ast.Module,
        functions: Dict[Tuple[str, int], ast.FunctionDecl],
        config: EngineConfig,
    ):
        compiler = _Compiler(functions, config)
        #: closures for the prolog's *declared* (non-external) variables.
        self.variable_values: Dict[str, Thunk] = compiler.compile_globals(module)
        self.body: Thunk = compiler.compile(module.body)


#: A compiled predicate: filters a candidate sequence under a context.
_Applier = Callable[[Sequence, DynamicContext], Sequence]

#: builtins that always return a singleton boolean (or raise), so their
#: effective boolean value is just the returned item.  Kept deliberately
#: small and certain; see the matching functions in ``functions.py``.
_BOOLEAN_BUILTINS = frozenset(
    ("empty", "exists", "not", "boolean", "true", "false", "contains", "starts-with")
)


def _select_position(items: Sequence, position: float) -> Sequence:
    """Fast path for a constant numeric predicate like ``[2]``."""
    index = int(position)
    if float(index) == position and 1 <= index <= len(items):
        return [items[index - 1]]
    return []


def _hoistable(expr: ast.Expr) -> bool:
    """Can *expr* be evaluated once per predicate application?

    True only for pure, focus-independent expressions that neither
    construct nodes nor have side effects, so evaluating them once instead
    of once per candidate is unobservable: literals, variable references,
    ``fn:string`` of such, and short variable-rooted paths of
    predicate-free child/attribute steps (which return *existing* nodes).
    """
    if isinstance(expr, (ast.Literal, ast.VarRef)):
        return True
    if isinstance(expr, ast.FunctionCall):
        return expr.name in ("string", "fn:string") and len(expr.args) == 1 and (
            _hoistable(expr.args[0])
        )
    if isinstance(expr, ast.PathExpr):
        return (
            expr.anchor is None
            and isinstance(expr.first, ast.VarRef)
            and all(
                isinstance(step, ast.AxisStep)
                and step.axis in ("child", "attribute")
                and step.test.kind in ("name", "wildcard")
                and not step.predicates
                for _, step in expr.steps
            )
        )
    return False


#: Axes whose scan of ONE context node is already duplicate-free and in
#: document order, so the normalizing sort is the identity and is skipped.
#: (``parent`` qualifies because it yields at most one node; the remaining
#: reverse axes yield reverse document order and must still be sorted.)
_ORDERED_AXES = frozenset(
    (
        "child",
        "attribute",
        "self",
        "descendant",
        "descendant-or-self",
        "following-sibling",
        "parent",
    )
)


def _raise_non_node_step(expr: ast.Expr, ctx: DynamicContext, item: object):
    if item is None:
        raise _error(expr, ctx, "context item is absent in a path step", "XPDY0002")
    raise _error(expr, ctx, "a path step was applied to an atomic value", "XPTY0019")


def _apply_step(thunk: Thunk, context_items: Sequence, ctx: DynamicContext) -> Sequence:
    """Compiled twin of the evaluator's ``_apply_step`` (non-initial case)."""
    # predicate-free axis steps expose their candidate scan directly: no
    # focus contexts are needed, and axis scans only ever produce nodes so
    # the node/atomic mixing check cannot fire.
    candidates = getattr(thunk, "candidates", None)
    if candidates is not None:
        if len(context_items) == 1:
            item = context_items[0]
            if not isinstance(item, Node):
                _raise_non_node_step(thunk.step_expr, ctx, item)
            found = candidates(item)
            return found if thunk.ordered else sort_document_order(found)
        results = []
        for item in context_items:
            if not isinstance(item, Node):
                _raise_non_node_step(thunk.step_expr, ctx, item)
            results.extend(candidates(item))
        return sort_document_order(results)
    size = len(context_items)
    results: Sequence = []
    saw_node = False
    saw_atomic = False
    if size:
        # one mutable focus for the whole scan; see _compile_predicate.
        focus = ctx._clone()
        focus.size = size
        for position, item in enumerate(context_items, start=1):
            focus.item = item
            focus.position = position
            for result_item in thunk(focus):
                if isinstance(result_item, Node):
                    saw_node = True
                else:
                    saw_atomic = True
                results.append(result_item)
    if saw_node and saw_atomic:
        raise XQueryTypeError(
            "a path step produced both nodes and atomic values", code="XPTY0018"
        )
    if saw_node:
        if size == 1 and getattr(thunk, "ordered", False):
            return results
        return sort_document_order(results)
    return results


class _FunctionBodies(dict):
    """``(name, arity) -> compiled body``, compiling a body on first lookup.

    Racing first calls may both compile; the first stored thunk wins and
    the two are interchangeable anyway.
    """

    __slots__ = ("_compiler",)

    def __init__(self, compiler: "_Compiler"):
        super().__init__()
        self._compiler = compiler

    def __missing__(self, key: Tuple[str, int]) -> Thunk:
        compiler = self._compiler
        return self.setdefault(key, compiler.compile(compiler.functions[key].body))


class _Compiler:
    """Compiles AST nodes to thunks; one instance per program."""

    def __init__(
        self,
        functions: Dict[Tuple[str, int], ast.FunctionDecl],
        config: EngineConfig,
    ):
        self.functions = functions
        self.config = config
        #: compiled user-function bodies, looked up at call time so
        #: (mutually) recursive declarations work; each body compiles on
        #: its first call, so never-called functions cost nothing.
        self.function_bodies: Dict[Tuple[str, int], Thunk] = _FunctionBodies(self)

    def compile_globals(self, module: ast.Module) -> Dict[str, Thunk]:
        """Closures for the prolog's declared (non-external) variables."""
        return {
            declaration.name: self.compile(declaration.value)
            for declaration in module.variables
            if declaration.value is not None
        }

    def compile(self, expr: ast.Expr) -> Thunk:
        method = _COMPILE.get(type(expr))
        if method is None:
            # Parity: the treewalk only errors when such a node is evaluated.
            message = f"cannot evaluate {type(expr).__name__}"

            def run(ctx: DynamicContext) -> Sequence:
                raise XQueryDynamicError(message)

            return run
        return method(self, expr)

    def _compile_predicates(self, predicates: List[ast.Expr]) -> List[_Applier]:
        return [self._compile_predicate(p) for p in predicates]

    def _compile_predicate(self, predicate: ast.Expr) -> _Applier:
        """Compile one predicate to an applier ``(items, ctx) -> items``.

        Three shapes, chosen at compile time: a constant numeric predicate
        like ``[2]`` selects positionally; the docgen-hot shape
        ``[@name eq <pure expr>]`` compares attribute values without building
        a focus context per candidate; everything else runs the generic
        focus-per-item loop the treewalk uses.
        """
        if (
            isinstance(predicate, ast.Literal)
            and not isinstance(predicate.value, bool)
            and isinstance(predicate.value, (int, float))
        ):
            position = float(predicate.value)
            return lambda items, ctx: _select_position(items, position)
        fast = self._attribute_comparison_applier(predicate)
        if fast is None:
            fast = self._name_comparison_applier(predicate)
        if fast is not None:
            return fast
        if self._statically_boolean(predicate) or isinstance(
            predicate, (ast.BooleanOp, ast.Comparison)
        ):
            # always [], [True] or [False]: never a numeric predicate, and
            # its EBV is the item itself.  (A node-style comparison also
            # yields only booleans/empties, so it is included.)
            test = self._compile_ebv(predicate)

            def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
                size = len(items)
                if not size:
                    return items
                focus = ctx._clone()
                focus.size = size
                kept = []
                for position, item in enumerate(items, start=1):
                    focus.item = item
                    focus.position = position
                    if test(focus):
                        kept.append(item)
                return kept

            return applier
        thunk = self.compile(predicate)

        def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
            size = len(items)
            if not size:
                return items
            # One mutable focus serves every candidate: derived contexts
            # copy the focus fields at clone time, and evaluation is eager,
            # so nothing observes the focus after its item's thunk returns.
            focus = ctx._clone()
            focus.size = size
            kept = []
            for position, item in enumerate(items, start=1):
                focus.item = item
                focus.position = position
                result = thunk(focus)
                if _is_numeric_predicate(result):
                    if float(result[0]) == position:
                        kept.append(item)
                elif ebv(result, predicate, ctx):
                    kept.append(item)
            return kept

        return applier

    def _attribute_comparison_applier(self, predicate: ast.Expr) -> Optional[_Applier]:
        """The fast path for ``[@name eq <hoistable>]`` value comparisons.

        This is the shape the docgen/querycalc sources hammer
        (``node[@id eq string($id)]``, ``edge[@source eq $n/@id]``): the
        attribute lookup uses the element's name index, and the pure right
        side is evaluated once per application instead of once per
        candidate.  Error behaviour is order-preserving with the treewalk:
        an atomic candidate raises XPTY0019 before the right side is
        looked at, the right side is first evaluated when the first
        candidate is inspected, empty sides skip before the singleton
        check, and singleton/comparability violations carry the same
        XPTY0004 messages.
        """
        if not (
            isinstance(predicate, ast.Comparison)
            and predicate.style == "value"
            and _hoistable(predicate.right)
        ):
            return None
        left_expr = predicate.left
        # ``@name`` appears both as a bare step and as a one-step relative
        # path, depending on the production that parsed it.
        if (
            isinstance(left_expr, ast.PathExpr)
            and left_expr.anchor is None
            and not left_expr.steps
            and isinstance(left_expr.first, ast.AxisStep)
        ):
            left_expr = left_expr.first
        if not (
            isinstance(left_expr, ast.AxisStep)
            and left_expr.axis == "attribute"
            and left_expr.test.kind == "name"
            and not left_expr.predicates
        ):
            return None
        attr_name = left_expr.test.name
        op = predicate.op
        keep_equal = op == "eq"
        right_thunk = self.compile(predicate.right)

        def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
            kept = []
            right_atoms: Optional[Sequence] = None
            # When the right side is a singleton string(-ish) atom and the
            # operator is eq/ne, the untyped attribute value compares as a
            # plain string: skip value_compare (and its promotion ladder)
            # per candidate entirely.
            target: Optional[str] = None
            for item in items:
                if not isinstance(item, Node):
                    _raise_non_node_step(left_expr, ctx, item)
                if isinstance(item, ElementNode):
                    matches = item.attributes_by_name(attr_name)
                else:
                    matches = [a for a in item.attributes if a.name == attr_name]
                if right_atoms is None:
                    right_atoms = atomize(right_thunk(ctx))
                    if len(right_atoms) == 1 and op in ("eq", "ne"):
                        atom = right_atoms[0]
                        if isinstance(atom, UntypedAtomic):
                            target = atom.value
                        elif isinstance(atom, str):
                            target = atom
                if not matches or not right_atoms:
                    continue
                if target is not None and len(matches) == 1:
                    if (matches[0].value == target) == keep_equal:
                        kept.append(item)
                    continue
                left_atoms = atomize(matches)
                if len(left_atoms) > 1 or len(right_atoms) > 1:
                    raise _error(
                        predicate,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                try:
                    if value_compare(op, left_atoms[0], right_atoms[0]):
                        kept.append(item)
                except ComparisonTypeError as exc:
                    raise _error(predicate, ctx, str(exc), "XPTY0004") from exc
            return kept

        return applier

    def _is_builtin_name_call(self, expr: ast.Expr) -> bool:
        """``name()`` or ``name(.)``, resolving to the builtin (unshadowed)."""
        if not isinstance(expr, ast.FunctionCall):
            return False
        fname = expr.name
        if fname.startswith("fn:"):
            fname = fname[3:]
        if fname != "name":
            return False
        if expr.args and not (
            len(expr.args) == 1 and isinstance(expr.args[0], ast.ContextItem)
        ):
            return False
        return (fname, len(expr.args)) not in self.functions and (
            lookup_builtin(fname, len(expr.args)) is not None
        )

    def _name_comparison_applier(self, predicate: ast.Expr) -> Optional[_Applier]:
        """The fast path for ``[name(.) eq <hoistable>]`` predicates.

        ``local:child-element-named`` and ``local:required-attr`` in the
        docgen sources select by node name this way for every directive.
        ``fn:name`` of a node is its name string (or ``""``), so the whole
        test collapses to a string comparison per candidate; errors keep
        the treewalk's order (a non-node candidate raises the builtin's
        type error before the right side is looked at).
        """
        if not (
            isinstance(predicate, ast.Comparison)
            and predicate.style == "value"
            and self._is_builtin_name_call(predicate.left)
            and _hoistable(predicate.right)
        ):
            return None
        op = predicate.op
        fast_eq = op in ("eq", "ne")
        keep_equal = op == "eq"
        right_thunk = self.compile(predicate.right)

        def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
            kept = []
            right_atoms: Optional[Sequence] = None
            target: Optional[str] = None
            for item in items:
                if not isinstance(item, Node):
                    raise XQueryTypeError("name requires a node argument")
                if right_atoms is None:
                    right_atoms = atomize(right_thunk(ctx))
                    if fast_eq and len(right_atoms) == 1:
                        atom = right_atoms[0]
                        if isinstance(atom, UntypedAtomic):
                            target = atom.value
                        elif isinstance(atom, str):
                            target = atom
                if not right_atoms:
                    continue
                if target is not None:
                    if ((item.name or "") == target) == keep_equal:
                        kept.append(item)
                    continue
                if len(right_atoms) > 1:
                    raise _error(
                        predicate,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                try:
                    if value_compare(op, item.name or "", right_atoms[0]):
                        kept.append(item)
                except ComparisonTypeError as exc:
                    raise _error(predicate, ctx, str(exc), "XPTY0004") from exc
            return kept

        return applier

    # -- simple expressions ------------------------------------------------

    def _literal(self, expr: ast.Literal) -> Thunk:
        value = expr.value
        return lambda ctx: [value]

    def _empty(self, expr: ast.EmptySequence) -> Thunk:
        return lambda ctx: []

    def _var(self, expr: ast.VarRef) -> Thunk:
        name = expr.name

        def run(ctx: DynamicContext) -> Sequence:
            try:
                return ctx.variables[name]
            except KeyError:
                if ctx.config.galax_diagnostics:
                    raise XQueryDynamicError(
                        "Internal_Error: Variable '$glx:dot' not found.",
                        code="XPDY0002",
                    ) from None
                raise _error(
                    expr, ctx, f"undefined variable ${name}", "XPST0008"
                ) from None

        return run

    def _context_item(self, expr: ast.ContextItem) -> Thunk:
        def run(ctx: DynamicContext) -> Sequence:
            if ctx.item is None:
                raise _error(expr, ctx, "context item is absent", "XPDY0002")
            return [ctx.item]

        return run

    def _sequence(self, expr: ast.SequenceExpr) -> Thunk:
        parts = tuple(self.compile(item) for item in expr.items)

        def run(ctx: DynamicContext) -> Sequence:
            result: Sequence = []
            for part in parts:
                result.extend(part(ctx))
            return result

        return run

    def _range(self, expr: ast.RangeExpr) -> Thunk:
        start_thunk = self.compile(expr.start)
        end_thunk = self.compile(expr.end)

        def run(ctx: DynamicContext) -> Sequence:
            start = _singleton_integer(start_thunk(ctx), expr, ctx)
            end = _singleton_integer(end_thunk(ctx), expr, ctx)
            if start is None or end is None or start > end:
                return []
            return list(range(start, end + 1))

        return run

    def _arithmetic(self, expr: ast.Arithmetic) -> Thunk:
        left_thunk = self.compile(expr.left)
        right_thunk = self.compile(expr.right)
        op = expr.op

        def run(ctx: DynamicContext) -> Sequence:
            left = left_thunk(ctx)
            right = right_thunk(ctx)
            try:
                return arithmetic(op, left, right)
            except XQueryTypeError as exc:
                raise _error(expr, ctx, exc.bare_message, exc.code) from exc

        return run

    def _unary(self, expr: ast.Unary) -> Thunk:
        operand_thunk = self.compile(expr.operand)

        def run(ctx: DynamicContext) -> Sequence:
            try:
                return negate(operand_thunk(ctx))
            except XQueryTypeError as exc:
                raise _error(expr, ctx, exc.bare_message, exc.code) from exc

        return run

    def _comparison(self, expr: ast.Comparison) -> Thunk:
        left_thunk = self.compile(expr.left)
        right_thunk = self.compile(expr.right)
        op = expr.op
        if expr.style == "general":

            def run(ctx: DynamicContext) -> Sequence:
                left = left_thunk(ctx)
                right = right_thunk(ctx)
                try:
                    return [general_compare(op, left, right)]
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return run
        if expr.style == "value":

            def run(ctx: DynamicContext) -> Sequence:
                left_atoms = atomize(left_thunk(ctx))
                right_atoms = atomize(right_thunk(ctx))
                if not left_atoms or not right_atoms:
                    return []
                if len(left_atoms) > 1 or len(right_atoms) > 1:
                    raise _error(
                        expr,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                try:
                    return [value_compare(op, left_atoms[0], right_atoms[0])]
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return run

        def run(ctx: DynamicContext) -> Sequence:
            left = left_thunk(ctx)
            right = right_thunk(ctx)
            return _node_comparison(expr, left, right, ctx)

        return run

    def _statically_boolean(self, expr: ast.Expr) -> bool:
        """Does *expr* always produce ``[]``, ``[True]`` or ``[False]``?

        For such shapes the effective boolean value is just the item (or
        False when empty), so EBV consumers skip the generic ``ebv`` path.
        """
        if isinstance(
            expr, (ast.BooleanOp, ast.Quantified, ast.InstanceOf, ast.CastableAs)
        ):
            return True
        if isinstance(expr, ast.Comparison):
            return expr.style in ("general", "value")
        if isinstance(expr, ast.FunctionCall):
            name = expr.name
            if name.startswith("fn:"):
                name = name[3:]
            return (
                name in _BOOLEAN_BUILTINS
                and (name, len(expr.args)) not in self.functions
                and lookup_builtin(name, len(expr.args)) is not None
            )
        return False

    def _compile_ebv(
        self, expr: ast.Expr, error_expr: Optional[ast.Expr] = None
    ) -> Callable[[DynamicContext], bool]:
        """Compile *expr* straight to its effective boolean value.

        Boolean operators, comparisons, and quantifiers in boolean
        positions (conditions, where clauses, predicates) skip building a
        singleton list only to take its EBV again.  Order of evaluation
        and every error are exactly the generic path's; ``error_expr`` is
        what a failing EBV blames, which the treewalk varies by call site
        (a boolean operator blames itself, not its operand).
        """
        if error_expr is None:
            error_expr = expr
        if isinstance(expr, ast.BooleanOp):
            left_test = self._compile_ebv(expr.left, expr)
            right_test = self._compile_ebv(expr.right, expr)
            if expr.op == "and":
                return lambda ctx: left_test(ctx) and right_test(ctx)
            return lambda ctx: left_test(ctx) or right_test(ctx)
        if isinstance(expr, ast.Comparison) and expr.style == "general":
            left_thunk = self.compile(expr.left)
            right_thunk = self.compile(expr.right)
            op = expr.op

            def test(ctx: DynamicContext) -> bool:
                try:
                    return general_compare(op, left_thunk(ctx), right_thunk(ctx))
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return test
        if isinstance(expr, ast.Comparison) and expr.style == "value":
            left_thunk = self.compile(expr.left)
            right_thunk = self.compile(expr.right)
            op = expr.op
            fast_eq = op in ("eq", "ne")
            keep_equal = op == "eq"

            def test(ctx: DynamicContext) -> bool:
                left_atoms = atomize(left_thunk(ctx))
                right_atoms = atomize(right_thunk(ctx))
                if not left_atoms or not right_atoms:
                    return False  # the comparison's [] has EBV false
                if len(left_atoms) > 1 or len(right_atoms) > 1:
                    raise _error(
                        expr,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                left = left_atoms[0]
                right = right_atoms[0]
                if fast_eq:
                    # Untyped-vs-untyped and untyped-vs-string eq/ne reduce
                    # to plain string equality under the promotion rules.
                    lv = left.value if type(left) is UntypedAtomic else left
                    rv = right.value if type(right) is UntypedAtomic else right
                    if type(lv) is str and type(rv) is str:
                        return (lv == rv) == keep_equal
                try:
                    return value_compare(op, left, right)
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return test
        thunk = self.compile(expr)
        fast = getattr(thunk, "ebv", None)
        if fast is not None:
            return fast
        if self._statically_boolean(expr):
            def test(ctx: DynamicContext) -> bool:
                result = thunk(ctx)
                return result[0] if result else False

            return test

        def test(ctx: DynamicContext) -> bool:
            return ebv(thunk(ctx), error_expr, ctx)

        return test

    def _boolean_op(self, expr: ast.BooleanOp) -> Thunk:
        test = self._compile_ebv(expr)

        def run(ctx: DynamicContext) -> Sequence:
            return [test(ctx)]

        run.ebv = test
        return run

    def _set_op(self, expr: ast.SetOp) -> Thunk:
        left_thunk = self.compile(expr.left)
        right_thunk = self.compile(expr.right)
        op = expr.op

        def run(ctx: DynamicContext) -> Sequence:
            left = left_thunk(ctx)
            right = right_thunk(ctx)
            try:
                return set_operation(op, left, right)
            except XQueryTypeError as exc:
                raise _error(expr, ctx, exc.bare_message, exc.code) from exc

        return run

    # -- paths --------------------------------------------------------------

    def _candidate_selector(self, expr: ast.AxisStep) -> Callable:
        """Choose the candidate scan once, at compile time.

        The hot shapes — ``child::name`` and ``attribute::name`` — read the
        element's lazy name indexes (copied so the internal lists never
        leak); everything else falls back to the generic axis walk the
        treewalk uses.
        """
        axis = expr.axis
        test = expr.test
        if axis == "child" and test.kind == "name":
            name = test.name

            def candidates(node):
                if isinstance(node, ElementNode):
                    return list(node.children_by_name(name))
                return [
                    child
                    for child in node.children
                    if isinstance(child, ElementNode) and child.name == name
                ]

            return candidates
        if axis == "attribute" and test.kind == "name":
            name = test.name

            def candidates(node):
                if isinstance(node, ElementNode):
                    return list(node.attributes_by_name(name))
                return [a for a in node.attributes if a.name == name]

            return candidates

        def candidates(node):
            return [
                n for n in _axis_candidates(node, axis) if _test_matches(test, n, axis)
            ]

        return candidates

    def _axis_step(self, expr: ast.AxisStep) -> Thunk:
        candidates = self._candidate_selector(expr)
        appliers = self._compile_predicates(expr.predicates)

        def run(ctx: DynamicContext) -> Sequence:
            item = ctx.item
            if not isinstance(item, Node):
                _raise_non_node_step(expr, ctx, item)
            items = candidates(item)
            for applier in appliers:
                items = applier(items, ctx)
            return items

        # metadata _apply_step uses for its fast paths
        run.step_expr = expr
        run.ordered = expr.axis in _ORDERED_AXES
        if not appliers:
            run.candidates = candidates
        return run

    def _filter(self, expr: ast.FilterExpr) -> Thunk:
        base_thunk = self.compile(expr.base)
        appliers = self._compile_predicates(expr.predicates)

        def run(ctx: DynamicContext) -> Sequence:
            items = base_thunk(ctx)
            for applier in appliers:
                items = applier(items, ctx)
            return items

        return run

    def _path(self, expr: ast.PathExpr) -> Thunk:
        anchor = expr.anchor
        first_thunk = self.compile(expr.first) if expr.first is not None else None
        first_is_axis = isinstance(expr.first, ast.AxisStep)
        # per step, the _apply_step metadata is looked up once at compile
        # time so the hot loop below branches straight to the fast path.
        steps = tuple(
            (
                separator == "//",
                thunk,
                getattr(thunk, "candidates", None),
                getattr(thunk, "ordered", False),
                step,
            )
            for separator, step, thunk in (
                (separator, step, self.compile(step))
                for separator, step in expr.steps
            )
        )

        def run(ctx: DynamicContext) -> Sequence:
            if anchor in ("/", "//"):
                if not isinstance(ctx.item, Node):
                    raise _error(
                        expr, ctx, "'/' requires a node as the context item", "XPDY0002"
                    )
                current: Sequence = [ctx.item.root()]
                if anchor == "//":
                    current = _descendant_or_self_nodes(current)
                if first_thunk is not None:
                    current = _apply_step(first_thunk, current, ctx)
            elif first_is_axis:
                current = _apply_step(
                    first_thunk, [ctx.item] if ctx.item is not None else [None], ctx
                )
            else:
                # The leading expression of a relative path is evaluated once
                # in the outer focus, exactly as the treewalk does.
                current = first_thunk(ctx)
            for expand, step_thunk, candidates, ordered, step_expr in steps:
                if ctx.deadline is not None:
                    ctx.check_deadline()
                if expand:
                    current = _descendant_or_self_nodes(current)
                if candidates is None:
                    current = _apply_step(step_thunk, current, ctx)
                elif len(current) == 1:
                    item = current[0]
                    if not isinstance(item, Node):
                        _raise_non_node_step(step_expr, ctx, item)
                    found = candidates(item)
                    current = found if ordered else sort_document_order(found)
                else:
                    results: Sequence = []
                    for item in current:
                        if not isinstance(item, Node):
                            _raise_non_node_step(step_expr, ctx, item)
                        results.extend(candidates(item))
                    current = sort_document_order(results)
            return current

        return run

    # -- FLWOR, quantifiers, conditionals -----------------------------------

    def _flwor(self, expr: ast.FLWOR) -> Thunk:
        # binding tuples hold `for`/`at` variables bare (see
        # context.tuple_scope); each clause carries the bare names it sees.
        compiled_clauses: List[tuple] = []
        bare: Tuple[str, ...] = ()
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                compiled_clauses.append(
                    ("for", bare, clause.var, clause.position_var, self.compile(clause.source))
                )
                bound = (clause.var,)
                if clause.position_var is not None:
                    bound += (clause.position_var,)
                bare = bare_after(bare, bound, True)
            elif isinstance(clause, ast.LetClause):
                compiled_clauses.append(
                    ("let", bare, clause.var, clause.declared_type, self.compile(clause.value))
                )
                bare = bare_after(bare, (clause.var,), False)
            elif isinstance(clause, ast.WhereClause):
                compiled_clauses.append(
                    ("where", bare, self._compile_ebv(clause.condition))
                )
            elif isinstance(clause, ast.OrderByClause):
                specs = tuple(
                    (self.compile(spec.key), spec.descending, spec.empty_least)
                    for spec in clause.specs
                )
                compiled_clauses.append(("order", bare, specs))
        result_thunk = self.compile(expr.result)
        result_bare = bare

        def run(ctx: DynamicContext) -> Sequence:
            check_deadline = ctx.deadline is not None
            tuples: List[Dict[str, object]] = [dict()]
            for compiled in compiled_clauses:
                if check_deadline:
                    ctx.check_deadline()
                kind, bare = compiled[0], compiled[1]
                if kind == "for":
                    _, _, var, position_var, source_thunk = compiled
                    expanded = []
                    for bindings in tuples:
                        if check_deadline:
                            ctx.check_deadline()
                        scope = ctx.with_tuple(bindings, bare)
                        source = source_thunk(scope)
                        for position, item in enumerate(source, start=1):
                            new_bindings = dict(bindings)
                            new_bindings[var] = item
                            if position_var is not None:
                                new_bindings[position_var] = position
                            expanded.append(new_bindings)
                    tuples = expanded
                elif kind == "let":
                    _, _, var, declared_type, value_thunk = compiled
                    for bindings in tuples:
                        if check_deadline:
                            ctx.check_deadline()
                        scope = ctx.with_tuple(bindings, bare)
                        value = value_thunk(scope)
                        if declared_type is not None and not declared_type.matches(value):
                            raise _error(
                                expr,
                                ctx,
                                f"let ${var} value does not match "
                                f"declared type {declared_type!r}",
                                "XPTY0004",
                            )
                        bindings[var] = value
                elif kind == "where":
                    condition_test = compiled[2]
                    if check_deadline:
                        kept = []
                        for bindings in tuples:
                            ctx.check_deadline()
                            if condition_test(ctx.with_tuple(bindings, bare)):
                                kept.append(bindings)
                        tuples = kept
                    else:
                        tuples = [
                            bindings
                            for bindings in tuples
                            if condition_test(ctx.with_tuple(bindings, bare))
                        ]
                else:  # order
                    specs = compiled[2]
                    decorated = []
                    for index, bindings in enumerate(tuples):
                        if check_deadline:
                            ctx.check_deadline()
                        scope = ctx.with_tuple(bindings, bare)
                        keys = tuple(
                            _OrderKey(key_thunk(scope), descending, empty_least)
                            for key_thunk, descending, empty_least in specs
                        )
                        decorated.append((keys, index, bindings))
                    decorated.sort(key=lambda entry: (entry[0], entry[1]))
                    tuples = [bindings for _, _, bindings in decorated]
            result: Sequence = []
            for bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                scope = ctx.with_tuple(bindings, result_bare)
                result.extend(result_thunk(scope))
            return result

        return run

    def _quantified(self, expr: ast.Quantified) -> Thunk:
        bindings = tuple((var, self.compile(source)) for var, source in expr.bindings)
        satisfies_test = self._compile_ebv(expr.satisfies)
        some = expr.quantifier == "some"
        count = len(bindings)

        def loop(index: int, ctx: DynamicContext) -> bool:
            if index == count:
                return satisfies_test(ctx)
            var, source_thunk = bindings[index]
            for item in source_thunk(ctx):
                scope = ctx.with_variables({var: [item]})
                if loop(index + 1, scope) == some:
                    return some
            return not some

        def run(ctx: DynamicContext) -> Sequence:
            return [loop(0, ctx)]

        run.ebv = lambda ctx: loop(0, ctx)
        return run

    def _try_catch(self, expr: ast.TryCatch) -> Thunk:
        body_thunk = self.compile(expr.body)
        handler_thunk = self.compile(expr.handler)
        catch_var = expr.catch_var

        def run(ctx: DynamicContext) -> Sequence:
            try:
                return body_thunk(ctx)
            except XQueryDynamicError as error:
                if catch_var is None:
                    return handler_thunk(ctx)
                message = ElementNode("message")
                message.append(TextNode(getattr(error, "bare_message", str(error))))
                error_element = ElementNode("error")
                error_element.set_attribute("code", error.code)
                error_element.append(message)
                scope = ctx.with_variables({catch_var: [error_element]})
                return handler_thunk(scope)

        return run

    def _typeswitch(self, expr: ast.Typeswitch) -> Thunk:
        operand_thunk = self.compile(expr.operand)
        cases = tuple(
            (case.sequence_type, case.var, self.compile(case.result))
            for case in expr.cases
        )
        default_var = expr.default_var
        default_thunk = self.compile(expr.default)

        def run(ctx: DynamicContext) -> Sequence:
            value = operand_thunk(ctx)
            for sequence_type, var, result_thunk in cases:
                if sequence_type.matches(value):
                    scope = ctx.with_variables({var: value}) if var else ctx
                    return result_thunk(scope)
            scope = ctx.with_variables({default_var: value}) if default_var else ctx
            return default_thunk(scope)

        return run

    def _if(self, expr: ast.IfExpr) -> Thunk:
        condition_test = self._compile_ebv(expr.condition)
        then_thunk = self.compile(expr.then_branch)
        else_thunk = self.compile(expr.else_branch)

        def run(ctx: DynamicContext) -> Sequence:
            if condition_test(ctx):
                return then_thunk(ctx)
            return else_thunk(ctx)

        return run

    # -- functions -----------------------------------------------------------

    def _function_call(self, expr: ast.FunctionCall) -> Thunk:
        name = expr.name
        if name.startswith("fn:"):
            name = name[3:]
        if name.startswith("xs:"):
            return self._constructor_function(expr, name)

        local_name = name.split(":", 1)[1] if name.startswith("local:") else name
        key = (local_name, len(expr.args))
        declaration = self.functions.get(key)
        if declaration is not None:
            return self._user_function_call(expr, key, declaration)

        builtin = lookup_builtin(name, len(expr.args))
        if builtin is None:
            message = (
                f"unknown function {expr.name}() with {len(expr.args)} argument(s)"
            )

            def run(ctx: DynamicContext) -> Sequence:
                raise _error(expr, ctx, message, "XPST0017")

            return run
        arg_thunks = tuple(self.compile(arg) for arg in expr.args)

        def run(ctx: DynamicContext) -> Sequence:
            args = [thunk(ctx) for thunk in arg_thunks]
            return builtin(ctx, args, expr)

        if name in _BOOLEAN_BUILTINS:
            run.ebv = lambda ctx: builtin(
                ctx, [thunk(ctx) for thunk in arg_thunks], expr
            )[0]
        return run

    def _constructor_function(self, expr: ast.FunctionCall, name: str) -> Thunk:
        if len(expr.args) != 1:

            def run(ctx: DynamicContext) -> Sequence:
                raise _error(expr, ctx, f"{name} expects one argument", "XPST0017")

            return run
        arg_thunk = self.compile(expr.args[0])

        def run(ctx: DynamicContext) -> Sequence:
            value = atomize(arg_thunk(ctx))
            if not value:
                return []
            if len(value) > 1:
                raise _error(expr, ctx, f"{name} requires a singleton", "XPTY0004")
            try:
                return [cast_atomic(value[0], name)]
            except CastError as exc:
                raise _error(expr, ctx, str(exc), "FORG0001") from exc

        return run

    def _user_function_call(
        self,
        expr: ast.FunctionCall,
        key: Tuple[str, int],
        declaration: ast.FunctionDecl,
    ) -> Thunk:
        function_name = declaration.name
        bodies = self.function_bodies  # resolved at call time: recursion-safe
        max_depth = self.config.max_recursion_depth
        # The program is compiled against one config (the compile cache is
        # keyed on it), so the type-checking decision and the per-parameter
        # checks are taken here, not per call.
        check_types = self.config.type_check_calls
        param_specs = tuple(
            (
                param.name,
                arg_thunk,
                param.declared_type if check_types else None,
                f"argument ${param.name} of {function_name}() does not match "
                f"declared type {param.declared_type!r}",
            )
            for param, arg_thunk in zip(
                declaration.params, (self.compile(arg) for arg in expr.args)
            )
        )
        return_type = declaration.return_type if check_types else None

        def run(ctx: DynamicContext) -> Sequence:
            if ctx.depth >= max_depth:
                raise _error(
                    expr,
                    ctx,
                    f"recursion depth limit exceeded calling {function_name}()",
                    "FOER0000",
                )
            ctx.check_deadline()
            bindings: Dict[str, Sequence] = {}
            for param_name, arg_thunk, declared_type, type_message in param_specs:
                value = arg_thunk(ctx)
                if declared_type is not None and not declared_type.matches(value):
                    raise _error(expr, ctx, type_message, "XPTY0004")
                bindings[param_name] = value
            scope = ctx.function_scope(bindings)
            result = bodies[key](scope)
            if return_type is not None and not return_type.matches(result):
                raise _error(
                    expr,
                    ctx,
                    f"result of {function_name}() does not match declared type "
                    f"{return_type!r}",
                    "XPTY0004",
                )
            return result

        return run

    # -- type expressions ------------------------------------------------------

    def _instance_of(self, expr: ast.InstanceOf) -> Thunk:
        operand_thunk = self.compile(expr.operand)
        sequence_type = expr.sequence_type

        def run(ctx: DynamicContext) -> Sequence:
            return [sequence_type.matches(operand_thunk(ctx))]

        run.ebv = lambda ctx: sequence_type.matches(operand_thunk(ctx))
        return run

    def _cast(self, expr: ast.CastAs) -> Thunk:
        operand_thunk = self.compile(expr.operand)
        type_name = expr.type_name
        allow_empty = expr.allow_empty

        def run(ctx: DynamicContext) -> Sequence:
            value = atomize(operand_thunk(ctx))
            if not value:
                if allow_empty:
                    return []
                raise _error(expr, ctx, "cast of an empty sequence", "XPTY0004")
            if len(value) > 1:
                raise _error(expr, ctx, "cast requires a singleton", "XPTY0004")
            try:
                return [cast_atomic(value[0], type_name)]
            except CastError as exc:
                raise _error(expr, ctx, str(exc), "FORG0001") from exc

        return run

    def _castable(self, expr: ast.CastableAs) -> Thunk:
        operand_thunk = self.compile(expr.operand)
        type_name = expr.type_name
        allow_empty = expr.allow_empty

        def run(ctx: DynamicContext) -> Sequence:
            value = atomize(operand_thunk(ctx))
            if not value:
                return [allow_empty]
            if len(value) > 1:
                return [False]
            try:
                cast_atomic(value[0], type_name)
                return [True]
            except CastError:
                return [False]

        return run

    def _treat(self, expr: ast.TreatAs) -> Thunk:
        operand_thunk = self.compile(expr.operand)
        sequence_type = expr.sequence_type

        def run(ctx: DynamicContext) -> Sequence:
            value = operand_thunk(ctx)
            if not sequence_type.matches(value):
                raise _error(
                    expr,
                    ctx,
                    f"treat as: value does not match {sequence_type!r}",
                    "XPDY0050",
                )
            return value

        return run

    # -- constructors -----------------------------------------------------------

    def _direct_element(self, expr: ast.DirectElement) -> Thunk:
        compiled_attributes = tuple(
            (
                attr_name,
                tuple(
                    part if isinstance(part, str) else self.compile(part)
                    for part in parts
                ),
            )
            for attr_name, parts in expr.attributes
        )
        has_duplicate_names = len({name for name, _ in expr.attributes}) != len(
            expr.attributes
        )
        part_thunks: List[Thunk] = []
        for part in expr.content:
            if isinstance(part, ast.DirectText):
                text = part.text
                part_thunks.append(lambda ctx, text=text: [TextNode(text)])
            elif isinstance(part, ast.DirectComment):
                text = part.text
                part_thunks.append(lambda ctx, text=text: [CommentNode(text)])
            elif isinstance(part, ast.DirectPI):
                target, text = part.target, part.text
                part_thunks.append(
                    lambda ctx, target=target, text=text: [
                        ProcessingInstructionNode(target, text)
                    ]
                )
            elif isinstance(part, ast.DirectElement):
                part_thunks.append(self._direct_element(part))
            else:
                # space-joining of adjacent atomics applies *within* one
                # enclosed expression; across enclosures text just abuts.
                enclosed_thunk = self.compile(part)
                part_thunks.append(
                    lambda ctx, thunk=enclosed_thunk: _enclosed_items(thunk(ctx))
                )
        name = expr.name
        parts_tuple = tuple(part_thunks)

        def run(ctx: DynamicContext) -> Sequence:
            literal_attributes = [
                AttributeNode(attr_name, _attribute_value_text(parts, ctx))
                for attr_name, parts in compiled_attributes
            ]
            if has_duplicate_names:
                raise _error(
                    expr, ctx, "duplicate attribute in direct constructor", "XQST0040"
                )
            content_items: Sequence = []
            for thunk in parts_tuple:
                content_items.extend(thunk(ctx))
            return [
                construct_element(
                    name, content_items, ctx, expr, literal_attributes=literal_attributes
                )
            ]

        return run

    def _direct_comment(self, expr: ast.DirectComment) -> Thunk:
        text = expr.text
        return lambda ctx: [CommentNode(text)]

    def _name_thunk(self, expr) -> Callable[[DynamicContext], str]:
        if expr.name is not None:
            name = expr.name
            return lambda ctx: name
        name_thunk = self.compile(expr.name_expr)

        def run(ctx: DynamicContext) -> str:
            value = atomize(name_thunk(ctx))
            if len(value) != 1:
                raise _error(
                    expr, ctx, "computed constructor name must be a singleton", "XPTY0004"
                )
            return string_value_of_atomic(value[0])

        return run

    def _computed_element(self, expr: ast.ComputedElement) -> Thunk:
        name_thunk = self._name_thunk(expr)
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            name = name_thunk(ctx)
            content = content_thunk(ctx) if content_thunk is not None else []
            return [construct_element(name, content, ctx, expr)]

        return run

    def _computed_attribute(self, expr: ast.ComputedAttribute) -> Thunk:
        name_thunk = self._name_thunk(expr)
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            name = name_thunk(ctx)
            content = atomize(content_thunk(ctx)) if content_thunk is not None else []
            text = " ".join(string_value_of_atomic(item) for item in content)
            return [AttributeNode(name, text)]

        return run

    def _computed_text(self, expr: ast.ComputedText) -> Thunk:
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            content = atomize(content_thunk(ctx)) if content_thunk is not None else []
            if not content:
                return []
            return [TextNode(" ".join(string_value_of_atomic(item) for item in content))]

        return run

    def _computed_comment(self, expr: ast.ComputedComment) -> Thunk:
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            content = atomize(content_thunk(ctx)) if content_thunk is not None else []
            return [CommentNode(" ".join(string_value_of_atomic(item) for item in content))]

        return run

    def _computed_document(self, expr: ast.ComputedDocument) -> Thunk:
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            content = content_thunk(ctx) if content_thunk is not None else []
            document = DocumentNode()
            for item in content:
                if isinstance(item, AttributeNode):
                    raise _error(
                        expr,
                        ctx,
                        "a document node cannot contain attribute nodes",
                        "XPTY0004",
                    )
                if isinstance(item, Node):
                    document.append(item.copy())
                else:
                    document.append(TextNode(string_value_of_atomic(item)))
            return [document]

        return run


def _attribute_value_text(parts: tuple, ctx: DynamicContext) -> str:
    pieces: List[str] = []
    for part in parts:
        if isinstance(part, str):
            pieces.append(part)
        else:
            value = part(ctx)
            pieces.append(
                " ".join(
                    item.string_value() if isinstance(item, Node) else string_value_of_atomic(item)
                    for item in value
                )
            )
    return "".join(pieces)


_COMPILE = {
    ast.Literal: _Compiler._literal,
    ast.EmptySequence: _Compiler._empty,
    ast.VarRef: _Compiler._var,
    ast.ContextItem: _Compiler._context_item,
    ast.SequenceExpr: _Compiler._sequence,
    ast.RangeExpr: _Compiler._range,
    ast.Arithmetic: _Compiler._arithmetic,
    ast.Unary: _Compiler._unary,
    ast.Comparison: _Compiler._comparison,
    ast.BooleanOp: _Compiler._boolean_op,
    ast.SetOp: _Compiler._set_op,
    ast.AxisStep: _Compiler._axis_step,
    ast.FilterExpr: _Compiler._filter,
    ast.PathExpr: _Compiler._path,
    ast.FLWOR: _Compiler._flwor,
    ast.Quantified: _Compiler._quantified,
    ast.IfExpr: _Compiler._if,
    ast.Typeswitch: _Compiler._typeswitch,
    ast.TryCatch: _Compiler._try_catch,
    ast.FunctionCall: _Compiler._function_call,
    ast.InstanceOf: _Compiler._instance_of,
    ast.CastAs: _Compiler._cast,
    ast.CastableAs: _Compiler._castable,
    ast.TreatAs: _Compiler._treat,
    ast.DirectElement: _Compiler._direct_element,
    ast.DirectComment: _Compiler._direct_comment,
    ast.ComputedElement: _Compiler._computed_element,
    ast.ComputedAttribute: _Compiler._computed_attribute,
    ast.ComputedText: _Compiler._computed_text,
    ast.ComputedComment: _Compiler._computed_comment,
    ast.ComputedDocument: _Compiler._computed_document,
}
