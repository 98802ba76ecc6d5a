"""Set-at-a-time execution of lowered plans.

The executor produces bit-identical XDM sequences to the tree-walking
evaluator — same values, same document-order normalization, same errors at
the same locations, same ``fn:trace`` output.  It gets its speed from four
sources, each individually proven equivalent:

* **index scans** — ``child::name`` and ``@name`` steps read the
  ``ElementNode`` name indexes instead of filtering all children;
* **sort elision** — the per-step ``sort_document_order`` is skipped when
  the step provably preserves document order (forward axis over an ordered,
  non-nested context), which is the common case for the chains the calculus
  compiler emits;
* **hash joins** — a correlated ``[@attr eq $v/@id]`` predicate probes a
  hash table built once per distinct base instead of rescanning per tuple;
* **memoization** — loop-invariant sources, join build sides, and (across
  a batch, via :class:`SharedEvalCache`) whole closed scans are computed
  once.

Anything the lowering could not prove safe sits in an ``EvalPlan`` leaf and
runs as closure-compiled code (the closure backend's compiler, held
bit-identical to the reference evaluator) with the exact same dynamic
context.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ...xdm import (
    ElementNode,
    UntypedAtomic,
    atomize,
    is_node,
    sort_document_order,
)
from .. import ast
from ..context import DynamicContext, bare_after, tuple_scope
from ..evaluator import (
    _apply_predicates,
    _axis_candidates,
    _error,
    _is_numeric_predicate,
    _OrderKey,
    _test_matches,
    ebv,
    evaluate,
)
from ..errors import XQueryTypeError
from .plans import (
    AttrExistsPred,
    AttrMembershipPred,
    AttrValueEqPred,
    BuiltinCallPlan,
    EvalPlan,
    FilterPlan,
    FLWORPlan,
    ForJoinOp,
    ForOp,
    FullTextScanPlan,
    GenericPred,
    InlineCallPlan,
    LetOp,
    LiteralPlan,
    OrderOp,
    PathPlan,
    Plan,
    PositionalPred,
    SequencePlan,
    SetOpPlan,
    StepPlan,
    StringFnPlan,
    VarPlan,
    WhereOp,
)

__all__ = ["SharedEvalCache", "ExecState", "execute_plan"]

_MISSING = object()
_UNSET = object()

#: axes whose candidate list for a single context node is already in
#: document order with no duplicates.
_STAYS_ORDERED = ("child", "attribute", "self")


class SharedEvalCache:
    """Cross-query scan/join-build cache for ``run_batch`` CSE.

    Keys embed the structural signature of the (closed, pure) scan plus the
    identities of its base nodes, so two queries sharing a subplan over the
    same document share the work.  The service resets the cache whenever the
    export generation moves.
    """

    def __init__(self):
        self._entries: Dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return _MISSING
            self.hits += 1
            return value

    def put(self, key: tuple, value) -> None:
        with self._lock:
            self._entries.setdefault(key, value)

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class ExecState:
    """Per-run executor state: local memos plus the optional shared cache."""

    __slots__ = ("shared", "join_builds", "scans", "roots", "probes")

    def __init__(self, shared: Optional[SharedEvalCache] = None):
        self.shared = shared
        #: (op identity, base node ids) -> _JoinBuild
        self.join_builds: Dict[tuple, "_JoinBuild"] = {}
        #: (plan identity, base node ids) -> result list
        self.scans: Dict[tuple, list] = {}
        #: id(node) -> (node, [root]): fn:root is pure per node, and join
        #: scans anchored on root($n) re-resolve it once per tuple — the
        #: node reference in the value pins the id against reuse.
        self.roots: Dict[int, tuple] = {}
        #: (op identity, build identity, probe key) -> match list, for
        #: single-key probes whose residual is tuple-independent.
        self.probes: Dict[tuple, list] = {}


def execute_plan(plan: Plan, ctx: DynamicContext, bindings: dict, state: ExecState):
    return _EXEC[type(plan)](plan, ctx, bindings, state)


# -- leaves ------------------------------------------------------------------


def _exec_eval(plan: EvalPlan, ctx, bindings, state):
    scope = ctx.with_variables(bindings) if bindings else ctx
    return plan.thunk(scope)


def _exec_literal(plan: LiteralPlan, ctx, bindings, state):
    return list(plan.values)


def _exec_var(plan: VarPlan, ctx, bindings, state):
    value = bindings.get(plan.name, _MISSING)
    if value is not _MISSING:
        return value
    try:
        return ctx.variables[plan.name]
    except KeyError:
        # mirror _eval_var exactly, including the famous galax message.
        from ..errors import XQueryDynamicError

        if ctx.config.galax_diagnostics:
            raise XQueryDynamicError(
                "Internal_Error: Variable '$glx:dot' not found.", code="XPDY0002"
            ) from None
        raise _error(
            plan.expr, ctx, f"undefined variable ${plan.name}", "XPST0008"
        ) from None


def _exec_sequence(plan: SequencePlan, ctx, bindings, state):
    result: list = []
    for item in plan.items:
        result.extend(execute_plan(item, ctx, bindings, state))
    return result


def _exec_string_fn(plan: StringFnPlan, ctx, bindings, state):
    from ..functions import _string_of

    return [_string_of(execute_plan(plan.arg, ctx, bindings, state), "string")]


def _exec_builtin_call(plan: BuiltinCallPlan, ctx, bindings, state):
    # args in order, then the builtin with the evaluator's exact calling
    # convention; the builtin reads focus/trace/config from ctx itself.
    args = [execute_plan(arg, ctx, bindings, state) for arg in plan.args]
    if plan.name == "root" and len(args) == 1 and len(args[0]) == 1:
        node = args[0][0]
        cached = state.roots.get(id(node))
        if cached is not None and cached[0] is node:
            return list(cached[1])
        result = plan.builtin(ctx, args, plan.expr)
        state.roots[id(node)] = (node, result)
        return list(result)
    return plan.builtin(ctx, args, plan.expr)


def _exec_full_text_scan(plan: FullTextScanPlan, ctx, bindings, state):
    # a pure pass-through to the ft:search builtin: the store behind the
    # dynamic context picks indexed postings or the brute-force document
    # scan, and both are pinned byte-identical.  The operator exists for
    # the optimizer's catalog-backed estimate and the explain output.
    args = [execute_plan(arg, ctx, bindings, state) for arg in plan.args]
    return plan.builtin(ctx, args, plan.expr)


def _exec_set_op(plan: SetOpPlan, ctx, bindings, state):
    from ..operators import set_operation

    left = execute_plan(plan.left, ctx, bindings, state)
    right = execute_plan(plan.right, ctx, bindings, state)
    try:
        return set_operation(plan.op, left, right)
    except XQueryTypeError as exc:
        raise _error(plan.expr, ctx, exc.bare_message, exc.code) from exc


def _exec_inline_call(plan: InlineCallPlan, ctx, bindings, state):
    declaration = plan.declaration
    if ctx.depth >= ctx.config.max_recursion_depth:
        raise _error(
            plan.expr,
            ctx,
            f"recursion depth limit exceeded calling {declaration.name}()",
            "FOER0000",
        )
    ctx.check_deadline()
    frame: Dict[str, list] = {}
    for param, arg in zip(declaration.params, plan.args):
        frame[param.name] = execute_plan(arg, ctx, bindings, state)
    scope = ctx.function_scope(frame)
    return execute_plan(plan.body, scope, {}, state)


# -- predicates --------------------------------------------------------------


def _generic_keep(pred_expr, item, position, size, scope) -> bool:
    focus = scope.with_focus(item, position, size)
    result = evaluate(pred_expr, focus)
    if _is_numeric_predicate(result):
        return float(result[0]) == position
    return ebv(result, pred_expr, scope)


def _apply_pred_plans(items, predicates, ctx, bindings):
    """Apply compiled predicates to one candidate list — `_apply_predicates`
    with fast paths; positions renumber between predicates, exactly as the
    reference does."""
    scope = None
    for pred in predicates:
        if not items:
            return items
        if pred.skipped:
            # the optimizer proved (against the catalog's verified schema)
            # that this predicate keeps every input — don't evaluate it.
            continue
        if isinstance(pred, PositionalPred):
            items = pred.apply(items)
            continue
        if scope is None:
            scope = ctx.with_variables(bindings) if bindings else ctx
        size = len(items)
        kept = []
        if isinstance(pred, AttrMembershipPred):
            name, values = pred.name, pred.values
            for position, item in enumerate(items, start=1):
                # only elements carry the name index (a per-item getattr
                # by string was measurably slower on scan-sized lists)
                if isinstance(item, ElementNode):
                    matches = item.attributes_by_name(name)
                    if len(matches) == 1:  # avoid a generator per item
                        if matches[0].value in values:
                            kept.append(item)
                    elif any(a.value in values for a in matches):
                        kept.append(item)
                elif _generic_keep(pred.expr, item, position, size, scope):
                    kept.append(item)
        elif isinstance(pred, AttrValueEqPred):
            name, value = pred.name, pred.value
            for position, item in enumerate(items, start=1):
                if isinstance(item, ElementNode):
                    matches = item.attributes_by_name(name)
                    if len(matches) == 1:
                        if matches[0].value == value:
                            kept.append(item)
                    elif matches and _generic_keep(
                        pred.expr, item, position, size, scope
                    ):  # >1 attrs (keep-mode): the reference path raises
                        kept.append(item)
                elif _generic_keep(pred.expr, item, position, size, scope):
                    kept.append(item)
        elif isinstance(pred, AttrExistsPred):
            name = pred.name
            for position, item in enumerate(items, start=1):
                if isinstance(item, ElementNode):
                    if item.attributes_by_name(name):
                        kept.append(item)
                elif _generic_keep(pred.expr, item, position, size, scope):
                    kept.append(item)
        else:
            expr = pred.expr
            for position, item in enumerate(items, start=1):
                if _generic_keep(expr, item, position, size, scope):
                    kept.append(item)
        items = kept
    return items


# -- paths -------------------------------------------------------------------


def _path_base(plan: PathPlan, ctx, bindings, state):
    """Resolve a path's base items plus (ordered, non_nested) flags."""
    if plan.anchor is not None:
        if not is_node(ctx.item):
            raise _error(
                plan.expr, ctx, "'/' requires a node as the context item", "XPDY0002"
            )
        current = [ctx.item.root()]
        if plan.anchor == "//":
            current, _, _ = _expand_descendants(current, True, True)
            return current, True, False
        return current, True, True
    if plan.base is None:
        return ([ctx.item] if ctx.item is not None else [None]), True, True
    current = execute_plan(plan.base, ctx, bindings, state)
    if len(current) <= 1:
        return current, True, True
    return current, False, False


def _expand_descendants(nodes, ordered, non_nested):
    """``//`` — descendant-or-self expansion with the reference's error."""
    if ordered and non_nested:
        expanded = []
        for node in nodes:
            if not is_node(node):
                raise XQueryTypeError("'//' applied to a non-node", code="XPTY0019")
            expanded.extend(node.descendants_or_self())
        return expanded, True, False
    expanded = []
    for node in nodes:
        if not is_node(node):
            raise XQueryTypeError("'//' applied to a non-node", code="XPTY0019")
        expanded.extend(node.descendants_or_self())
    return sort_document_order(expanded), True, False


def _step_candidates(step: StepPlan, node):
    """Candidates for one context node — name-index fast paths first."""
    test = step.test
    if step.axis == "child" and test.kind == "name":
        index = getattr(node, "children_by_name", None)
        if index is not None:
            return index(test.name)
    elif step.axis == "attribute" and test.kind == "name":
        index = getattr(node, "attributes_by_name", None)
        if index is not None:
            return index(test.name)
    return [
        candidate
        for candidate in _axis_candidates(node, step.axis)
        if _test_matches(test, candidate, step.axis)
    ]


def _run_steps(current, ordered, non_nested, steps, ctx, bindings):
    for step in steps:
        current, ordered, non_nested = _run_one_step(
            current, ordered, non_nested, step, ctx, bindings
        )
    return current, ordered, non_nested


def _run_one_step(current, ordered, non_nested, step: StepPlan, ctx, bindings):
    ctx.check_deadline()
    if step.separator == "//":
        current, ordered, non_nested = _expand_descendants(current, ordered, non_nested)
    results: list = []
    single = len(current) == 1
    for item in current:
        if not is_node(item):
            if item is None:
                raise _error(
                    step.expr, ctx, "context item is absent in a path step", "XPDY0002"
                )
            raise _error(
                step.expr, ctx, "a path step was applied to an atomic value", "XPTY0019"
            )
        candidates = _step_candidates(step, item)
        if step.predicates:
            candidates = _apply_pred_plans(candidates, step.predicates, ctx, bindings)
        results.extend(candidates)
    ordered, non_nested, needs_sort = _order_after(
        step.axis, ordered, non_nested, single
    )
    if needs_sort and results:
        results = sort_document_order(results)
    return results, ordered, non_nested


def _order_after(axis, ordered, non_nested, single):
    """Track whether a step's concatenated result is still sorted+distinct.

    Children/attributes of ordered, non-nested context nodes land in
    document order with no duplicates (disjoint subtrees are contiguous),
    so the reference's per-step ``sort_document_order`` is the identity and
    may be skipped.  Anything unprovable sorts, exactly as the reference
    does.
    """
    if ordered and non_nested:
        if axis in _STAYS_ORDERED:
            return True, True, False
        if axis in ("descendant", "descendant-or-self"):
            return True, False, False
        if axis == "following-sibling" and single:
            return True, True, False
    return True, False, True


def _exec_path(plan: PathPlan, ctx, bindings, state):
    current, ordered, non_nested = _path_base(plan, ctx, bindings, state)
    if not plan.steps:
        return current
    if plan.cacheable:
        local_key = (id(plan), tuple(map(id, current)))
        cached = state.scans.get(local_key)
        if cached is not None:
            return cached
        shared = state.shared
        if shared is not None:
            shared_key = ("scan", plan.scan_signature, local_key[1])
            value = shared.get(shared_key)
            if value is not _MISSING:
                state.scans[local_key] = value
                return value
        result, _, _ = _run_steps(
            current, ordered, non_nested, plan.steps, ctx, bindings
        )
        if shared is not None:
            shared.put(shared_key, result)
        state.scans[local_key] = result
        return result
    result, _, _ = _run_steps(current, ordered, non_nested, plan.steps, ctx, bindings)
    return result


def _exec_filter(plan: FilterPlan, ctx, bindings, state):
    items = execute_plan(plan.base, ctx, bindings, state)
    return _apply_pred_plans(items, plan.predicates, ctx, bindings)


# -- FLWOR -------------------------------------------------------------------


def _exec_flwor(plan: FLWORPlan, ctx, bindings, state):
    # binding tuples hold `for`/`at` variables bare (see context.tuple_scope);
    # every plan below runs on the tuple's scope.
    tuples: List[dict] = [dict(bindings)]
    bare: Tuple[str, ...] = ()
    invariants: Dict[int, list] = {}
    check_deadline = ctx.deadline is not None
    for op in plan.ops:
        ctx.check_deadline()
        if isinstance(op, (ForOp, ForJoinOp)):
            if isinstance(op, ForOp):
                tuples = _expand_for_op(op, tuples, bare, ctx, state, invariants)
            else:
                tuples = _expand_join_op(op, tuples, bare, ctx, state)
            bound = (op.var,)
            if op.position_var is not None:
                bound += (op.position_var,)
            bare = bare_after(bare, bound, True)
        elif isinstance(op, LetOp):
            for tuple_bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                value = execute_plan(
                    op.value, ctx, tuple_scope(tuple_bindings, bare), state
                )
                declared = op.declared_type
                if declared is not None and not declared.matches(value):
                    raise _error(
                        op.flwor,
                        ctx,
                        f"let ${op.var} value does not match "
                        f"declared type {declared!r}",
                        "XPTY0004",
                    )
                tuple_bindings[op.var] = value
            bare = bare_after(bare, (op.var,), False)
        elif isinstance(op, WhereOp):
            kept = []
            for tuple_bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                if ebv(
                    execute_plan(
                        op.condition, ctx, tuple_scope(tuple_bindings, bare), state
                    ),
                    op.condition_expr,
                    ctx,
                ):
                    kept.append(tuple_bindings)
            tuples = kept
        elif isinstance(op, OrderOp):
            tuples = _order_tuples_op(op, tuples, bare, ctx, state)
    result: list = []
    result_plan = plan.result
    for tuple_bindings in tuples:
        if check_deadline:
            ctx.check_deadline()
        result.extend(
            execute_plan(result_plan, ctx, tuple_scope(tuple_bindings, bare), state)
        )
    return result


def _expand_for_op(op: ForOp, tuples, bare, ctx, state, invariants):
    expanded = []
    check_deadline = ctx.deadline is not None
    var, position_var = op.var, op.position_var
    source = invariants.get(id(op), _UNSET) if op.invariant else _UNSET
    for tuple_bindings in tuples:
        if check_deadline:
            ctx.check_deadline()
        if op.invariant:
            if source is _UNSET:
                source = execute_plan(
                    op.source, ctx, tuple_scope(tuple_bindings, bare), state
                )
                invariants[id(op)] = source
        else:
            source = execute_plan(
                op.source, ctx, tuple_scope(tuple_bindings, bare), state
            )
        for position, item in enumerate(source, start=1):
            new_bindings = dict(tuple_bindings)
            new_bindings[var] = item
            if position_var is not None:
                new_bindings[position_var] = position
            expanded.append(new_bindings)
    return expanded


def _order_tuples_op(op: OrderOp, tuples, bare, ctx, state):
    decorated = []
    check_deadline = ctx.deadline is not None
    for index, tuple_bindings in enumerate(tuples):
        if check_deadline:
            ctx.check_deadline()
        scope = tuple_scope(tuple_bindings, bare)
        keys = tuple(
            _OrderKey(
                execute_plan(key_plan, ctx, scope, state),
                descending,
                empty_least,
            )
            for key_plan, descending, empty_least in op.specs
        )
        decorated.append((keys, index, tuple_bindings))
    decorated.sort(key=lambda entry: (entry[0], entry[1]))
    return [tuple_bindings for _, _, tuple_bindings in decorated]


# -- hash joins --------------------------------------------------------------


class _JoinBuild:
    """The build side of one hash join: per-context-node candidate groups.

    Groups stay separate because predicates (including any residuals) apply
    per context node with per-node positions, exactly as the reference
    evaluator's `_eval_axis_step` does; ``ordered`` records whether the
    concatenation of the groups is already sorted and duplicate-free.
    """

    __slots__ = ("groups", "ordered", "total", "_indexes")

    def __init__(self, groups, ordered: bool):
        self.groups = groups
        self.ordered = ordered
        self.total = sum(len(group) for group in groups)
        self._indexes: Dict[str, tuple] = {}

    def index_on(self, attr: str):
        """Per-group value -> items maps, plus multi/any attribute flags."""
        cached = self._indexes.get(attr)
        if cached is not None:
            return cached
        keymaps = []
        any_attr = False
        any_multi = False
        for group in self.groups:
            keymap: Dict[str, list] = {}
            for item in group:
                matches = item.attributes_by_name(attr)
                if matches:
                    any_attr = True
                    if len(matches) > 1:
                        any_multi = True
                    for attribute in matches:
                        keymap.setdefault(attribute.value, []).append(item)
            keymaps.append(keymap)
        built = (keymaps, any_attr, any_multi)
        self._indexes[attr] = built
        return built


def _scan_base_shape(scan: PathPlan) -> Optional[str]:
    """The variable name when *scan* is based on exactly ``root($var)`` —
    the anchor shape of every scan the calculus compiler emits."""
    base = scan.base
    if (
        scan.anchor is None
        and isinstance(base, BuiltinCallPlan)
        and base.name == "root"
        and len(base.args) == 1
        and isinstance(base.args[0], VarPlan)
    ):
        return base.args[0].name
    return None


def _join_build(op: ForJoinOp, ctx, tuple_bindings, state) -> _JoinBuild:
    scan = op.scan
    cached = op.fast_base
    if cached is None or cached[0] is not scan.base:
        cached = (scan.base, _scan_base_shape(scan))
        op.fast_base = cached
    base = None
    if cached[1] is not None:
        # root($var) over a singleton element binding: fn:root is pure per
        # node, so the per-tuple base resolution collapses to a memo probe.
        value = tuple_bindings.get(cached[1])
        if (
            isinstance(value, list)
            and len(value) == 1
            and isinstance(value[0], ElementNode)
        ):
            node = value[0]
            memo = state.roots.get(id(node))
            if memo is not None and memo[0] is node:
                base = memo[1]
            else:
                base = [node.root()]
                state.roots[id(node)] = (node, base)
    if base is not None:
        ordered = non_nested = True
    else:
        base, ordered, non_nested = _path_base(scan, ctx, tuple_bindings, state)
    key = (id(op), tuple(map(id, base)))
    build = state.join_builds.get(key)
    if build is not None:
        return build
    shared = state.shared
    shared_key = None
    if shared is not None and scan.cacheable:
        shared_key = ("join", scan.scan_signature, key[1])
        cached = shared.get(shared_key)
        if cached is not _MISSING:
            state.join_builds[key] = cached
            return cached
    inner = scan.steps[:-1]
    last = scan.steps[-1]
    current, ordered, non_nested = _run_steps(
        base, ordered, non_nested, inner, ctx, tuple_bindings
    )
    ctx.check_deadline()
    if last.separator == "//":
        current, ordered, non_nested = _expand_descendants(current, ordered, non_nested)
    groups = []
    single = len(current) == 1
    for item in current:
        if not is_node(item):
            if item is None:
                raise _error(
                    last.expr, ctx, "context item is absent in a path step", "XPDY0002"
                )
            raise _error(
                last.expr, ctx, "a path step was applied to an atomic value", "XPTY0019"
            )
        candidates = _step_candidates(last, item)
        if last.predicates:
            candidates = _apply_pred_plans(candidates, last.predicates, ctx, {})
        groups.append(list(candidates))
    ordered, non_nested, needs_sort = _order_after(last.axis, ordered, non_nested, single)
    build = _JoinBuild(groups, ordered=not needs_sort)
    state.join_builds[key] = build
    if shared_key is not None:
        shared.put(shared_key, build)
    return build


def _expand_join_op(op: ForJoinOp, tuples, bare, ctx, state):
    expanded = []
    check_deadline = ctx.deadline is not None
    var, position_var = op.var, op.position_var
    # Resolve the probe shape and residual memoability once per op, so the
    # per-tuple loop can answer a repeated single-key probe with one dict
    # hit instead of re-entering _probe_join (which re-derives both).
    cached = op.fast_probe
    if cached is None or cached[0] is not op.probe_expr:
        cached = (op.probe_expr, _probe_shape(op.probe_expr))
        op.fast_probe = cached
    shape = cached[1]
    memoable = shape is not None and not any(
        type(pred) is GenericPred for pred in op.residual
    )
    probes = state.probes
    op_id = id(op)
    # Resolve the root($var) base shape once per op as well: consecutive
    # tuples almost always bind nodes under the same document root, so the
    # per-tuple build resolution collapses to one memo probe and an id
    # compare against the previous tuple's root.
    scan = op.scan
    base_cached = op.fast_base
    if base_cached is None or base_cached[0] is not scan.base:
        base_cached = (scan.base, _scan_base_shape(scan))
        op.fast_base = base_cached
    base_var = base_cached[1]
    roots = state.roots
    builds = state.join_builds
    last_root_id = None
    last_build = None
    for stored in tuples:
        if check_deadline:
            ctx.check_deadline()
        tuple_bindings = tuple_scope(stored, bare)
        build = None
        if base_var is not None:
            value = tuple_bindings.get(base_var)
            if (
                isinstance(value, list)
                and len(value) == 1
                and isinstance(value[0], ElementNode)
            ):
                node = value[0]
                memo = roots.get(id(node))
                if memo is not None and memo[0] is node:
                    root_id = id(memo[1][0])
                else:
                    base = [node.root()]
                    roots[id(node)] = (node, base)
                    root_id = id(base[0])
                if root_id == last_root_id:
                    build = last_build
                else:
                    build = builds.get((op_id, (root_id,)))
                    if build is not None:
                        last_root_id, last_build = root_id, build
        if build is None:
            build = _join_build(op, ctx, tuple_bindings, state)
            if base_var is not None:
                last_root_id, last_build = None, None
        matches = None
        if memoable:
            value = tuple_bindings.get(shape[0])
            if (
                isinstance(value, list)
                and len(value) == 1
                and isinstance(value[0], ElementNode)
            ):
                attributes = value[0].attributes_by_name(shape[1])
                if len(attributes) == 1:
                    matches = probes.get((op_id, id(build), attributes[0].value))
        if matches is None:
            matches = _probe_join(op, build, ctx, tuple_bindings, state)
        for position, item in enumerate(matches, start=1):
            new_bindings = dict(stored)
            new_bindings[var] = item
            if position_var is not None:
                new_bindings[position_var] = position
            expanded.append(new_bindings)
    return expanded


def _probe_shape(expr) -> Optional[Tuple[str, str]]:
    """``(var, attr)`` when *expr* is exactly ``$var/@attr`` — the shape of
    every probe the calculus compiler generates."""
    if (
        isinstance(expr, ast.PathExpr)
        and expr.anchor is None
        and isinstance(expr.first, ast.VarRef)
        and len(expr.steps) == 1
    ):
        separator, step = expr.steps[0]
        if (
            separator == "/"
            and isinstance(step, ast.AxisStep)
            and step.axis == "attribute"
            and not step.predicates
            and step.test.kind == "name"
            and step.test.name is not None
        ):
            return expr.first.name, step.test.name
    return None


def _probe_join(op: ForJoinOp, build: _JoinBuild, ctx, tuple_bindings, state):
    if build.total == 0:
        # the reference never evaluates the probe when there is nothing to
        # compare it against, so neither may we.
        return []
    cached = op.fast_probe
    if cached is None or cached[0] is not op.probe_expr:
        cached = (op.probe_expr, _probe_shape(op.probe_expr))
        op.fast_probe = cached
    keys = None
    if cached[1] is not None:
        # a tuple variable holding one element: read the attribute directly
        # (the untyped-atomic values the evaluator's attribute step would
        # atomize to, minus the wrapper objects) instead of paying a context
        # clone + path walk + document-order sort per tuple.
        var_name, attr_name = cached[1]
        value = tuple_bindings.get(var_name)
        if (
            isinstance(value, list)
            and len(value) == 1
            and isinstance(value[0], ElementNode)
        ):
            keys = [
                attribute.value
                for attribute in value[0].attributes_by_name(attr_name)
            ]
    hashable = True
    if keys is None:
        scope = ctx.with_variables(tuple_bindings) if tuple_bindings else ctx
        probe_atoms = atomize(evaluate(op.probe_expr, scope))
        keys = []
        for atom in probe_atoms:
            if isinstance(atom, str):
                keys.append(atom)
            elif isinstance(atom, UntypedAtomic):
                keys.append(atom.value)
            else:
                # numeric/boolean probes promote differently; fall back to
                # the reference comparison per candidate item.
                hashable = False
                break
    keymaps, any_attr, any_multi = build.index_on(op.build_attr)
    if hashable and op.style == "value":
        if not keys:
            return []
        if len(keys) > 1:
            # raises only if some candidate has a matching attribute — an
            # attribute-less item yields an empty left operand and is
            # silently dropped before the singleton check.
            if any_attr:
                raise _error(
                    op.join_expr,
                    ctx,
                    f"value comparison '{op.join_expr.op}' requires "
                    "singleton operands",
                    "XPTY0004",
                )
            return []
        if any_multi:
            # some candidate carries duplicate attributes (keep-mode): the
            # reference raises when its predicate reaches that item.
            return _probe_join_generic(op, build, ctx, tuple_bindings)
    if not hashable:
        return _probe_join_generic(op, build, ctx, tuple_bindings)
    memo_key = None
    if len(keys) == 1 and not any(
        type(pred) is GenericPred for pred in op.residual
    ):
        # single-key probes repeat whenever tuples share a join partner;
        # with a tuple-independent residual the match list is a pure
        # function of (op, build, key), so replay it from the memo.
        memo_key = (id(op), id(build), keys[0])
        memo = state.probes.get(memo_key)
        if memo is not None:
            return memo
    results: list = []
    attr = op.build_attr
    key_set = frozenset(keys)
    for group_index, keymap in enumerate(keymaps):
        if len(keys) == 1:
            # hash hit lists preserve candidate order within the group.
            matched = keymap.get(keys[0], [])
        elif keys:
            # multi-key probes walk the group so matches keep candidate
            # order (the existential `=` sweep, set-at-a-time).
            matched = [
                item
                for item in build.groups[group_index]
                if any(a.value in key_set for a in item.attributes_by_name(attr))
            ]
        else:
            matched = []
        if matched and op.residual:
            matched = _apply_pred_plans(matched, op.residual, ctx, tuple_bindings)
        results.extend(matched)
    if not build.ordered:
        results = sort_document_order(results)
    if memo_key is not None:
        state.probes[memo_key] = results
    return results


def _probe_join_generic(op: ForJoinOp, build: _JoinBuild, ctx, tuple_bindings):
    """Per-item fallback: evaluate the join predicate as the reference does."""
    predicates = [GenericPred(op.join_expr)] + list(op.residual)
    results: list = []
    for group in build.groups:
        results.extend(_apply_pred_plans(group, predicates, ctx, tuple_bindings))
    if build.ordered:
        return results
    return sort_document_order(results)


_EXEC = {
    EvalPlan: _exec_eval,
    LiteralPlan: _exec_literal,
    VarPlan: _exec_var,
    SequencePlan: _exec_sequence,
    StringFnPlan: _exec_string_fn,
    BuiltinCallPlan: _exec_builtin_call,
    FullTextScanPlan: _exec_full_text_scan,
    SetOpPlan: _exec_set_op,
    InlineCallPlan: _exec_inline_call,
    PathPlan: _exec_path,
    FilterPlan: _exec_filter,
    FLWORPlan: _exec_flwor,
}
