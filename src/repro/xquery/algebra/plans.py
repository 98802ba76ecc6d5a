"""Logical plan nodes for the algebraic backend.

The algebra is deliberately small: it covers the FLWOR/path fragment that
Koch's complexity results single out as polynomial when evaluated
set-at-a-time, and every construct outside the fragment appears as an
:class:`EvalPlan` leaf that delegates to the closure compiler, whose output
is held bit-identical to the tree-walking evaluator.  That delegation rule
is what keeps the backend *exactly* faithful to the reference semantics —
the plan layer only specializes shapes it can prove equivalent, and the
differential fuzzer holds it to that.

Plan nodes are declarative: lowering builds them, ``optimize`` annotates
and reorders them, and :mod:`.executor` interprets them.  Every node knows
how to render itself for ``--explain`` (text and JSON) including the
optimizer's estimated cardinalities.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import ast

__all__ = [
    "Plan",
    "EvalPlan",
    "LiteralPlan",
    "VarPlan",
    "SequencePlan",
    "StringFnPlan",
    "BuiltinCallPlan",
    "FullTextScanPlan",
    "SetOpPlan",
    "StepPlan",
    "PathPlan",
    "FilterPlan",
    "FLWORPlan",
    "InlineCallPlan",
    "ForOp",
    "ForJoinOp",
    "LetOp",
    "WhereOp",
    "OrderOp",
    "PredPlan",
    "AttrMembershipPred",
    "AttrValueEqPred",
    "AttrExistsPred",
    "PositionalPred",
    "GenericPred",
]


# -- predicate plans ---------------------------------------------------------


class PredPlan:
    """Base class for compiled predicates; ``expr`` is the original AST."""

    __slots__ = ("expr", "selectivity", "skipped")

    def __init__(self, expr: ast.Expr):
        self.expr = expr
        self.selectivity = 0.5  # refined by the optimizer
        #: the optimizer proved this predicate keeps every input (e.g. an
        #: existence check on a schema-required attribute) — the executor
        #: does not evaluate it.  Reset at the start of every optimize pass
        #: so re-optimizing under a different catalog stays correct.
        self.skipped = False

    def describe(self) -> str:
        return type(self).__name__


class AttrMembershipPred(PredPlan):
    """``[@name = ("a", "b", ...)]`` — general comparison, string literals.

    Untyped attribute values compare to string literals *as strings*, so a
    frozenset membership test is exact — including the existential sweep
    over duplicated attributes in ``keep`` quirk mode.
    """

    __slots__ = ("name", "values")

    def __init__(self, expr: ast.Expr, name: str, values: frozenset):
        super().__init__(expr)
        self.name = name
        self.values = values

    def describe(self) -> str:
        options = ", ".join(repr(v) for v in sorted(self.values))
        return f"@{self.name} in ({options})"


class AttrValueEqPred(PredPlan):
    """``[@name eq "literal"]`` — value comparison against one string."""

    __slots__ = ("name", "value")

    def __init__(self, expr: ast.Expr, name: str, value: str):
        super().__init__(expr)
        self.name = name
        self.value = value

    def describe(self) -> str:
        return f"@{self.name} eq {self.value!r}"


class AttrExistsPred(PredPlan):
    """``[@name]`` — keep elements carrying the attribute."""

    __slots__ = ("name",)

    def __init__(self, expr: ast.Expr, name: str):
        super().__init__(expr)
        self.name = name

    def describe(self) -> str:
        return f"exists(@{self.name})"


class PositionalPred(PredPlan):
    """A positional predicate compiled to a list slice.

    ``[k]``, ``[position() op k]`` with an integer literal, and
    ``[last()]`` all short-circuit to O(1) slicing of the candidate list
    instead of one focus-carrying evaluation per item.
    """

    __slots__ = ("op", "k")

    def __init__(self, expr: ast.Expr, op: str, k: int):
        super().__init__(expr)
        self.op = op  # "eq" | "le" | "lt" | "ge" | "gt" | "last"
        self.k = k

    def apply(self, items: list) -> list:
        op, k = self.op, self.k
        if op == "last":
            return items[-1:]
        if op == "eq":
            return items[k - 1 : k] if k >= 1 else []
        if op == "le":
            return items[: max(k, 0)]
        if op == "lt":
            return items[: max(k - 1, 0)]
        if op == "ge":
            return items[max(k - 1, 0) :] if k >= 1 else list(items)
        if op == "gt":
            return items[max(k, 0) :] if k >= 1 else list(items)
        raise AssertionError(f"unknown positional op {op!r}")

    def describe(self) -> str:
        if self.op == "last":
            return "position() = last()"
        if self.op == "eq":
            return f"position() = {self.k}"
        symbol = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">"}[self.op]
        return f"position() {symbol} {self.k}"


class GenericPred(PredPlan):
    """Any other predicate: evaluated per item by the reference evaluator."""

    def describe(self) -> str:
        return f"generic predicate @{self.expr.line}:{self.expr.column}"


# -- expression plans --------------------------------------------------------


class Plan:
    """Base class for expression-level plans."""

    __slots__ = ("est_rows", "occ")

    def __init__(self):
        self.est_rows: Optional[float] = None
        #: inferred occurrence indicator (``empty | 1 | ? | + | *``) set by
        #: the optimizer from the static-type pass; display-only.
        self.occ: Optional[str] = None

    # explain -------------------------------------------------------------

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> List["Plan"]:
        return []

    def to_dict(self) -> dict:
        entry = {"op": self.label()}
        if self.est_rows is not None:
            entry["est_rows"] = round(self.est_rows, 2)
        if self.occ is not None:
            entry["occ"] = self.occ
        kids = [child.to_dict() for child in self.children() if child is not None]
        if kids:
            entry["children"] = kids
        return entry

    def render(self, indent: int = 0, out: Optional[List[str]] = None) -> List[str]:
        if out is None:
            out = []
        rows = "" if self.est_rows is None else f"  (~{self.est_rows:g} rows)"
        occ = "" if self.occ is None else f"  [occ={self.occ}]"
        out.append("  " * indent + self.label() + rows + occ)
        for child in self.children():
            if child is not None:
                child.render(indent + 1, out)
        return out


class EvalPlan(Plan):
    """Fallback leaf: the subtree runs as closure-compiled code.

    ``thunk`` is the subtree compiled by the closure backend's compiler;
    :class:`~repro.xquery.algebra.AlgebraProgram` sets it after lowering.
    """

    __slots__ = ("expr", "note", "thunk")

    def __init__(self, expr: ast.Expr, note: str = ""):
        super().__init__()
        self.expr = expr
        self.note = note
        self.thunk = None

    def label(self) -> str:
        what = type(self.expr).__name__
        suffix = f" [{self.note}]" if self.note else ""
        return f"Eval({what}@{self.expr.line}:{self.expr.column}){suffix}"


class LiteralPlan(Plan):
    __slots__ = ("values",)

    def __init__(self, values: list):
        super().__init__()
        self.values = values

    def label(self) -> str:
        if not self.values:
            return "Empty()"
        return f"Literal({self.values[0]!r})"


class VarPlan(Plan):
    __slots__ = ("name", "expr")

    def __init__(self, expr: ast.VarRef):
        super().__init__()
        self.expr = expr
        self.name = expr.name

    def label(self) -> str:
        return f"Var(${self.name})"


class SequencePlan(Plan):
    __slots__ = ("items",)

    def __init__(self, items: List[Plan]):
        super().__init__()
        self.items = items

    def label(self) -> str:
        return f"Sequence[{len(self.items)}]"

    def children(self) -> List[Plan]:
        return list(self.items)


class StringFnPlan(Plan):
    """``fn:string(expr)`` with exactly one argument — a projection."""

    __slots__ = ("arg", "expr")

    def __init__(self, expr: ast.FunctionCall, arg: Plan):
        super().__init__()
        self.expr = expr
        self.arg = arg

    def label(self) -> str:
        return "Project:string"

    def children(self) -> List[Plan]:
        return [self.arg]


class BuiltinCallPlan(Plan):
    """A builtin call whose arguments are themselves plans.

    Argument plans are executed in order and the builtin is invoked with
    the same ``(ctx, args, expr)`` triple the reference evaluator uses, so
    the call itself is a pure pass-through — lowering uses this whenever an
    argument lowers to something better than a fallback leaf (the common
    case: the ``trace(...)`` wrapper the calculus compiler emits around an
    entire query body).
    """

    __slots__ = ("expr", "name", "builtin", "args")

    def __init__(self, expr: ast.FunctionCall, name: str, builtin, args: List[Plan]):
        super().__init__()
        self.expr = expr
        self.name = name
        self.builtin = builtin
        self.args = args

    def label(self) -> str:
        return f"Call:{self.name}"

    def children(self) -> List[Plan]:
        return list(self.args)


class FullTextScanPlan(Plan):
    """``ft:search($collection, $phrase)`` as a first-class scan operator.

    Execution is a pure pass-through to the builtin (the store decides
    indexed postings vs the brute-force document scan), but surfacing the
    call as an operator gives the optimizer a catalog-backed cardinality
    — ``min(document frequency)`` over the phrase tokens, clamped by the
    collection size — and gives ``--explain`` an honest scan node instead
    of an opaque builtin call.  ``collection``/``phrase`` hold the
    argument strings when they are literals (the estimable case), else
    None.
    """

    __slots__ = ("expr", "name", "builtin", "args", "collection", "phrase")

    def __init__(
        self,
        expr: ast.FunctionCall,
        name: str,
        builtin,
        args: List[Plan],
        collection: Optional[str],
        phrase: Optional[str],
    ):
        super().__init__()
        self.expr = expr
        self.name = name
        self.builtin = builtin
        self.args = args
        self.collection = collection
        self.phrase = phrase

    def label(self) -> str:
        where = "?" if self.collection is None else (self.collection or "*")
        what = "?" if self.phrase is None else self.phrase
        return f"FullTextScan[{where} ~ {what!r}]"

    def children(self) -> List[Plan]:
        return list(self.args)


class SetOpPlan(Plan):
    __slots__ = ("op", "left", "right", "expr")

    def __init__(self, expr: ast.SetOp, left: Plan, right: Plan):
        super().__init__()
        self.expr = expr
        self.op = expr.op
        self.left = left
        self.right = right

    def label(self) -> str:
        return f"SetOp:{self.op}"

    def children(self) -> List[Plan]:
        return [self.left, self.right]


class StepPlan:
    """One axis step of a scan: axis + node test + compiled predicates.

    ``closed`` means every predicate is a compiled fast predicate with no
    free variables — the precondition for memoizing the scan's result.
    """

    __slots__ = ("expr", "separator", "axis", "test", "predicates", "closed")

    def __init__(
        self,
        expr: ast.AxisStep,
        separator: str,
        predicates: List[PredPlan],
        closed: bool,
    ):
        self.expr = expr
        self.separator = separator  # "/" or "//"
        self.axis = expr.axis
        self.test = expr.test
        self.predicates = predicates
        self.closed = closed

    def describe(self) -> str:
        test = self.test.name if self.test.name is not None else self.test.kind + "()"
        preds = "".join(
            f"[pruned: {p.describe()}]" if p.skipped else f"[{p.describe()}]"
            for p in self.predicates
        )
        prefix = "//" if self.separator == "//" else "/"
        axis = "" if self.axis == "child" else f"{self.axis}::"
        if self.axis == "attribute":
            axis, test = "", f"@{self.test.name or '*'}"
        return f"{prefix}{axis}{test}{preds}"


class PathPlan(Plan):
    """A scan: base sequence (or the context item / document root) + steps."""

    __slots__ = ("expr", "anchor", "base", "steps", "cacheable", "scan_signature")

    def __init__(
        self,
        expr: ast.PathExpr,
        anchor: Optional[str],
        base: Optional[Plan],
        steps: List[StepPlan],
    ):
        super().__init__()
        self.expr = expr
        self.anchor = anchor
        self.base = base
        self.steps = steps
        #: set by lowering: all steps closed and side-effect free, so the
        #: step application may be shared across queries in a batch.
        self.cacheable = False
        self.scan_signature: Optional[str] = None

    def label(self) -> str:
        path = "".join(step.describe() for step in self.steps)
        if self.anchor:
            path = ("/" if self.anchor == "/" else "//") + path.lstrip("/")
            base = "root"
        elif self.base is None:
            base = "."
        else:
            base = "base"
        shared = " shared" if self.cacheable else ""
        return f"Scan({base}{path}){shared}"

    def children(self) -> List[Plan]:
        return [self.base] if self.base is not None else []


class FilterPlan(Plan):
    """``base[p1][p2]`` — predicates over one whole sequence."""

    __slots__ = ("expr", "base", "predicates")

    def __init__(self, expr: ast.FilterExpr, base: Plan, predicates: List[PredPlan]):
        super().__init__()
        self.expr = expr
        self.base = base
        self.predicates = predicates

    def label(self) -> str:
        preds = "".join(f"[{p.describe()}]" for p in self.predicates)
        return f"Select{preds}"

    def children(self) -> List[Plan]:
        return [self.base]


class InlineCallPlan(Plan):
    """A non-recursive user function call inlined into the plan."""

    __slots__ = ("expr", "declaration", "args", "body")

    def __init__(
        self,
        expr: ast.FunctionCall,
        declaration: ast.FunctionDecl,
        args: List[Plan],
        body: Plan,
    ):
        super().__init__()
        self.expr = expr
        self.declaration = declaration
        self.args = args
        self.body = body

    def label(self) -> str:
        return f"InlineCall:{self.declaration.name}"

    def children(self) -> List[Plan]:
        return list(self.args) + [self.body]


# -- FLWOR tuple operators ---------------------------------------------------


class TupleOp:
    """Base class for FLWOR pipeline operators."""

    __slots__ = ("est_rows", "occ")

    def __init__(self):
        self.est_rows: Optional[float] = None
        #: inferred occurrence of the per-tuple binding (display-only).
        self.occ: Optional[str] = None

    def label(self) -> str:
        return type(self).__name__

    def plans(self) -> List[Plan]:
        return []


class ForOp(TupleOp):
    """Tuple source: ``for $var [at $pos] in source``.

    ``invariant`` marks sources that cannot observe the tuple variables
    bound so far (and are side-effect free); the executor evaluates those
    once per FLWOR execution instead of once per tuple.
    """

    __slots__ = ("clause", "var", "position_var", "source", "invariant")

    def __init__(self, clause: ast.ForClause, source: Plan, invariant: bool):
        super().__init__()
        self.clause = clause
        self.var = clause.var
        self.position_var = clause.position_var
        self.source = source
        self.invariant = invariant

    def label(self) -> str:
        note = " invariant" if self.invariant else ""
        return f"For ${self.var}{note}"

    def plans(self) -> List[Plan]:
        return [self.source]


class ForJoinOp(TupleOp):
    """A correlated scan turned into a memoized hash join.

    ``for $var in base/...[@attr eq probe]`` where *probe* depends on tuple
    variables: the scan up to the join predicate is evaluated once per
    distinct base (the build side, hashed on ``@attr``); each tuple then
    evaluates *probe* (the probe side) and looks its atoms up in the table.
    This is the rewrite that takes the generated follow-step queries from
    O(tuples x relations) to O(tuples + relations).
    """

    __slots__ = (
        "clause",
        "var",
        "position_var",
        "scan",
        "build_attr",
        "probe_expr",
        "style",
        "residual",
        "join_expr",
        "candidates",
        "fast_probe",
        "fast_base",
    )

    def __init__(
        self,
        clause: ast.ForClause,
        scan: PathPlan,
        build_attr: str,
        probe_expr: ast.Expr,
        style: str,
        residual: List[PredPlan],
        join_expr: ast.Comparison,
    ):
        super().__init__()
        self.clause = clause
        self.var = clause.var
        self.position_var = clause.position_var
        self.scan = scan
        self.build_attr = build_attr  # attribute hashed on the build side
        self.probe_expr = probe_expr
        self.style = style  # "value" (eq) or "general" (=)
        self.residual = residual
        self.join_expr = join_expr
        #: alternative (attr, probe, style, expr) tuples found by lowering;
        #: the optimizer may switch to the most selective one.
        self.candidates: List[Tuple[str, ast.Expr, str, ast.Comparison]] = []
        #: executor cache for the ``$var/@attr`` probe shape (recomputed
        #: whenever the optimizer swaps ``probe_expr``).
        self.fast_probe: Optional[tuple] = None
        #: executor cache for a ``root($var)``-based scan, keyed on the
        #: base plan's identity so a rewrite invalidates it.
        self.fast_base: Optional[tuple] = None

    def label(self) -> str:
        op = "eq" if self.style == "value" else "="
        residual = "".join(f"[{p.describe()}]" for p in self.residual)
        return f"HashJoin ${self.var} on @{self.build_attr} {op} probe{residual}"

    def plans(self) -> List[Plan]:
        return [self.scan]


class LetOp(TupleOp):
    __slots__ = ("clause", "flwor", "var", "value", "declared_type")

    def __init__(self, clause: ast.LetClause, flwor: ast.FLWOR, value: Plan):
        super().__init__()
        self.clause = clause
        self.flwor = flwor
        self.var = clause.var
        self.value = value
        self.declared_type = clause.declared_type

    def label(self) -> str:
        return f"Let ${self.var}"

    def plans(self) -> List[Plan]:
        return [self.value]


class WhereOp(TupleOp):
    __slots__ = ("condition", "condition_expr")

    def __init__(self, condition_expr: ast.Expr, condition: Plan):
        super().__init__()
        self.condition_expr = condition_expr
        self.condition = condition

    def label(self) -> str:
        return "Select:where"

    def plans(self) -> List[Plan]:
        return [self.condition]


class OrderOp(TupleOp):
    """``order by`` over the tuple stream — a decorated stable sort."""

    __slots__ = ("clause", "specs")

    def __init__(self, clause: ast.OrderByClause, specs: List[tuple]):
        super().__init__()
        self.clause = clause
        #: list of (key plan, descending, empty_least)
        self.specs = specs

    def label(self) -> str:
        keys = ", ".join(
            f"key{' desc' if descending else ''}" for _, descending, _ in self.specs
        )
        return f"OrderBy({keys})"

    def plans(self) -> List[Plan]:
        return [key for key, _, _ in self.specs]


class FLWORPlan(Plan):
    """The tuple pipeline: sources, joins, selections, sort, projection."""

    __slots__ = ("expr", "ops", "result", "result_expr")

    def __init__(
        self, expr: ast.FLWOR, ops: List[TupleOp], result: Plan, result_expr: ast.Expr
    ):
        super().__init__()
        self.expr = expr
        self.ops = ops
        self.result = result
        self.result_expr = result_expr

    def label(self) -> str:
        return "FLWOR"

    def children(self) -> List[Plan]:
        collected: List[Plan] = []
        for op in self.ops:
            collected.extend(op.plans())
        collected.append(self.result)
        return collected

    def to_dict(self) -> dict:
        entry = {"op": "FLWOR"}
        if self.est_rows is not None:
            entry["est_rows"] = round(self.est_rows, 2)
        pipeline = []
        for op in self.ops:
            op_entry = {"op": op.label()}
            if op.est_rows is not None:
                op_entry["est_rows"] = round(op.est_rows, 2)
            if op.occ is not None:
                op_entry["occ"] = op.occ
            plans = [plan.to_dict() for plan in op.plans() if plan is not None]
            if plans:
                op_entry["inputs"] = plans
            pipeline.append(op_entry)
        entry["pipeline"] = pipeline
        entry["return"] = self.result.to_dict()
        return entry

    def render(self, indent: int = 0, out: Optional[List[str]] = None) -> List[str]:
        if out is None:
            out = []
        rows = "" if self.est_rows is None else f"  (~{self.est_rows:g} rows)"
        out.append("  " * indent + "FLWOR" + rows)
        for op in self.ops:
            op_rows = "" if op.est_rows is None else f"  (~{op.est_rows:g} tuples)"
            op_occ = "" if op.occ is None else f"  [occ={op.occ}]"
            out.append("  " * (indent + 1) + op.label() + op_rows + op_occ)
            for plan in op.plans():
                if plan is not None:
                    plan.render(indent + 2, out)
        out.append("  " * (indent + 1) + "Return")
        self.result.render(indent + 2, out)
        return out
