"""Command-line XQuery runner.

Usage::

    python -m repro.xquery 'for $i in 1 to 3 return $i * $i'
    python -m repro.xquery -f query.xq --doc model=model.xml
    python -m repro.xquery --galax '$oops'        # 2004-style diagnostics
    python -m repro.xquery --no-optimize --trace 'trace("x", 42)'

Documents passed with ``--doc name=path`` become available to ``doc("name")``;
``--var name=value`` binds external string variables.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..xmlio import parse_document
from .api import XQueryEngine, serialize_result
from .context import EngineConfig, TraceLog
from .errors import XQueryError


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.xquery", description="Run an XQuery program."
    )
    parser.add_argument("query", nargs="?", help="query text (or use -f)")
    parser.add_argument("-f", "--file", help="read the query from a file")
    parser.add_argument(
        "--doc",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="load an XML document for doc('NAME')",
    )
    parser.add_argument(
        "--var",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind an external string variable",
    )
    parser.add_argument(
        "--context", metavar="PATH", help="XML file to use as the context item"
    )
    parser.add_argument(
        "--no-optimize", action="store_true", help="disable the optimizer"
    )
    parser.add_argument(
        "--buggy-dce",
        action="store_true",
        help="2004 Galax mode: the optimizer treats trace() as dead code",
    )
    parser.add_argument(
        "--galax",
        action="store_true",
        help="Galax diagnostics: errors lose locations; missing variables "
        "report as $glx:dot",
    )
    parser.add_argument(
        "--trace", action="store_true", help="print fn:trace output to stderr"
    )
    parser.add_argument(
        "--backend",
        choices=("treewalk", "closures", "algebra"),
        default="algebra",
        help="execution backend (default: algebra, the plan executor with "
        "closure-compiled fallback; treewalk is the reference interpreter)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized algebra plan (with estimated cardinalities) "
        "instead of running the query",
    )
    parser.add_argument(
        "--explain-format",
        choices=("text", "json"),
        default="text",
        help="plan rendering for --explain (default: text)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print per-query compile vs run time to stderr",
    )
    parser.add_argument(
        "--lint",
        choices=("off", "warn", "error"),
        default="off",
        help="run the static analyzer at compile time "
        "(see also: python -m repro.xquery.lint)",
    )
    return parser


def main(argv=None) -> int:
    args = build_argument_parser().parse_args(argv)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    elif args.query is not None:
        source = args.query
    else:
        build_argument_parser().print_usage(sys.stderr)
        return 2

    config = EngineConfig(
        optimize=not args.no_optimize,
        trace_is_dead_code=args.buggy_dce,
        galax_diagnostics=args.galax,
        backend=args.backend,
        lint=args.lint,
    )
    engine = XQueryEngine(config)

    documents = {}
    for spec in args.doc:
        name, _, path = spec.partition("=")
        if not path:
            print(f"--doc expects NAME=PATH, got {spec!r}", file=sys.stderr)
            return 2
        with open(path, "r", encoding="utf-8") as handle:
            documents[name] = parse_document(handle.read())

    variables = {}
    for spec in args.var:
        name, _, value = spec.partition("=")
        variables[name] = value

    context_item = None
    if args.context:
        with open(args.context, "r", encoding="utf-8") as handle:
            context_item = parse_document(handle.read())

    trace = TraceLog(echo=(lambda msg: print(f"trace: {msg}", file=sys.stderr)))
    if args.explain:
        try:
            query = engine.compile(source)
            if args.explain_format == "json":
                print(query.algebra.explain_json())
            else:
                explanation = query.algebra.explain()
                if explanation["fallback"]:
                    print("(whole query falls back to closure-compiled code)")
                print(explanation["text"])
        except XQueryError as error:
            print(str(error), file=sys.stderr)
            return 1
        return 0
    try:
        started = time.perf_counter()
        query = engine.compile(source)
        if args.backend == "closures":
            query.closures  # build the closure program inside the compile window
        elif args.backend == "algebra":
            query.algebra  # likewise: lowering+optimization is compile work
        compile_seconds = time.perf_counter() - started
        started = time.perf_counter()
        result = query.run(
            context_item=context_item,
            variables=variables,
            documents=documents,
            trace=trace if args.trace else None,
        )
        run_seconds = time.perf_counter() - started
    except XQueryError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.timing:
        print(
            f"timing [{args.backend}]: compile {compile_seconds * 1000:.2f}ms, "
            f"run {run_seconds * 1000:.2f}ms",
            file=sys.stderr,
        )
    print(serialize_result(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
