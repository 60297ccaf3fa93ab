"""Command-line interface.

::

    python -m repro shred  store.db doc1.xml doc2.xml   # create/append
    python -m repro query  store.db "//item[@id='item0']"
    python -m repro explain store.db "//keyword/ancestor::listitem"
    python -m repro info   store.db
    python -m repro stats  store.db --collect --top 5
    python -m repro shard create store/ doc1.xml --shards 4
    python -m repro query  store/ "//item" --shards 4
    python -m repro bench  --workload xmark --scale 8

``shred`` infers the schema from the first batch of documents and
persists it in the database; later invocations reopen the store and
validate new documents against it.

``shard`` manages document-sharded store *directories*
(:mod:`repro.serving.shards`); ``query`` detects such a directory (or
is told with ``--shards N``) and serves it through the supervised
multi-process scatter-gather engine, with ``--query-timeout`` acting
as the per-query deadline of the degradation ladder.

Every command exits ``0`` on success, ``1`` with an ``error: …`` line
on a library error, and ``2`` on a usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import _is_sharded_dir, _require_existing
from repro.core.engine import PPFEngine
from repro.errors import ReproError
from repro.resilience.policy import ResiliencePolicy
from repro.schema.inference import infer_schema
from repro.storage.database import Database
from repro.storage.schema_aware import ShreddedStore
from repro.xmltree.parser import parse_document


def _open_store(
    path: str, policy: ResiliencePolicy | None = None
) -> ShreddedStore:
    _require_existing(path)
    return ShreddedStore.open(Database.open(path, policy=policy))


def _load_schema(path: str):
    from repro.schema.dtd import parse_dtd
    from repro.schema.xsd import parse_xsd

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".dtd"):
        return parse_dtd(text)
    return parse_xsd(text)


def cmd_shred(args: argparse.Namespace) -> int:
    """``repro shred`` — load documents, creating the store on first use."""
    documents = []
    for name in args.documents:
        with open(name, "r", encoding="utf-8") as handle:
            documents.append(parse_document(handle.read(), name=name))
    db = Database.open(args.database)
    if "repro_meta" in db.table_names():
        store = ShreddedStore.open(db)
    elif args.schema:
        store = ShreddedStore.create(db, _load_schema(args.schema))
    else:
        store = ShreddedStore.create(db, infer_schema(documents))
    if args.bulk:
        doc_ids = store.bulk_load(documents)
        for document, doc_id in zip(documents, doc_ids):
            print(
                f"bulk-loaded {document.name!r} as doc {doc_id} "
                f"({document.element_count()} elements)"
            )
    else:
        for document in documents:
            doc_id = store.load(document)
            print(
                f"loaded {document.name!r} as doc {doc_id} "
                f"({document.element_count()} elements)"
            )
    db.execute("ANALYZE")
    db.commit()
    return 0


def _print_result(store, result) -> None:
    for row in result:
        if result.projection == "nodes":
            doc_id, node_id = store.to_document_node_id(row.id)
            print(f"doc={doc_id} node={node_id}")
        else:
            print(row.value)
    print(
        f"-- {len(result)} result(s) via {result.served_by}",
        file=sys.stderr,
    )


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query`` — run XPath queries and print the results.

    Both store kinds are opened through :func:`repro.connect`: a single
    store file runs the queries one after another on its connection, a
    sharded store directory (detected, or requested via ``--shards``)
    is served by the supervised multi-process scatter-gather engine;
    ``--query-timeout`` is the per-query deadline either way, and
    results print in input order.
    """
    from repro.api import EngineConfig, connect

    sharded = _is_sharded_dir(args.database)
    if args.shards is not None and not sharded:
        print(
            f"error: {args.database!r} is not a sharded store directory "
            f"(create one with `repro shard create`)",
            file=sys.stderr,
        )
        return 2
    config = EngineConfig(
        deadline=args.query_timeout, max_rows=args.max_rows
    )
    exit_code = 0
    with connect(args.database, config=config) as engine:
        store = engine.store
        if sharded and args.shards not in (None, 0, store.shard_count):
            print(
                f"error: store {args.database!r} has "
                f"{store.shard_count} shard(s), not {args.shards}",
                file=sys.stderr,
            )
            return 2
        results = engine.execute_many(args.xpaths)
        for xpath, result in zip(args.xpaths, results):
            if len(args.xpaths) > 1:
                print(f"== {xpath}")
            _print_result(store, result)
            if not result.complete:
                failed = ", ".join(str(s) for s in result.failed_shards)
                print(
                    f"-- WARNING: partial result; shard(s) {failed} "
                    f"did not contribute",
                    file=sys.stderr,
                )
                exit_code = 3
    return exit_code


def cmd_shard(args: argparse.Namespace) -> int:
    """``repro shard`` — create, inspect, and verify sharded stores."""
    from repro.serving.shards import ShardedStore

    if args.action == "create":
        documents = []
        for name in args.documents:
            with open(name, "r", encoding="utf-8") as handle:
                documents.append(parse_document(handle.read(), name=name))
        if _is_sharded_dir(args.directory):
            store = ShardedStore.open(args.directory)
        else:
            schema = (
                _load_schema(args.schema)
                if args.schema
                else infer_schema(documents)
            )
            store = ShardedStore.create(
                args.directory, schema, shards=args.shards
            )
        with store:
            doc_ids = store.bulk_load(documents)
            for document, doc_id in zip(documents, doc_ids):
                entry = store.registry[doc_id]
                print(
                    f"loaded {document.name!r} as doc {doc_id} -> "
                    f"shard {entry.shard} "
                    f"({document.element_count()} elements)"
                )
            store.analyze()
        return 0
    store = ShardedStore.open(args.directory)
    with store:
        if args.action == "info":
            print(f"shards:     {store.shard_count}")
            print(f"documents:  {store.document_count()}")
            print(f"elements:   {store.total_elements()}")
            print(f"generation: {store.generation}")
            staleness = store.statistics_staleness()
            if any(staleness):
                stale = ", ".join(
                    str(i) for i, s in enumerate(staleness) if s
                )
                print(
                    f"statistics: STALE on shard(s) {stale} "
                    f"(refresh with ShardedStore.analyze)"
                )
            else:
                print("statistics: fresh on all shards")
            for entry in store.doc_entries:
                print(
                    f"  doc {entry.doc_id:>4} {entry.name!r:<30} "
                    f"shard {entry.shard} base {entry.base} "
                    f"nodes {entry.node_count}"
                )
            return 0
        # verify
        problems = store.verify_integrity()
        if problems:
            for problem in problems:
                print(f"FAIL {problem}")
            return 1
        print(f"all {store.shard_count} shard(s) verify clean")
        return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain`` — print the generated SQL (and, with
    ``--plan``, the optimized logical plan, the per-pass report and
    SQLite's own plan for the statement; with ``--costs``, estimated
    vs. actual row counts)."""
    store = _open_store(args.database)
    engine = PPFEngine(store)
    if getattr(args, "costs", False):
        report = engine.explain_costs(args.xpath)
    else:
        report = engine.explain(args.xpath)
    if getattr(args, "plan", False):
        print("-- logical plan:")
        print(report.plan_text())
        print("-- optimizer passes:")
        for pass_report in report.pass_reports:
            print(f"  {pass_report.summary()}")
        before, after = report.stats_before, report.stats_after
        if before and after:
            changed = ", ".join(
                f"{key} {before[key]}->{after[key]}"
                for key in sorted(before)
                if before[key] != after.get(key)
            )
            print(f"-- plan stats: {changed or 'unchanged'}")
        print("-- SQL:")
    print(report)
    if getattr(args, "plan", False):
        print("-- sqlite plan:")
        for line in engine.query_plan(args.xpath):
            print(f"  {line}")
    if getattr(args, "costs", False):
        print("-- costs:")
        for line in report.cost_lines():
            print(f"  {line}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats`` — the path summary feeding the costed optimizer
    passes (shown only while it is exact): totals and the fattest
    paths."""
    store = _open_store(args.database)
    if args.collect:
        store.collect_statistics()
    summary = store.path_summary()
    if summary is None:
        print(
            "no usable statistics: never collected, or stale because the "
            "store mutated since the last refresh "
            "(run `repro stats DB --collect`, or bulk-load documents)"
        )
        return 1
    print(f"stats version: epoch {summary.version[0]} "
          f"at generation {summary.version[1]}")
    print(f"documents:     {summary.document_count}")
    print(f"elements:      {summary.total_elements}")
    print(f"paths:         {summary.path_count}")
    print("relations:")
    for table in sorted(summary.relation_counts):
        print(f"  {table:<20} {summary.relation_counts[table]:>8} rows")
    print(f"top {args.top} paths by element count:")
    for entry in summary.top_paths(args.top):
        print(
            f"  {entry.path:<40} {entry.element_count:>8} elems  "
            f"{entry.doc_count:>4} doc(s)  "
            f"value ratio {entry.value_ratio:.2f}"
        )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``repro info`` — store statistics and the Section 4.5 marking."""
    store = _open_store(args.database)
    print(f"documents: {store.db.query_one('SELECT COUNT(*) FROM docs')[0]}")
    print(f"elements:  {store.total_elements()}")
    print(f"paths:     {len(store.path_index)}")
    print("relations:")
    for table, count in store.relation_counts().items():
        marks = {
            store.marking.classify(name).value
            for name in store.mapping.relations[table].element_names
        }
        print(f"  {table:<20} {count:>8} rows  [{', '.join(sorted(marks))}]")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench`` — run the paper comparison at a chosen scale."""
    from repro.bench.paper import PAPER_DBLP, PAPER_XMARK_SMALL
    from repro.bench.report import format_table
    from repro.bench.runner import (
        build_dblp_bundle,
        build_xmark_bundle,
        measure,
    )
    from repro.workloads import DBLP_QUERIES, XPATHMARK_QUERIES
    from repro.workloads.xpathmark import COMMERCIAL_SUPPORTED

    if args.workload == "xmark":
        bundle = build_xmark_bundle(scale=args.scale)
        queries = XPATHMARK_QUERIES
        paper = PAPER_XMARK_SMALL
        skip = {
            "commercial": {q.qid for q in queries} - COMMERCIAL_SUPPORTED
        }
    else:
        bundle = build_dblp_bundle(scale=args.scale)
        queries = DBLP_QUERIES
        paper = PAPER_DBLP
        skip = {"commercial": {q.qid for q in queries}}
    print(f"{bundle.element_count()} elements", file=sys.stderr)
    results = measure(bundle, queries, repeats=args.repeats, skip=skip)
    print(
        format_table(
            f"{args.workload} comparison (paper series in parentheses)",
            results,
            paper,
        )
    )
    if args.chart:
        from repro.bench.figures import bar_chart

        print()
        print(bar_chart(f"{args.workload} (log bars)", results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PPF-based XPath execution on relational systems",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    shred = commands.add_parser("shred", help="shred XML into a store")
    shred.add_argument("database")
    shred.add_argument("documents", nargs="+")
    shred.add_argument(
        "--schema",
        help="schema file (.dtd or .xsd); default: infer from documents",
    )
    shred.add_argument(
        "--bulk",
        action="store_true",
        help="bulk-load fast path: deferred indexes, relaxed pragmas "
        "(best for initial loads)",
    )
    shred.set_defaults(handler=cmd_shred)

    query = commands.add_parser("query", help="run an XPath query")
    query.add_argument("database")
    query.add_argument("xpaths", nargs="+", metavar="xpath")
    query.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort the query after this much wall-clock time",
    )
    query.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="abort the query once it produces more than N rows",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="serve a sharded store directory through the multi-process "
        "scatter-gather engine (N checks the store's shard count; "
        "0 = auto-detect)",
    )
    query.set_defaults(handler=cmd_query)

    shard = commands.add_parser(
        "shard", help="create/inspect/verify document-sharded stores"
    )
    shard_actions = shard.add_subparsers(dest="action", required=True)
    shard_create = shard_actions.add_parser(
        "create", help="create a sharded store (or append documents)"
    )
    shard_create.add_argument("directory")
    shard_create.add_argument("documents", nargs="+")
    shard_create.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="number of shard files for a new store (default 4)",
    )
    shard_create.add_argument(
        "--schema",
        help="schema file (.dtd or .xsd); default: infer from documents",
    )
    shard_create.set_defaults(handler=cmd_shard)
    shard_info = shard_actions.add_parser(
        "info", help="manifest summary and document placement"
    )
    shard_info.add_argument("directory")
    shard_info.set_defaults(handler=cmd_shard)
    shard_verify = shard_actions.add_parser(
        "verify", help="digest-check every shard against its manifest"
    )
    shard_verify.add_argument("directory")
    shard_verify.set_defaults(handler=cmd_shard)

    explain = commands.add_parser("explain", help="show the generated SQL")
    explain.add_argument("database")
    explain.add_argument("xpath")
    explain.add_argument(
        "--plan",
        action="store_true",
        help="also print the optimized logical plan, which optimizer "
        "passes fired, and SQLite's EXPLAIN QUERY PLAN for the statement",
    )
    explain.add_argument(
        "--costs",
        action="store_true",
        help="also run the query and print estimated vs. actual row "
        "counts per union branch",
    )
    explain.set_defaults(handler=cmd_explain)

    info = commands.add_parser("info", help="store statistics")
    info.add_argument("database")
    info.set_defaults(handler=cmd_info)

    stats = commands.add_parser(
        "stats",
        help="path summary feeding the cost-based optimizer passes",
    )
    stats.add_argument("database")
    stats.add_argument(
        "--collect",
        action="store_true",
        help="(re)collect the summary before printing it",
    )
    stats.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="how many of the fattest paths to list (default 10)",
    )
    stats.set_defaults(handler=cmd_stats)

    bench = commands.add_parser("bench", help="run the paper comparison")
    bench.add_argument("--workload", choices=["xmark", "dblp"],
                       default="xmark")
    bench.add_argument("--scale", type=float, default=6.0)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--chart", action="store_true", help="also draw ASCII bar charts"
    )
    bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
