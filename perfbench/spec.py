"""Names of the benchmark: workloads, end-to-end metrics, per-layer metrics.

This is the single table later issues cite.  ``BENCHMARK.json`` at the
repository root carries the subset the driver's contract allows (name,
unit, direction, bound); everything the contract has no key for — the
layer a metric belongs to, which end-to-end metric on which workload it
is predicted to move — lives here; README.md adds how the metrics
interact.  ``tests/test_perfbench.py`` keeps the two in step.

Nothing here imports ``repro``: the table must be readable (and
``BENCHMARK.json`` checkable) without the program.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Set-ups behind ``setup_s`` and fresh interpreters behind
#: ``cold_query_ms`` (both report the median).
SETUPS = 3
COLD_STARTS = 4

#: Queries kept in flight by the one event loop of ``fleet_async``.
ASYNC_IN_FLIGHT = 8

#: Queries of one ``ingest_churn`` cycle (the first 12 of XM25).
CHURN_QUERIES = 12
#: Resident documents of ``ingest_churn`` and the pool new ones come from.
CHURN_RESIDENT = 8
CHURN_POOL = 16

#: ``repro.plan.passes.PASSES`` at this commit, in pipeline order.  The
#: run child asserts the program still has exactly these.
PASS_NAMES = (
    "paths-join-elimination",
    "regex-to-equality",
    "prune-distinct-order",
    "dedup-union-branches",
    "costed-access-strategy",
    "costed-join-order",
    "costed-union-order",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Which loop of ``loops.py`` drives it.
    kind: str
    #: One line for BENCHMARK.json: why this workload exists.
    why: str
    #: XMark scale of each document and how many documents.
    scale: float
    docs: int = 1
    #: ``EngineConfig`` overrides (everything else is connect()'s default).
    config: tuple[tuple[str, object], ...] = ()
    shards: int = 0
    #: Document generator: ``xmark`` or ``dblp``.
    source: str = "xmark"


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "xmark_hot", "read",
        "XM25 on a 1.7 MB store that fits SQLite's page cache, result "
        "cache off: fixed per-query Python cost weighs most here",
        scale=6.0, config=(("result_cache_size", None),),
    ),
    Workload(
        "xmark_large", "read",
        "XM25 on a 4.6 MB store larger than SQLite's 2 MB page cache: "
        "SQL execution, REGEXP calls and big results dominate",
        scale=24.0, config=(("result_cache_size", None),),
    ),
    Workload(
        "adhoc_cold", "adhoc",
        "never-repeating XPath strings from 8 templates on the hot "
        "store: every op misses both caches, so the translator dominates",
        scale=6.0,
    ),
    Workload(
        "ingest_churn", "ingest",
        "load + 12 cache-miss + 12 cache-hit queries + delete per cycle "
        "on one store: writes, statistics upkeep and invalidation",
        scale=0.25, docs=CHURN_RESIDENT,
    ),
    Workload(
        "fleet_sync", "fleet_sync",
        "blocking execute over a 2-shard worker fleet: the scatter "
        "ladder, IPC and merge per query",
        scale=2.0, docs=8, shards=2,
        config=(("replicas", 1), ("result_cache_size", None)),
    ),
    Workload(
        "fleet_async", "fleet_async",
        "execute_async from one event loop with 8 in flight over the "
        "same fleet: the front door's tick-coalescing path",
        scale=2.0, docs=8, shards=2,
        config=(("replicas", 1), ("result_cache_size", None)),
    ),
)

#: Opt-in ``--tier paper`` (never in BENCHMARK.json): Section 5's
#: regime.  Scales are chosen so the serialized XML is ~113 MB (XMark)
#: and ~130 MB (DBLP); the native oracle is replaced by PPF-vs-Edge
#: agreement because it is quadratic on Q11.
PAPER_TIER: tuple[Workload, ...] = (
    Workload(
        "xmark_large", "read",
        "XM25 at the paper's 113 MB XMark size",
        scale=1460.0, config=(("result_cache_size", None),),
    ),
    Workload(
        "dblp_large", "read",
        "QD1-QD5 on a 130 MB DBLP twin",
        scale=4300.0, config=(("result_cache_size", None),), source="dblp",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen.
    bound: float
    meaning: str


#: The bounds are what this sandbox allows (README, "Floors and the
#: yardstick"): ten runs on ten seeds spread the timing metrics by up to
#: 12 % when the host is quiet and shift them by up to 25-35 % on the fleet
#: workloads when it is not, so every timing metric gets the largest bound
#: the contract permits.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "set-up child, from the first document generated to the store "
        "checkpointed: generate + serialize + parse + infer schema + shred "
        "+ statistics (+ fleet directory); native oracle excluded; median "
        "of 3 set-ups",
    ),
    EndToEnd(
        "cold_query_ms", "ms", "lower", 0.25,
        "a fresh interpreter: import repro -> connect -> first result of "
        "the workload's first op (fleet spawn included); median of 4 "
        "spread over the run",
    ),
    EndToEnd(
        "throughput_ops", "ops/s", "higher", 0.25,
        "correct operations per second of operation time, every operation "
        "at its floor (lower-decile latency); a failed operation costs its "
        "time and counts for nothing.  fleet_async, where operations "
        "overlap: best one-second block, per second of wall time",
    ),
    EndToEnd(
        "latency_ms_gmean", "ms", "lower", 0.25,
        "geometric mean over the workload's distinct operations of each "
        "one's floor latency: every query weighs the same",
    ),
    EndToEnd(
        "latency_ms_p95", "ms", "lower", 0.25,
        "95th percentile over the operations as issued, each at its key's "
        "floor: the heavy end of the mix (big-result queries, writes)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the run child: the serving footprint (set-up is "
        "another process)",
    ),
    EndToEnd(
        "store_bytes_per_xml_byte", "ratio", "lower", 0.15,
        "checkpointed store file(s) / serialized XML bytes",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: The ``repro`` module the metric belongs to.
    module: str
    #: ``metric@workload`` pairs it is predicted to move; everywhere
    #: else the prediction is no change.
    moves: tuple[str, ...]
    meaning: str


_ADHOC = ("throughput_ops@adhoc_cold",)
_HOT = ("throughput_ops@xmark_hot",)
_LARGE = ("throughput_ops@xmark_large", "latency_ms_p95@xmark_large")
_SETUP = ("setup_s@all",)
_CHURN = ("latency_ms_p95@ingest_churn", "throughput_ops@ingest_churn")
_COLD_FLEET = ("cold_query_ms@fleet_sync", "cold_query_ms@fleet_async")
_FLEET = ("throughput_ops@fleet_sync", "throughput_ops@fleet_async")
_PLAN_SHAPE = ("storage.database.query_s", "latency_ms_gmean@xmark_large")


def _pass_layers() -> list[Layer]:
    layers = []
    for name in PASS_NAMES:
        layers.append(Layer(
            f"plan.passes.{name}.s", "s", "lower", "repro.plan.passes",
            _ADHOC, f"PASSES[{name!r}] plus the fold_plan after it",
        ))
        layers.append(Layer(
            f"plan.passes.{name}.fired", "ratio", "higher",
            "repro.plan.passes", _PLAN_SHAPE,
            "share of distinct operations whose plan the pass changed",
        ))
    return layers


PER_LAYER: tuple[Layer, ...] = (
    Layer("xpath.parse_s", "s", "lower", "repro.xpath.parser",
          ("latency_ms_gmean@adhoc_cold", "cold_query_ms@all"),
          "parse_xpath(string)"),
    Layer("plan.planner.plan_s", "s", "lower", "repro.plan.planner", _ADHOC,
          "Planner.plan(ast, text)"),
    Layer("plan.planner.branches", "count", "lower", "repro.plan.planner",
          _ADHOC, "UNION branches of the plan before the passes"),
    Layer("plan.planner.scans", "count", "lower", "repro.plan.planner",
          _ADHOC, "scans of the plan before the passes"),
    Layer("plan.planner.paths_joins", "count", "lower", "repro.plan.planner",
          _ADHOC, "Paths joins of the plan before the passes"),
    Layer("plan.passes.run_s", "s", "lower", "repro.plan.passes", _ADHOC,
          "first fold_plan plus all 7 passes"),
    *_pass_layers(),
    Layer("plan.passes.branches_after", "count", "lower",
          "repro.plan.passes", _PLAN_SHAPE, "UNION branches after the passes"),
    Layer("plan.passes.scans_after", "count", "lower", "repro.plan.passes",
          _PLAN_SHAPE, "scans after the passes"),
    Layer("plan.passes.paths_joins_after", "count", "lower",
          "repro.plan.passes", _PLAN_SHAPE, "Paths joins after the passes"),
    Layer("plan.cost.estimate_s", "s", "lower", "repro.plan.cost", _ADHOC,
          "CardinalityEstimator(summary).estimate_plan(plan)"),
    Layer("plan.cost.qerror_gmean", "ratio", "lower", "repro.plan.cost",
          (), "geometric mean over distinct operations of max(est, act) / "
          "min(est, act), both floored at 1; gates the costed passes"),
    Layer("plan.cost.qerror_max", "ratio", "lower", "repro.plan.cost",
          (), "largest q-error over distinct operations"),
    Layer("plan.lowering.lower_s", "s", "lower", "repro.plan.lowering",
          _ADHOC, "lower_plan(plan, dialect)"),
    Layer("sqlgen.render_s", "s", "lower", "repro.sqlgen.render", _ADHOC,
          "render_statement(statement)"),
    Layer("sqlgen.sql_bytes", "B", "lower", "repro.sqlgen.render", _ADHOC,
          "length of the rendered SQL, mean over distinct operations"),
    Layer("core.engine.translate_cold_s", "s", "lower",
          "repro.core.translator",
          _ADHOC + ("latency_ms_p95@ingest_churn",),
          "PPFTranslator.translate(string), no cache"),
    Layer("core.engine.translate_hot_s", "s", "lower", "repro.core.engine",
          ("latency_ms_gmean@xmark_hot",),
          "engine.translate(string) answered by the translation cache"),
    Layer("core.engine.translation_cache_hit_ratio", "ratio", "higher",
          "repro.core.engine", ("latency_ms_gmean@xmark_hot",),
          "translation-cache hits / lookups made by the timed operations"),
    Layer("core.engine.overhead_s", "s", "lower", "repro.core.engine", _HOT,
          "residual: execute - storage.database.query_s - the translate "
          "it did (materialize, dedupe, sort, cache keys)"),
    Layer("core.engine.overhead_us_per_row", "us", "lower",
          "repro.core.engine", ("latency_ms_p95@xmark_large",),
          "core.engine.overhead_s per returned row"),
    Layer("core.engine.xpathmark17_sum_ms", "ms", "lower",
          "repro.core.engine", _HOT,
          "sum of the 17 paper queries' median execute times (continuity "
          "with queries[].seconds of BENCH_PR2-PR8); 0 where the "
          "workload does not run them one by one"),
    Layer("resilience.guards.overhead_s", "s", "lower",
          "repro.resilience.guards", _HOT,
          "residual: guarded_query - plain execute().fetchall() of the "
          "same SQL"),
    Layer("storage.database.query_s", "s", "lower", "repro.storage.database",
          _LARGE, "Database.guarded_query(sql)"),
    Layer("storage.database.rows", "count", "lower",
          "repro.storage.database", _LARGE,
          "rows SQLite returned per operation"),
    Layer("storage.database.regexp_calls", "count", "lower",
          "repro.storage.database", _LARGE,
          "REGEXP UDF calls per operation (shared RegexCache hits + "
          "misses); repeats exactly"),
    Layer("storage.database.regexp_calls_per_row", "ratio", "lower",
          "repro.storage.database", _LARGE,
          "REGEXP UDF calls per returned row"),
    Layer("serving.cache.hit_ratio", "ratio", "higher",
          "repro.serving.cache", ("latency_ms_gmean@ingest_churn",),
          "result-cache hits / lookups; 0 with result_cache_size=None"),
    Layer("serving.cache.hit_s", "s", "lower", "repro.serving.cache",
          ("latency_ms_gmean@ingest_churn",),
          "execute answered by the result cache"),
    Layer("xmltree.parser.parse_s", "s", "lower", "repro.xmltree.parser",
          _SETUP, "parse_document over all set-up XML"),
    Layer("xmltree.parser.mb_per_s", "MB/s", "higher",
          "repro.xmltree.parser", _SETUP, "XML megabytes parsed per second"),
    Layer("schema.inference.infer_s", "s", "lower", "repro.schema.inference",
          _SETUP, "infer_schema(documents)"),
    Layer("storage.schema_aware.bulk_load_s", "s", "lower",
          "repro.storage.schema_aware", _SETUP,
          "bulk_load of the set-up documents"),
    Layer("storage.schema_aware.elements_per_s", "1/s", "higher",
          "repro.storage.schema_aware", _SETUP,
          "elements shredded per second of bulk_load"),
    Layer("storage.database.analyze_s", "s", "lower",
          "repro.storage.database", _SETUP, "SQLite ANALYZE"),
    Layer("stats.maintenance.collect_s", "s", "lower",
          "repro.stats.maintenance", _SETUP,
          "collect_statistics() (ShardedStore.analyze() on the fleet)"),
    Layer("storage.schema_aware.load_s", "s", "lower",
          "repro.storage.schema_aware", _CHURN,
          "ShreddedStore.load(document) on the fresh-statistics store"),
    Layer("storage.schema_aware.delete_s", "s", "lower",
          "repro.storage.schema_aware", _CHURN, "delete_document(oldest)"),
    Layer("stats.maintenance.load_delta_s", "s", "lower",
          "repro.stats.maintenance", _CHURN,
          "residual: load_s - the same load on a statistics-free twin"),
    Layer("core.engine.retranslate_s", "s", "lower", "repro.core.engine",
          _CHURN, "first engine.translate of a query after a mutation"),
    Layer("serving.shards.open_s", "s", "lower", "repro.serving.shards",
          _COLD_FLEET, "ShardedStore.open(directory)"),
    Layer("serving.supervisor.spawn_s", "s", "lower",
          "repro.serving.supervisor", _COLD_FLEET,
          "ShardRuntime.start() until every worker answers a ping"),
    Layer("serving.supervisor.worker_rss_mb", "MB", "lower",
          "repro.serving.supervisor", _COLD_FLEET,
          "largest worker VmRSS at the end of the run"),
    Layer("serving.supervisor.ping_rtt_s", "s", "lower",
          "repro.serving.supervisor", _FLEET, "ShardRuntime.ping round trip"),
    Layer("serving.supervisor.batch_rtt_s", "s", "lower",
          "repro.serving.supervisor", _FLEET,
          "one XM25 pass of SQL to the slowest shard: submit_batch + wait"),
    Layer("serving.supervisor.shard_exec_s", "s", "lower",
          "repro.serving.supervisor", _FLEET,
          "the same pass run in-process on that shard's file"),
    Layer("serving.supervisor.ipc_overhead_s", "s", "lower",
          "repro.serving.supervisor", _FLEET,
          "residual: batch_rtt_s - shard_exec_s"),
    Layer("serving.supervisor.respawns", "count", "lower",
          "repro.serving.supervisor", _FLEET, "worker respawns in the run"),
    Layer("serving.scatter.execute_s", "s", "lower", "repro.serving.scatter",
          ("latency_ms_gmean@fleet_sync",), "ShardedEngine.execute(string)"),
    Layer("serving.scatter.batch_s", "s", "lower", "repro.serving.scatter",
          ("latency_ms_gmean@fleet_sync",), "execute_many of one XM25 pass"),
    Layer("serving.scatter.merge_s", "s", "lower", "repro.serving.scatter",
          ("latency_ms_gmean@fleet_sync",),
          "residual: batch_s - slowest shard's batch_rtt_s - translate"),
    *(
        Layer(f"serving.scatter.{counter}", "count", "lower",
              "repro.serving.scatter", ("latency_ms_p95@fleet_sync",),
              f"ShardedEngine.stats[{counter!r}] over the run (expected 0)")
        for counter in (
            "hedges", "retries", "partials", "fallbacks", "rejections",
            "breaker_short_circuits",
        )
    ),
    Layer("serving.frontdoor.gather_s", "s", "lower",
          "repro.serving.frontdoor", ("throughput_ops@fleet_async",),
          "one XM25 pass gathered through execute_async"),
    Layer("serving.frontdoor.overhead_s", "s", "lower",
          "repro.serving.frontdoor", ("throughput_ops@fleet_async",),
          "residual: gather_s - serving.scatter.batch_s"),
    Layer("perfbench.attributed_ratio", "ratio", "higher", "perfbench", (),
          "share of an operation's time covered by directly timed layer "
          "calls; the rest is the residual metrics above"),
    Layer("perfbench.trace_overhead_ratio", "ratio", "higher", "perfbench",
          (), "traced / untraced throughput_ops: the harness's own cost"),
)

def benchmark_json(run_seconds: int) -> dict:
    """The content of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
