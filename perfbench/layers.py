"""Probes: each layer timed from outside, through its public functions.

Nothing here reaches into the program: a probe calls the same public
function the engine calls (``parse_xpath``, ``Planner.plan``, ``fold_plan``
+ ``PASSES[name]``, ``CardinalityEstimator.estimate_plan``, ``lower_plan``,
``render_statement``, ``Database.guarded_query``, ``ShardRuntime.
submit_batch``/``wait``/``ping`` ...) with the same arguments and records a
span around it.  What cannot be reached that way (materialize/dedupe/sort
inside ``execute``, the merge inside ``execute_many``) is reported as a
residual by ``loops.py``.
"""

from __future__ import annotations

from repro.core.translator import PPFTranslator
from repro.plan.cost import CardinalityEstimator
from repro.plan.lowering import lower_plan
from repro.plan.nodes import plan_stats
from repro.plan.passes import PASSES, PassContext, fold_plan
from repro.plan.planner import Planner
from repro.sqlgen.render import render_statement
from repro.storage import database as database_module
from repro.storage.database import Database
from repro.xpath.parser import parse_xpath

from perfbench.spans import Tracer

#: The shared RegexCache every REGEXP UDF call goes through.  It has no
#: public accessor; the program's own tests read it under this name too.
_REGEX_CACHE = database_module._compiled


def regexp_calls() -> int:
    """REGEXP UDF calls made by this process so far."""
    info = _REGEX_CACHE.cache_info()
    return info.hits + info.misses


class TranslatorProbe:
    """``PPFTranslator.translate`` taken apart, step for step."""

    def __init__(self, translator: PPFTranslator, tracer: Tracer):
        self.translator = translator
        self.tracer = tracer
        self.planner = Planner(
            translator.adapter,
            prefer_fk_joins=translator.prefer_fk_joins,
            split_every_step=translator.split_every_step,
            use_path_index=translator.use_path_index,
        )
        #: key -> plan shape / pass outcome of its latest translation.
        self.shape: dict[object, dict] = {}

    def run(self, xpath: str, key) -> None:
        """One whole uncached translation, then the same work in parts
        (children of the caller's open span)."""
        tracer, translator = self.tracer, self.translator
        with tracer.span("core.translator.translate", key):
            translator.translate(xpath)
        adapter = translator.adapter
        summary = getattr(adapter, "path_summary", None)
        context = PassContext(
            marking=getattr(adapter, "marking", None), summary=summary
        )
        with tracer.span("xpath.parse", key):
            ast = parse_xpath(xpath)
        with tracer.span("plan.planner.plan", key):
            plan = self.planner.plan(ast, xpath)
        before = plan_stats(plan)
        fired = {}
        with tracer.span("plan.passes.run", key):
            with tracer.span("plan.passes.fold", key):
                fold_plan(plan)
            for name in translator.pass_names:
                with tracer.span(f"plan.passes.{name}", key):
                    report = PASSES[name](plan, context)
                    fold_plan(plan)
                fired[name] = bool(report.fired)
        after = plan_stats(plan)
        if summary is not None:
            with tracer.span("plan.cost.estimate", key):
                CardinalityEstimator(summary).estimate_plan(plan)
        with tracer.span("plan.lowering.lower", key):
            statement = lower_plan(plan, translator.dialect)
        sql = ""
        if statement is not None:
            with tracer.span("sqlgen.render", key):
                sql = render_statement(statement)
        self.shape[key] = {
            "before": before, "after": after, "fired": fired,
            "sql_bytes": len(sql),
        }

    def metrics(self) -> dict[str, float]:
        tracer = self.tracer
        out = {
            "xpath.parse_s": tracer.per_op("xpath.parse"),
            "plan.planner.plan_s": tracer.per_op("plan.planner.plan"),
            "plan.passes.run_s": tracer.per_op("plan.passes.run"),
            "plan.cost.estimate_s": tracer.per_op("plan.cost.estimate"),
            "plan.lowering.lower_s": tracer.per_op("plan.lowering.lower"),
            "sqlgen.render_s": tracer.per_op("sqlgen.render"),
            "core.engine.translate_cold_s":
                tracer.per_op("core.translator.translate"),
        }
        shapes = list(self.shape.values())
        count = max(len(shapes), 1)

        def mean(pick) -> float:
            return sum(pick(shape) for shape in shapes) / count

        for field in ("branches", "scans", "paths_joins"):
            out[f"plan.planner.{field}"] = mean(lambda s: s["before"][field])
            out[f"plan.passes.{field}_after"] = mean(
                lambda s: s["after"][field]
            )
        out["sqlgen.sql_bytes"] = mean(lambda s: s["sql_bytes"])
        for name in PASSES:
            out[f"plan.passes.{name}.s"] = tracer.per_op(f"plan.passes.{name}")
            out[f"plan.passes.{name}.fired"] = mean(
                lambda s: float(s["fired"].get(name, False))
            )
        return out


class DatabaseProbe:
    """Guarded vs plain execution of one statement on one connection."""

    def __init__(self, db: Database, tracer: Tracer):
        self.db = db
        self.tracer = tracer
        #: key -> (rows, REGEXP calls) of its latest guarded run.
        self.counts: dict[object, tuple[int, int]] = {}

    def run(self, sql: str, key) -> None:
        if not sql:
            self.counts[key] = (0, 0)
            return
        calls = regexp_calls()
        with self.tracer.span("storage.database.guarded_query", key):
            rows = self.db.guarded_query(sql)
        self.counts[key] = (len(rows), regexp_calls() - calls)
        with self.tracer.span("storage.database.plain_query", key):
            self.db.execute(sql).fetchall()

    def metrics(self) -> dict[str, float]:
        tracer = self.tracer
        query_s = tracer.per_op("storage.database.guarded_query")
        plain_s = tracer.per_op("storage.database.plain_query")
        count = max(len(self.counts), 1)
        rows = sum(rows for rows, _ in self.counts.values()) / count
        calls = sum(calls for _, calls in self.counts.values()) / count
        return {
            "storage.database.query_s": query_s,
            "resilience.guards.overhead_s": query_s - plain_s,
            "storage.database.rows": rows,
            "storage.database.regexp_calls": calls,
            "storage.database.regexp_calls_per_row": calls / max(rows, 1.0),
        }


def qerrors(estimates: dict[object, float | None],
            actual: dict[object, int]) -> tuple[float, float]:
    """(geometric mean, max) of max(est, act) / min(est, act), both
    floored at 1, over the keys that have an estimate."""
    errors = []
    for key, estimate in estimates.items():
        if estimate is None or key not in actual:
            continue
        high = max(estimate, actual[key], 1.0)
        low = max(min(estimate, actual[key]), 1.0)
        errors.append(high / low)
    if not errors:
        return 0.0, 0.0
    product = 1.0
    for error in errors:
        product *= error ** (1.0 / len(errors))
    return product, max(errors)
