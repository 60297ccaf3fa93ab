"""Ordering axes as per-document bounds (``prune-distinct-order``).

An ordering-axis join whose context side only has to exist is planned
as one grouped bound per document (per parent for the sibling axes):
``preceding`` keeps ``MAX(dewey_pos)``, ``following`` ``MIN(dewey_pos
|| X'FF')``, the sibling axes ``MAX`` / ``MIN(dewey_pos)`` per
``par_id``.  Each rewrite is checked where it must fire and where it
must not, against the native oracle, row for row and in order (a row
the bound lets through twice, or one it loses, shows up as a
difference): PPF with statistics on and off under every pass subset, a
template hit and an inline translation, Edge, and a 2-shard fleet
driven both ways.  The documents are several per store, so a bound
that spans documents fails.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import sqlite3

import pytest

from repro import (
    Database,
    EdgePPFEngine,
    EdgeStore,
    NativeEngine,
    PPFEngine,
    ShreddedStore,
    infer_schema,
    parse_document,
)
from repro.core.results import in_document_order, rows_from_records
from repro.dewey.codec import decode
from repro.plan.graph import existential_context, unique_rows
from repro.plan.nodes import (
    DocEqCond,
    GroupedBound,
    LogicalSelect,
    QueryPlan,
    RawCond,
    StructuralCond,
    iter_selects,
)
from repro.plan.passes import PASSES, PassPipeline
from repro.plan.planner import Planner
from repro.serving.scatter import ServingConfig, ShardedEngine
from repro.serving.shards import ShardedStore
from repro.sqlgen.ast import UnionStatement
from repro.workloads import XMarkConfig, generate_xmark
from repro.workloads.xpathmark import XPATHMARK_QUERIES
from repro.xpath.parser import parse_xpath

#: One query per axis, each with predicates on both sides.
AXES = [
    "/site/regions/*/item[@id='item1']/following::item[payment]",
    "/site/open_auctions/open_auction/bidder[personref/@person='person1']"
    "/preceding::bidder[personref/@person='person0']",
    "/site/open_auctions/open_auction[@id='oa1']/bidder[increase > 2]"
    "/preceding-sibling::bidder[increase < 8]",
    "//bidder[personref/@person='person2']"
    "/following-sibling::bidder[personref]",
]
#: Value projections, an output reached through an FK from the target,
#: a wildcard target (one bound per union branch), and two ordering
#: steps in a row (the second bound's body holds the first).
SHAPES = [
    "//item[@featured='yes']/following::item/name/text()",
    "//bidder[personref/@person='person0']/following-sibling::bidder/@id",
    "//item[payment]/preceding::item/name",
    "//regions/following-sibling::*",
    "//item[@id='item2']/following::item/following::bidder",
]
#: The document element as context: nothing precedes, follows or
#: neighbours it, and its ``par_id`` is NULL.
ROOT = [
    "/site/following::*",
    "/site/preceding::*",
    "/site/following-sibling::*",
    "/site/preceding-sibling::*",
]
#: Where the context counts, not just exists: the position of a target
#: on the axis reads the context row and the target row.
POSITIONAL = [
    "//item[@id='item1']/following::item[1]",
    "/site/open_auctions/open_auction/bidder[personref]"
    "/preceding-sibling::bidder[2]",
    "//bidder[increase > 5]/following-sibling::bidder[last()]",
    "//item/preceding::item[position() < 3]",
    "//payment/following::*[2]",  # counts over every relation
]
#: The context is the output; the ordering join is a predicate's.
PROJECTED = "//bidder[following-sibling::bidder[increase > 5]]"
FIRES = AXES + SHAPES
CASES = FIRES + ROOT + POSITIONAL + [PROJECTED]

#: Every subset of the passes, in pipeline order.
SUBSETS = [
    names
    for size in range(len(PASSES) + 1)
    for names in itertools.combinations(PASSES, size)
]


def _document(seed: int):
    rng = random.Random(seed)
    items = itertools.count()

    def region(name: str) -> str:
        body = []
        for _ in range(rng.randint(1, 3)):
            number = next(items)
            featured = ' featured="yes"' if rng.random() < 0.5 else ""
            payment = "<payment>cash</payment>" if rng.random() < 0.5 else ""
            body.append(
                f'<item id="item{number}"{featured}>'
                f"<name>i{number}</name>{payment}</item>"
            )
        return f"<{name}>{''.join(body)}</{name}>"

    def bidder(number: int) -> str:
        person = rng.randint(0, 3)
        personref = (
            f'<personref person="person{person}"/>'
            if rng.random() < 0.8
            else ""
        )
        return (
            f'<bidder id="b{number}">{personref}'
            f"<increase>{rng.randint(0, 10)}</increase></bidder>"
        )

    auctions = "".join(
        f'<open_auction id="oa{number}">'
        + "".join(bidder(b) for b in range(rng.randint(1, 5)))
        + "</open_auction>"
        for number in range(rng.randint(2, 4))
    )
    regions = "".join(region(n) for n in ("africa", "asia", "europe"))
    return parse_document(
        f"<site><regions>{regions}</regions>"
        f"<open_auctions>{auctions}</open_auctions>"
        "<people><person id='person0'/></people></site>"
    )


@pytest.fixture(scope="module")
def documents():
    return [_document(seed) for seed in (7, 8, 9, 10)]


@pytest.fixture(scope="module")
def schema(documents):
    return infer_schema(documents)


def _shredded(documents, schema, statistics):
    store = ShreddedStore.create(Database.memory(), schema)
    for document in documents:
        store.load(document)
    if statistics:
        store.collect_statistics()
    return store


@pytest.fixture(scope="module", params=[False, True], ids=["no-stats", "stats"])
def store(request, documents, schema):
    return _shredded(documents, schema, request.param)


def expected(documents, xpath):
    """The native oracle's answer: ``(doc, Dewey vector, value)`` per
    node, documents in load order, each in document order."""
    out = []
    for doc_id, document in enumerate(documents, start=1):
        for node in NativeEngine(document).execute(xpath):
            owner = getattr(node, "owner", None) or node
            if not hasattr(owner, "dewey"):
                owner = node.parent
            value = None if owner is node else node.value
            out.append((doc_id, owner.dewey, value))
    return out


def answer(rows):
    return [(row.doc_id, decode(row.dewey_pos), row.value) for row in rows]


def bounds(translation) -> list[GroupedBound]:
    return [
        scan
        for select in iter_selects(translation.plan)
        for scan in select.scans
        if isinstance(scan, GroupedBound)
    ]


def test_cases_are_not_vacuous(documents):
    """Every query that should fire has rows in more than one document;
    the root-context queries have none anywhere."""
    for xpath in FIRES + POSITIONAL + [PROJECTED]:
        docs = {doc_id for doc_id, _, _ in expected(documents, xpath)}
        assert len(docs) > 1, xpath
    for xpath in ROOT:
        assert expected(documents, xpath) == [], xpath


class TestEveryEngineMatchesTheOracle:
    def test_every_pass_subset(self, documents, store):
        answers = {xpath: expected(documents, xpath) for xpath in CASES}
        for names in SUBSETS:
            engine = PPFEngine(store, passes=names, result_cache_size=None)
            for xpath in CASES:
                got = answer(engine.execute(xpath).rows)
                assert got == answers[xpath], (names, xpath)

    def test_inline_translation_and_template_hit(self, documents, store):
        engine = PPFEngine(store, result_cache_size=None)
        for xpath in CASES:
            want = expected(documents, xpath)
            inline = engine.translator.translate_inline(xpath)
            rows = in_document_order(
                rows_from_records(
                    store.db.query(inline.sql), inline.projection != "nodes"
                ),
                ordered=inline.ordered,
                distinct=inline.one_row_per_id,
            )
            assert answer(rows) == want, xpath
            other = (
                xpath.replace("person1", "person3")
                .replace("item1", "item0")
                .replace("oa1", "oa0")
            )
            if other == xpath or "[1]" in xpath or "[2]" in xpath:
                continue  # no literal, or one the plan depends on
            # Another string of the same shape plans the template ...
            engine.translate(other)
            hits = engine.cache_info().hits
            # ... that this one binds, context literals included.
            assert answer(engine.execute(xpath).rows) == want, xpath
            assert engine.cache_info().hits == hits + 1, xpath
            assert engine.translate(xpath).parameters, xpath

    def test_edge(self, documents):
        edge = EdgeStore.create(Database.memory())
        for document in documents:
            edge.load(document)
        engine = EdgePPFEngine(edge, result_cache_size=None)
        for xpath in CASES:
            got = answer(engine.execute(xpath).rows)
            assert got == expected(documents, xpath), xpath
        for xpath in AXES:
            assert bounds(engine.translate(xpath)), xpath


@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_fleet_sync_and_async(documents, schema, tmp_path):
    store = ShardedStore.create(str(tmp_path / "shards"), schema, shards=2)
    store.bulk_load(documents)
    engine = ShardedEngine.serve(
        store,
        config=ServingConfig(deadline=30.0, result_cache_size=None),
        replicas=1,
    )
    try:
        want = [expected(documents, xpath) for xpath in CASES]
        results = [engine.execute(xpath) for xpath in CASES]
        assert [answer(r.rows) for r in results] == want

        async def gather():
            return await asyncio.gather(
                *(engine.execute_async(xpath) for xpath in CASES)
            )

        results += asyncio.run(gather())
        assert [answer(r.rows) for r in results[len(CASES):]] == want
        # The shards ran every statement: no native fallback hid an error.
        assert {r.served_by for r in results} == {"shards"}
    finally:
        engine.close()
        store.close()


class TestWhereTheRewriteFires:
    """The default pipeline on a store with an exact summary."""

    @pytest.fixture(scope="class")
    def engine(self, documents, schema):
        return PPFEngine(_shredded(documents, schema, statistics=True))

    def test_one_bound_per_ordering_join(self, engine):
        for xpath in AXES + SHAPES[:3]:
            translation = engine.translate(xpath)
            (bound,) = bounds(translation)
            assert bound.axis in xpath, xpath
            assert not translation.statement.distinct, xpath
            assert translation.one_row_per_id, xpath
            assert "DISTINCT" not in translation.sql, xpath
            (report,) = [
                r
                for r in translation.pass_reports
                if r.name == "prune-distinct-order"
            ]
            assert "bounded 1 ordering-axis context(s)" in report.detail

    def test_group_key_and_aggregate_per_axis(self, engine):
        want = {
            "following": "MIN(CAST(item.dewey_pos || X'FF' AS BLOB)) AS bound",
            "preceding": "MAX(bidder.dewey_pos) AS bound",
            "preceding-sibling": "MAX(bidder.dewey_pos) AS bound",
            "following-sibling": "MIN(bidder.dewey_pos) AS bound",
        }
        for xpath in AXES:
            sql = engine.translator.translate_inline(xpath).sql
            (axis,) = [a for a in want if f"/{a}::" in xpath]
            key = "par_id" if axis.endswith("sibling") else "doc_id"
            assert want[axis] in sql, xpath
            alias = want[axis].split("(")[-1].split(".")[0]
            assert f"SELECT {alias}.{key} AS {key}, " in sql, xpath
            assert f"GROUP BY {alias}.{key}) {alias}_bound" in sql, xpath

    def test_the_context_literal_is_bound_in_the_body(self, engine):
        translation = engine.translate(AXES[0])
        assert translation.parameters == {"v0": "item1"}
        assert "WHERE item.attr_id = :v0\n" in translation.parametrised_sql
        assert "WHERE item.attr_id = 'item1'\n" in translation.sql
        # Context and target literals, in the order the text has them.
        translation = engine.translate(AXES[1])
        assert translation.parameters == {"v0": "person1", "v1": "person0"}
        sql = translation.parametrised_sql
        assert sql.index("GROUP BY") < sql.index(":v1")
        assert 0 < sql.index(":v0") < sql.index("GROUP BY")

    def test_wildcard_target_bounds_every_branch(self, engine):
        translation = engine.translate(SHAPES[3])
        assert translation.branch_count() > 1
        assert len(bounds(translation)) == translation.branch_count()
        assert translation.statement.all and translation.one_row_per_id
        for xpath in ROOT:
            translation = engine.translate(xpath)
            assert len(bounds(translation)) == translation.branch_count()

    def test_consecutive_ordering_steps_nest(self, engine):
        translation = engine.translate(SHAPES[4])
        outer, inner = bounds(translation)
        assert (outer.axis, inner.axis) == ("following", "following")
        assert any(scan is inner for scan in outer.body.scans)
        assert not any(
            isinstance(cond, StructuralCond)
            for select in iter_selects(translation.plan)
            for cond in select.where.parts
        )

    def test_not_where_the_context_counts(self, engine):
        for xpath in POSITIONAL:
            translation = engine.translate(xpath)
            assert not bounds(translation), xpath
            statement = translation.statement
            if isinstance(statement, UnionStatement):
                assert not statement.all, xpath  # UNION removes duplicates
            else:
                assert statement.distinct, xpath
            assert "COUNT(*)" in translation.sql or "NOT " in translation.sql

    def test_not_where_the_context_is_the_output(self, engine):
        translation = engine.translate(PROJECTED)
        assert not bounds(translation)
        (exists,) = [
            select
            for select in iter_selects(translation.plan)
            if any(isinstance(c, StructuralCond) for c in select.where.parts)
        ]
        assert exists is not translation.plan.root


def _planned(engine, xpath: str) -> LogicalSelect:
    """The select ``xpath`` plans to, after the passes that run before
    ``prune-distinct-order``."""
    plan = Planner(engine.translator.adapter).plan(parse_xpath(xpath), xpath)
    PassPipeline(("paths-join-elimination", "regex-to-equality")).run(plan)
    assert isinstance(plan.root, LogicalSelect)
    return plan.root


class TestTheGuard:
    """``existential_context`` on hand-made variations of one plan."""

    XPATH = AXES[0]

    @pytest.fixture(scope="class")
    def engine(self, documents, schema):
        return PPFEngine(_shredded(documents, schema, statistics=False))

    def test_fires_on_the_plain_join(self, engine):
        select = _planned(engine, self.XPATH)
        found = existential_context(select, "item_2")
        assert found is not None
        join, side = found
        assert (join.axis, join.context_alias) == ("following", "item")
        assert side == {"item", "item_paths"}

    def test_a_condition_reading_both_sides(self, engine):
        select = _planned(engine, self.XPATH)
        select.where.add(RawCond("item_2.attr_id <> item.attr_id"))
        assert existential_context(select, "item_2") is None

    def test_a_projected_context(self, engine):
        select = _planned(engine, self.XPATH)
        assert existential_context(select, "item") is None
        select.columns.append("item.dewey_pos AS context")
        plan = QueryPlan(select, "nodes", self.XPATH)
        PassPipeline(("prune-distinct-order",)).run(plan)
        assert select.distinct and not unique_rows(select)
        assert not any(isinstance(s, GroupedBound) for s in select.scans)

    def test_a_cross_document_comparison(self, engine):
        """Without the same-document guard the join compares Dewey
        positions across documents: no per-document bound says that."""
        select = _planned(engine, self.XPATH)
        select.where.parts = [
            part
            for part in select.where.parts
            if not isinstance(part, DocEqCond)
        ]
        assert existential_context(select, "item_2") is None


# -- the bound keeps the joins linear --------------------------------------------

#: Q9, Q10, Q11 of XPathMark.
BOUNDED = {
    q.qid: q.xpath for q in XPATHMARK_QUERIES if q.qid in ("Q9", "Q10", "Q11")
}


def _vm_steps(db: Database, sql: str) -> int:
    """SQLite VM instructions ``sql`` takes."""
    steps = 0

    def tick() -> int:
        nonlocal steps
        steps += 1
        return 0

    connection: sqlite3.Connection = db.connection
    connection.set_progress_handler(tick, 1)
    try:
        connection.execute(sql).fetchall()
    finally:
        connection.set_progress_handler(None, 1)
    return steps


def _stores(growth: str) -> list[tuple[ShreddedStore, int]]:
    """Two stores, the second about four times the first, with their
    element counts: one document growing (XMark scale 1 → 4), or the
    number of small documents growing (8 → 32 at scale 0.1)."""
    if growth == "one-document":
        sets = [
            [generate_xmark(XMarkConfig(scale=scale, seed=42))]
            for scale in (1.0, 4.0)
        ]
    else:
        documents = [
            generate_xmark(XMarkConfig(scale=0.1, seed=seed))
            for seed in range(32)
        ]
        sets = [documents[:8], documents]
    stores = []
    for documents in sets:
        store = ShreddedStore.create(
            Database.memory(), infer_schema(documents)
        )
        store.bulk_load(documents)
        elements = sum(
            1 for document in documents for _ in document.root.iter()
        )
        stores.append((store, elements))
    return stores


@pytest.mark.parametrize("growth", ["one-document", "documents"])
def test_steps_grow_with_the_data_not_its_square(growth):
    """Each statement's VM steps grow within 1.5x the element-count
    ratio: the pairwise join grew 12x for Q11 as one document grew 3.8x,
    and scanning every document's bound per target row grew 7–12x as
    the documents went from 8 to 32.  SQLite neither dedupes in a temp
    B-tree nor builds an index over a relation; its one automatic index
    is over a bound's rows, one per document."""
    (small, small_elements), (large, large_elements) = _stores(growth)
    ratio = large_elements / small_elements
    assert ratio > 3
    for qid, xpath in BOUNDED.items():
        steps = [
            _vm_steps(store.db, PPFEngine(store).translate(xpath).sql)
            for store in (small, large)
        ]
        assert steps[1] <= 1.5 * ratio * steps[0], (qid, steps, ratio)
        for store in (small, large):
            detail = PPFEngine(store).query_plan(xpath)
            assert "USE TEMP B-TREE FOR DISTINCT" not in detail, qid
            automatic = [line for line in detail if "AUTOMATIC" in line]
            assert all("_bound USING" in line for line in automatic), qid
