"""The join-graph proofs (``repro.plan.graph``) at their boundaries.

``unique_rows`` lets a select drop ``DISTINCT``; ``unique_rows`` plus
pairwise ``disjoint`` outputs let a union become ``UNION ALL``; and
``dedup-union-branches`` merges branches that differ only in the path
literals of their output scan.  Each rewrite is checked where it must
fire and where it must not, against the native oracle, row for row and
in order (a duplicate the result path was told not to look for shows
up as an extra row): PPF with statistics on and off under every pass
subset, a template hit and an inline translation, Edge, and a 2-shard
fleet driven both ways.
"""

from __future__ import annotations

import asyncio
import itertools
import random

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
from repro.plan.graph import JoinGraph, disjoint, union_all_sound, unique_rows
from repro.plan.nodes import PlanUnion
from repro.plan.passes import PASSES
from repro.serving.scatter import ServingConfig, ShardedEngine
from repro.serving.shards import ShardedStore
from repro.sqlgen.ast import UnionStatement

#: Outputs in different relations, with element, text() and @attr rows.
DIFFERENT_RELATIONS = [
    "//person | //item",
    "//person/name/text() | //item/payment/text()",
    "//person/@id | //item/@id",
]
#: One relation, path sets that are disjoint once resolved.
DISJOINT_PATHS = "//person/name | //item/name"
#: One relation, overlapping path sets: duplicates only UNION removes.
OVERLAPPING = "//item | /site/regions/namerica/item"
#: Same output scan, different predicates: never one select.
DIFFERENT_PREDICATES = "//item[@featured] | //item[payment]"
#: A shared relation (``Region`` holds three element names).
SHARED = [
    "/site/regions/namerica | /site/regions/europe",
    "//namerica | /site/regions/*",
]
#: FK chain from the output: the watch's one watches, its one person.
FK_FROM_OUTPUT = "/site/people/person/watches/watch"
FK_CHAIN = "/site/people/person[watches/watch]/name"
#: Joins pointing the other way: one output row per watch.  A single
#: ``parent::`` step is an FK edge from the watch up to the output; two
#: are one structural (ancestor) join.
FK_TOWARDS_OUTPUT = [
    "//watch/parent::watches",
    "//watch/parent::watches/parent::person",
]
#: Branches identical but for their path literals; with a literal of
#: their own (a template binds it twice, as two parameters).
MERGEABLE = [
    "/site/regions/namerica/item | /site/regions/samerica/item",
    "/site/regions/namerica/item[@id='item1']"
    " | /site/regions/samerica/item[@id='item1']",
]
CASES = (
    DIFFERENT_RELATIONS
    + [DISJOINT_PATHS, OVERLAPPING, DIFFERENT_PREDICATES]
    + SHARED
    + [FK_FROM_OUTPUT, FK_CHAIN]
    + FK_TOWARDS_OUTPUT
    + MERGEABLE
)

#: Every subset of the passes, in pipeline order.
SUBSETS = [
    names
    for size in range(len(PASSES) + 1)
    for names in itertools.combinations(PASSES, size)
]


def _document(seed: int):
    rng = random.Random(seed)
    items = itertools.count()
    people = []
    for number in range(rng.randint(2, 4)):
        watches = "".join(
            f'<watch open_auction="a{rng.randint(0, 5)}"/>'
            for _ in range(rng.randint(0, 3))
        )
        people.append(
            f'<person id="person{number}"><name>p{number}</name>'
            + (f"<watches>{watches}</watches>" if watches else "")
            + "</person>"
        )

    def region(name: str) -> str:
        body = []
        for _ in range(rng.randint(1, 3)):
            number = next(items)
            featured = ' featured="yes"' if rng.random() < 0.5 else ""
            payment = (
                f"<payment>pay{number}</payment>" if rng.random() < 0.5 else ""
            )
            body.append(
                f'<item id="item{number}"{featured}>'
                f"<name>i{number}</name>{payment}</item>"
            )
        return f"<{name}>{''.join(body)}</{name}>"

    regions = "".join(region(n) for n in ("namerica", "samerica", "europe"))
    return parse_document(
        f"<site><regions>{regions}</regions>"
        f"<people>{''.join(people)}</people></site>"
    )


@pytest.fixture(scope="module")
def documents():
    return [_document(seed) for seed in (1, 2, 3, 4)]


@pytest.fixture(scope="module")
def schema(documents):
    schema = infer_schema(documents)
    for name in ("namerica", "samerica", "europe"):
        schema.declare(name, type_name="Region")
    return schema


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


class TestEveryEngineMatchesTheOracle:
    def test_every_pass_subset(self, documents, store):
        answers = {xpath: expected(documents, xpath) for xpath in CASES}
        assert all(answers.values())
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
            # Another string of the same shape plans the template ...
            engine.translate(xpath.replace("item1", "item0"))
            hits = engine.cache_info().hits
            # ... that this one binds.
            assert answer(engine.execute(xpath).rows) == want, xpath
            assert engine.cache_info().hits == hits + 1, xpath

    def test_edge(self, documents):
        edge = EdgeStore.create(Database.memory())
        for document in documents:
            edge.load(document)
        engine = EdgePPFEngine(edge, result_cache_size=None)
        for xpath in CASES:
            got = answer(engine.execute(xpath).rows)
            assert got == expected(documents, xpath), xpath


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
        assert [
            answer(engine.execute(xpath).rows) for xpath in CASES
        ] == want

        async def gather():
            return await asyncio.gather(
                *(engine.execute_async(xpath) for xpath in CASES)
            )

        assert [answer(r.rows) for r in asyncio.run(gather())] == want
    finally:
        engine.close()
        store.close()


class TestWhereEachRewriteFires:
    """The default pipeline on a store with an exact summary."""

    @pytest.fixture(scope="class")
    def engine(self, documents, schema):
        return PPFEngine(_shredded(documents, schema, statistics=True))

    def test_union_all_over_disjoint_outputs(self, engine):
        for xpath in DIFFERENT_RELATIONS:
            translation = engine.translate(xpath)
            assert isinstance(translation.statement, UnionStatement), xpath
            assert translation.statement.all, xpath
            assert "\nUNION ALL\n" in translation.sql, xpath
            assert translation.distinct and translation.one_row_per_id

    def test_path_sets_prove_only_once_resolved(self, engine):
        """``//item/name`` has three paths: only the summary resolves
        it, after ``prune-distinct-order`` has run.  In the other order
        the two path sets are known, and disjoint."""
        assert not engine.translate(DISJOINT_PATHS).statement.all
        resolved_first = PPFEngine(
            engine.store,
            passes=("costed-access-strategy", "prune-distinct-order"),
        )
        translation = resolved_first.translate(DISJOINT_PATHS)
        assert translation.statement.all
        assert translation.one_row_per_id

    def test_union_stays_where_rows_can_repeat(self, engine):
        # A shared relation's name filter is no path set: its branches
        # are disjoint, but the proof does not read names.
        for xpath in [OVERLAPPING, DIFFERENT_PREDICATES] + SHARED:
            translation = engine.translate(xpath)
            assert isinstance(translation.statement, UnionStatement), xpath
            assert not translation.statement.all, xpath
            assert "UNION ALL" not in translation.sql, xpath
            assert not translation.one_row_per_id, xpath

    def test_distinct_follows_the_fk_direction(self, engine):
        for xpath in (FK_FROM_OUTPUT, FK_CHAIN):
            translation = engine.translate(xpath)
            assert not translation.statement.distinct, xpath
            assert unique_rows(translation.plan.root), xpath
            assert translation.one_row_per_id, xpath
        chain = engine.translate(FK_CHAIN).plan.root
        assert {e.kind for e in JoinGraph.of(chain).edges} == {"fk"}
        for xpath in FK_TOWARDS_OUTPUT:
            backwards = engine.translate(xpath)
            assert backwards.sql.startswith("SELECT DISTINCT"), xpath
            assert not unique_rows(backwards.plan.root), xpath
        upward = JoinGraph.of(engine.translate(FK_TOWARDS_OUTPUT[0]).plan.root)
        assert upward.output == "watches"
        assert [(e.kind, e.left, e.right) for e in upward.edges] == [
            ("fk", "watch", "watches")
        ]

    def test_branches_differing_in_path_literals_merge(self, engine):
        for xpath in MERGEABLE:
            translation = engine.translator.translate_inline(xpath)
            assert translation.branch_count() == 1, xpath
            assert "dedup-union-branches" in translation.fired_passes()
            assert "path IN ('/site/regions/namerica/item', " in (
                translation.sql
            )
            assert not translation.statement.distinct

    def test_template_parameters_keep_branches_apart(self, engine):
        """A template binds each literal as its own parameter, so the
        two predicates are not the same text and the branches stay
        apart; inline, they are one select."""
        template = engine.translate(MERGEABLE[1])
        assert template.parameters == {"v0": "item1", "v1": "item1"}
        assert template.branch_count() == 2
        assert template.statement.all and template.one_row_per_id
        inline = engine.translator.translate_inline(MERGEABLE[1])
        assert inline.branch_count() == 1

    def test_edge_proves_disjointness_only_from_paths(self, documents):
        edge = EdgeStore.create(Database.memory())
        for document in documents:
            edge.load(document)
        engine = EdgePPFEngine(edge)
        union = engine.translate("//person/@id | //item/@id").plan.root
        assert isinstance(union, PlanUnion) and not union.all
        first, second = union.branches
        assert JoinGraph.of(first).table(JoinGraph.of(first).output) == "edge"
        assert not disjoint(first, second)
        assert not union_all_sound(union.branches)
        merged = engine.translate(MERGEABLE[0])
        assert merged.branch_count() == 1
