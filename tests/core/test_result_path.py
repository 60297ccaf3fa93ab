"""The result path (``repro.core.results``) against the code it replaced.

Until PR 17 every execution path wrapped each record, kept the first
row per id in a dict and ``sorted()`` the lot, whatever the plan had
already proved.  That procedure is kept *here* (``reference_rows``) and
every path — single store under every pass pipeline, Edge, accel, a
pooled connection, the native fallback, a 2-shard fleet driven both
ways — must return what it returns over the statement's raw records,
row for row: ids, document ids, Dewey keys and values.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses

import pytest

from repro import (
    AccelEngine,
    AccelStore,
    Database,
    EdgePPFEngine,
    EdgeStore,
    PPFEngine,
    ShreddedStore,
    infer_schema,
)
from repro.core.engine import ResultRow
from repro.core.results import in_document_order, merge_document_runs
from repro.plan.passes import PASSES
from repro.resilience.faults import FaultInjectingDatabase, FaultPlan
from repro.serving.ladder import ShardOutcome
from repro.serving.pool import ConnectionPool
from repro.serving.scatter import ServingConfig, ShardedEngine
from repro.serving.shards import ShardedStore
from repro.sqlgen.ast import UnionStatement
from repro.workloads import XMarkConfig, generate_xmark
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES, XPATHMARK_QUERIES

XM25 = [q.xpath for q in XPATHMARK_QUERIES + XPATHMARK_A_QUERIES]
#: Unions (explicit, schema-split, overlapping) and value projections.
EXTRA = [
    "//person/name | //item/name",
    "//item | /site/regions/*/item",
    "/site/*",
    "//item/*",
    "//item/name/text()",
    "//person/@id",
    "//item/name/text() | //person/name/text()",
    "//item/name/text() | /site/regions/*/item/name/text()",
    "//item/@id | //person/@id",
]
QUERIES = XM25 + EXTRA

#: ``passes=`` settings: the default pipeline, none, each pass alone.
PIPELINES = [None, ()] + [(name,) for name in PASSES]


def reference_rows(records, projection):
    """Wrap → first row per id → sort: the result path before PR 17,
    over ``(id, doc_id, dewey_pos[, value])`` records."""
    rows = []
    for record in records:
        value = None
        if projection != "nodes" and record[3] is not None:
            value = str(record[3])
        rows.append((record[0], record[1], bytes(record[2]), value))
    unique = {}
    for row in rows:
        unique.setdefault(row[0], row)
    return sorted(unique.values(), key=lambda row: (row[1], row[2]))


def as_tuples(result):
    assert type(result.rows) is list
    assert all(type(row) is ResultRow for row in result.rows)
    assert all(type(row.dewey_pos) is bytes for row in result.rows)
    return [tuple(row) for row in result.rows]


@pytest.fixture(scope="module")
def documents():
    docs = [
        generate_xmark(XMarkConfig(scale=0.3, seed=seed))
        for seed in (5, 6, 7, 8)
    ]
    for index, document in enumerate(docs):
        document.name = f"xmark{index}.xml"
    return docs


def _shredded(documents, db=None, statistics=False):
    store = ShreddedStore.create(
        db if db is not None else Database.memory(), infer_schema(documents)
    )
    for document in documents:
        store.load(document)
    if statistics:
        store.collect_statistics()
    return store


@pytest.fixture(scope="module")
def single(documents):
    """The oracle store: same documents, same load order — hence the
    same global ids — as the fleet below."""
    return PPFEngine(_shredded(documents), result_cache_size=None)


def check_against_statement(engine, xpath):
    """``engine.execute`` vs the reference over the statement's rows."""
    translation = engine.translate(xpath)
    if translation.is_empty:
        assert engine.execute(xpath).rows == []
        return 0
    records = engine.store.db.query(translation.sql)
    expected = reference_rows(records, translation.projection)
    assert as_tuples(engine.execute(xpath)) == expected, xpath
    return len(expected)


class TestSingleStore:
    @pytest.mark.parametrize("statistics", [False, True])
    @pytest.mark.parametrize("passes", PIPELINES, ids=str)
    def test_every_pipeline_matches_the_reference(
        self, documents, statistics, passes
    ):
        engine = PPFEngine(
            _shredded(documents, statistics=statistics),
            passes=passes,
            result_cache_size=None,
        )
        total = sum(check_against_statement(engine, q) for q in QUERIES)
        assert total > 1000

    def test_edge_matches_the_reference(self, documents):
        store = EdgeStore.create(Database.memory())
        for document in documents:
            store.load(document)
        engine = EdgePPFEngine(store, result_cache_size=None)
        assert sum(check_against_statement(engine, q) for q in QUERIES) > 1000

    def test_accel_matches_the_reference(self, documents):
        store = AccelStore.create(Database.memory())
        for document in documents:
            store.load(document)
        engine = AccelEngine(store)
        for xpath in EXTRA + ["//keyword", "//item[@featured='yes']"]:
            _, projection = engine.translator.translate(xpath)
            records = [
                (r[0], r[1], int(r[2]).to_bytes(8, "big"), *r[3:])
                for r in store.db.query(engine.explain(xpath))
            ]
            assert records
            assert as_tuples(engine.execute(xpath)) == reference_rows(
                records, projection
            ), xpath

    def test_parallel_branches_and_costed_explain(self, documents, tmp_path):
        """A pooled connection answers like the store's own; and the
        sibling branches of a UNION, which ``explain_costs`` runs one by
        one and concatenates without the union-level ORDER BY, are still
        counted duplicate-free."""
        store = _shredded(
            documents,
            Database.open(str(tmp_path / "pool.db"), check_same_thread=False),
        )
        engine = PPFEngine(store, passes=(), result_cache_size=None)
        fanned = 0
        with ConnectionPool.for_store(store, size=2) as pool:
            engine.attach_pool(pool)
            for xpath in QUERIES:
                translation = engine.translate(xpath)
                if translation.is_empty:
                    continue
                expected = reference_rows(
                    store.db.query(translation.sql), translation.projection
                )
                fanned += translation.branch_count() > 1
                assert as_tuples(engine.execute(xpath)) == expected, xpath
                report = engine.explain_costs(xpath)
                assert report.actual_rows == len(expected), xpath
                assert sum(report.branch_actual) >= len(expected)
            engine.detach_pool()
        assert fanned >= 5
        # The overlapping union returns the shared items once per branch.
        report = engine.explain_costs("//item | /site/regions/*/item")
        assert sum(report.branch_actual) == 2 * report.actual_rows
        store.db.close()

    def test_native_fallback_after_injected_timeout(self, documents):
        plan = FaultPlan()
        db = FaultInjectingDatabase.memory(plan)
        store = _shredded(documents, db)
        expected = {
            xpath: as_tuples(PPFEngine(store).execute(xpath))
            for xpath in EXTRA
        }
        db.policy = db.policy.replace(query_timeout=0.02)
        plan.script("delay", match="SELECT", times=1000, seconds=0.05)
        engine = PPFEngine(store, fallback=True, result_cache_size=None)
        for xpath in EXTRA:
            result = engine.execute(xpath)
            assert result.served_by == "native"
            assert as_tuples(result) == expected[xpath], xpath

    def test_iterate_streams_the_statement_order(self, single):
        for xpath in ("//keyword", "//item/name/text()"):
            assert list(single.iterate(xpath)) == single.execute(xpath).rows


class TestPlanClaims:
    def test_every_xm25_translation_is_ordered_and_distinct(self, documents):
        edge = EdgeStore.create(Database.memory())
        edge.load(documents[0])
        engines = [
            PPFEngine(_shredded(documents[:1], statistics=stats), passes=p)
            for stats in (False, True)
            for p in PIPELINES
        ] + [EdgePPFEngine(edge)]
        checked = 0
        for engine in engines:
            for xpath in QUERIES:
                translation = engine.translate(xpath)
                if translation.is_empty:
                    continue
                checked += 1
                assert translation.ordered and translation.distinct, xpath
                assert translation.one_row_per_id == (
                    not isinstance(translation.statement, UnionStatement)
                )
        assert checked > 500

    def test_claims_are_read_off_the_statement(self, single):
        """``ordered`` / ``distinct`` are not constructor arguments: a
        statement without the clause cannot be declared ordered, and
        the result path then sorts."""
        translation = single.translate("//keyword")
        with pytest.raises(TypeError):
            dataclasses.replace(translation, ordered=True)
        statement = copy.deepcopy(translation.statement)
        statement.order_by = ["dewey_pos"]
        statement.distinct = False
        bare = dataclasses.replace(
            translation, statement=statement, plan=None
        )
        assert not bare.ordered and not bare.distinct
        assert not bare.one_row_per_id

    def test_sql_is_rendered_once(self, single):
        translation = single.translate("//keyword")
        assert translation.sql is translation.sql
        assert translation.sql.endswith("ORDER BY doc_id, dewey_pos")

    def test_unproved_order_or_uniqueness_is_repaired(self):
        shuffled = [
            ResultRow(3, 2, b"\x01"),
            ResultRow(1, 1, b"\x02"),
            ResultRow(3, 2, b"\x01", value="again"),
            ResultRow(2, 1, b"\x01\x05"),
        ]
        assert in_document_order(
            list(shuffled), ordered=False, distinct=False
        ) == [shuffled[3], shuffled[1], shuffled[0]]
        assert in_document_order(
            list(shuffled), ordered=True, distinct=False
        ) == [shuffled[0], shuffled[1], shuffled[3]]
        assert in_document_order(
            list(shuffled), ordered=True, distinct=True
        ) == shuffled


class TestResultRow:
    def test_is_an_immutable_hashable_tuple(self):
        row = ResultRow(1, 1, b"\x01", value="x")
        assert row == (1, 1, b"\x01", "x")
        assert ResultRow(1, 1, b"\x01") == (1, 1, b"\x01", None)
        row_id, doc_id, dewey_pos, value = row
        assert (row_id, doc_id, dewey_pos, value) == (1, 1, b"\x01", "x")
        assert (row.id, row.doc_id, row.dewey_pos, row.value) == tuple(row)
        assert len({row, ResultRow(1, 1, b"\x01", "x")}) == 1
        with pytest.raises(AttributeError):
            row.id = 2
        with pytest.raises(AttributeError):
            row.other = 2


# -- the fleet ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet(documents, tmp_path_factory):
    store = ShardedStore.create(
        str(tmp_path_factory.mktemp("fleet") / "shards"),
        infer_schema(documents),
        shards=2,
    )
    store.bulk_load(documents)
    engine = ShardedEngine.serve(
        store,
        config=ServingConfig(deadline=30.0, result_cache_size=None),
        replicas=1,
    )
    yield store, engine
    engine.close()
    store.close()


@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
class TestFleet:
    def test_global_document_order_interleaves_the_shards(self, fleet):
        store, _ = fleet
        shards = [entry.shard for entry in store.doc_entries]
        assert shards != sorted(shards) and set(shards) == {0, 1}

    def test_sync_and_async_match_the_single_store(self, fleet, single):
        _, engine = fleet
        expected = [as_tuples(single.execute(q)) for q in QUERIES]
        assert sum(map(len, expected)) > 1000
        for xpath, rows in zip(QUERIES, expected):
            result = engine.execute(xpath)
            assert result.complete and result.served_by == "shards"
            assert as_tuples(result) == rows, xpath
        batch = engine.execute_many(QUERIES)
        assert [as_tuples(result) for result in batch] == expected

        async def gather():
            return await asyncio.gather(
                *(engine.execute_async(q) for q in QUERIES)
            )

        answers = asyncio.run(gather())
        assert [as_tuples(result) for result in answers] == expected

    @staticmethod
    def _outcomes(store, engine, xpath):
        translation = engine.translate(xpath)
        return translation, [
            ShardOutcome(
                shard, rows=store.shard_store(shard).db.query(translation.sql)
            )
            for shard in range(store.shard_count)
        ]

    def test_partial_results_stay_ordered(self, fleet, single):
        store, engine = fleet
        for xpath in ("//keyword", "//item/name/text() | //person/name/text()"):
            translation, outcomes = self._outcomes(store, engine, xpath)
            outcomes[0] = ShardOutcome(0, kind="deadline", error="scripted")
            result = engine._merge(translation, outcomes)
            assert not result.complete and result.failed_shards == [0]
            survivors = {
                entry.doc_id for entry in store.doc_entries if entry.shard == 1
            }
            assert as_tuples(result) == [
                row
                for row in as_tuples(single.execute(xpath))
                if row[1] in survivors
            ]

    def test_registry_mismatch_shard_is_discarded_and_flagged(
        self, fleet, single
    ):
        store, engine = fleet
        translation, outcomes = self._outcomes(store, engine, "//keyword")
        # Shard 1 attributes its last rows to a document nobody loaded.
        rows = outcomes[1].rows
        outcomes[1].rows = rows[:-3] + [
            (record[0], 99, *record[2:]) for record in rows[-3:]
        ]
        result = engine._merge(translation, outcomes)
        assert not result.complete and result.failed_shards == [1]
        assert outcomes[1].kind == "registry-mismatch"
        assert "local doc 99" in outcomes[1].error
        kept = {entry.doc_id for entry in store.doc_entries if entry.shard == 0}
        assert as_tuples(result) == [
            row
            for row in as_tuples(single.execute("//keyword"))
            if row[1] in kept
        ]

    @pytest.mark.parametrize(
        "xpath, reshape",
        [
            # A value column on a ``nodes`` projection, none on ``text``.
            ("//keyword", lambda record: (*record, "x")),
            ("//item/name/text()", lambda record: record[:3]),
            ("//keyword", lambda record: record[:1]),
        ],
    )
    def test_malformed_shard_response_is_discarded_and_flagged(
        self, fleet, single, xpath, reshape
    ):
        store, engine = fleet
        translation, outcomes = self._outcomes(store, engine, xpath)
        outcomes[1].rows = [reshape(record) for record in outcomes[1].rows]
        result = engine._merge(translation, outcomes)
        assert not result.complete and result.failed_shards == [1]
        assert outcomes[1].kind == "malformed-response"
        assert "shard 1" in outcomes[1].error
        kept = {entry.doc_id for entry in store.doc_entries if entry.shard == 0}
        assert as_tuples(result) == [
            row
            for row in as_tuples(single.execute(xpath))
            if row[1] in kept
        ]

    def test_a_document_split_over_two_runs_falls_back_to_the_sort(self):
        first = [ResultRow(10, 2, b"\x01"), ResultRow(12, 2, b"\x03")]
        again = [ResultRow(11, 2, b"\x02")]
        other = [ResultRow(1, 1, b"\x01")]
        merged = merge_document_runs(
            [(2, first), (1, other), (2, again)], ordered=True, distinct=True
        )
        assert [row.id for row in merged] == [1, 10, 11, 12]
        assert merge_document_runs(
            [(2, first), (1, other)], ordered=True, distinct=True
        ) == other + first
        # Runs the shards did not order themselves are sorted as well.
        assert merge_document_runs(
            [(2, first[::-1]), (1, other)], ordered=False, distinct=True
        ) == other + first
