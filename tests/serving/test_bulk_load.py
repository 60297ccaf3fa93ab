"""The bulk-load fast path: equivalence with serial ``load`` loops,
rollback (rows *and* indexes) on mid-load failure, pragma restoration,
and the EdgeStore twin."""

from __future__ import annotations

import pytest

from repro import (
    Database,
    EdgePPFEngine,
    EdgeStore,
    FaultInjectingDatabase,
    FaultPlan,
    PPFEngine,
    ShreddedStore,
    StorageError,
    infer_schema,
    parse_document,
)

QUERIES = [
    "//book",
    "//book/title/text()",
    "//book[@id='b1-2']",
    "/lib/book/price",
]


def make_docs(n_docs: int = 3, books: int = 4):
    docs = []
    for d in range(n_docs):
        body = "".join(
            f"<book id='b{d}-{i}'><title>T{d}.{i}</title>"
            f"<price>{i + 1}</price></book>"
            for i in range(books)
        )
        docs.append(parse_document(f"<lib>{body}</lib>", name=f"lib{d}"))
    return docs


def index_names(db) -> set[str]:
    return {
        row[0]
        for row in db.query(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'index' AND name LIKE 'idx_%'"
        )
    }


class TestShreddedBulkLoad:
    def test_bulk_matches_serial_load(self):
        docs = make_docs()
        serial = ShreddedStore.create(Database.memory(), infer_schema(docs))
        for doc in docs:
            serial.load(doc)
        bulk = ShreddedStore.create(Database.memory(), infer_schema(docs))
        doc_ids = bulk.bulk_load(docs)

        assert doc_ids == [1, 2, 3]
        assert bulk.relation_counts() == serial.relation_counts()
        assert sorted(bulk.path_index.all_paths()) == sorted(
            serial.path_index.all_paths()
        )
        serial_engine, bulk_engine = PPFEngine(serial), PPFEngine(bulk)
        for query in QUERIES:
            expected = serial_engine.execute(query)
            got = bulk_engine.execute(query)
            assert got.ids == expected.ids
            assert got.values == expected.values

    def test_bulk_bumps_generation_once(self):
        docs = make_docs()
        store = ShreddedStore.create(Database.memory(), infer_schema(docs))
        before = store.generation
        store.bulk_load(docs)
        assert store.generation == before + 1

    def test_indexes_are_rebuilt(self):
        docs = make_docs()
        store = ShreddedStore.create(Database.memory(), infer_schema(docs))
        before = index_names(store.db)
        assert before  # the mapping DDL created secondary indexes
        store.bulk_load(docs)
        assert index_names(store.db) == before

    def test_pragmas_are_restored(self, tmp_path):
        docs = make_docs()
        db = Database.open(str(tmp_path / "bulk.db"))
        store = ShreddedStore.create(db, infer_schema(docs))
        synchronous = db.query_one("PRAGMA synchronous")[0]
        temp_store = db.query_one("PRAGMA temp_store")[0]
        store.bulk_load(docs)
        assert db.query_one("PRAGMA synchronous")[0] == synchronous
        assert db.query_one("PRAGMA temp_store")[0] == temp_store

    def test_midload_failure_rolls_everything_back(self):
        docs = make_docs()
        plan = FaultPlan()
        db = FaultInjectingDatabase.memory(plan)
        store = ShreddedStore.create(db, infer_schema(docs))
        store.load(docs[0])

        engine = PPFEngine(store, result_cache_size=None)
        counts = store.relation_counts()
        indexes = index_names(db)
        generation = store.generation
        expected = {q: engine.execute(q).ids for q in QUERIES}

        # Fires after the index drop and the first document's inserts.
        plan.script("error", match="UPDATE docs SET node_count")
        with pytest.raises(StorageError, match="disk I/O error"):
            store.bulk_load(docs[1:])

        assert store.relation_counts() == counts
        assert index_names(db) == indexes  # dropped indexes came back
        assert store.generation == generation
        assert list(store.documents) == [1]
        for query, ids in expected.items():
            assert engine.execute(query).ids == ids
        # The store still accepts loads through either path.
        assert store.load(docs[1]) == 2
        assert store.bulk_load([docs[2]]) == [3]

    def test_nonconforming_document_rejected_before_any_write(self):
        docs = make_docs()
        store = ShreddedStore.create(Database.memory(), infer_schema(docs))
        bad = parse_document("<zine><page/></zine>", name="zine")
        with pytest.raises(StorageError, match="conform"):
            store.bulk_load([docs[0], bad])
        assert store.relation_counts() == {
            table: 0 for table in store.relation_counts()
        }

    def test_empty_list_is_a_noop(self):
        docs = make_docs()
        store = ShreddedStore.create(Database.memory(), infer_schema(docs))
        generation = store.generation
        assert store.bulk_load([]) == []
        assert store.generation == generation


class TestEdgeBulkLoad:
    def test_bulk_matches_serial_load(self):
        docs = make_docs()
        serial = EdgeStore.create(Database.memory())
        for doc in docs:
            serial.load(doc)
        bulk = EdgeStore.create(Database.memory())
        doc_ids = bulk.bulk_load(docs)

        assert doc_ids == [1, 2, 3]
        for table in ("edge", "attrs"):
            assert (
                bulk.db.query_one(f"SELECT COUNT(*) FROM {table}")
                == serial.db.query_one(f"SELECT COUNT(*) FROM {table}")
            )
        serial_engine, bulk_engine = (
            EdgePPFEngine(serial),
            EdgePPFEngine(bulk),
        )
        for query in QUERIES:
            assert (
                bulk_engine.execute(query).ids
                == serial_engine.execute(query).ids
            )

    def test_midload_failure_rolls_everything_back(self):
        docs = make_docs()
        plan = FaultPlan()
        db = FaultInjectingDatabase.memory(plan)
        store = EdgeStore.create(db)
        store.load(docs[0])

        edges = db.query_one("SELECT COUNT(*) FROM edge")
        indexes = index_names(db)
        generation = store.generation

        plan.script("error", match="UPDATE docs SET node_count")
        with pytest.raises(StorageError, match="disk I/O error"):
            store.bulk_load(docs[1:])

        assert db.query_one("SELECT COUNT(*) FROM edge") == edges
        assert index_names(db) == indexes
        assert store.generation == generation
        assert store.bulk_load(docs[1:]) == [2, 3]

    def test_generation_and_pragma_restore(self, tmp_path):
        docs = make_docs()
        db = Database.open(str(tmp_path / "edge.db"))
        store = EdgeStore.create(db)
        synchronous = db.query_one("PRAGMA synchronous")[0]
        before = store.generation
        store.bulk_load(docs)
        assert store.generation == before + 1
        assert db.query_one("PRAGMA synchronous")[0] == synchronous
