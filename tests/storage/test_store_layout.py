"""The store layout across the physical-design change.

A store keeps the indexes and column types it was created with — there
is no migration — so a store laid out the way the previous commits did
(``(dewey_pos, path_id)`` index, ``NUMERIC`` value columns) has to keep
answering every statement the translator emits now.  And on a store
created now, the per-document statements of the write path have to
*search* the ``doc_id``-led index instead of scanning each relation.
"""

from __future__ import annotations

import pytest

from repro import Database, PPFEngine, ShreddedStore, infer_schema
from repro.storage.schema_aware import SchemaAwareMapping
from repro.workloads import XMarkConfig, generate_xmark
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES, XPATHMARK_QUERIES

XM25 = [(q.qid, q.xpath) for q in XPATHMARK_QUERIES + XPATHMARK_A_QUERIES]


_TABLE_DDL = SchemaAwareMapping._table_ddl
_INDEX_DDL = SchemaAwareMapping._index_ddl


def previous_table_ddl(mapping, info):
    """``_table_ddl`` before the value columns lost their ``NUMERIC``
    affinity."""
    table = _TABLE_DDL(mapping, info)
    if info.text_kind == "number":
        table = table.replace("text TEXT", "text NUMERIC")
    for column, kind in info.attr_columns.values():
        if kind == "number":
            table = table.replace(f"{column} TEXT", f"{column} NUMERIC")
    return table


def previous_index_ddl(mapping, info):
    """``_index_ddl`` before the composite index gained ``doc_id``."""
    return [
        statement.replace("(doc_id, dewey_pos, ", "(dewey_pos, ")
        for statement in _INDEX_DDL(mapping, info)
    ]


@pytest.fixture(scope="module")
def previous_layout_path(tmp_path_factory, xmark_document):
    """A file store created with the previous layout and bulk-loaded
    (so it carries an exact path summary), then closed."""
    path = str(tmp_path_factory.mktemp("layout") / "previous.db")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SchemaAwareMapping, "_table_ddl", previous_table_ddl)
        patch.setattr(SchemaAwareMapping, "_index_ddl", previous_index_ddl)
        with Database.open(path) as db:
            store = ShreddedStore.create(db, infer_schema([xmark_document]))
            store.bulk_load([xmark_document])
    return path


def test_previous_layout_store_opens_and_agrees_with_native(
    previous_layout_path, xmark_native
):
    with Database.open(previous_layout_path) as db:
        (index_sql,) = db.query_one(
            "SELECT sql FROM sqlite_master WHERE name = 'idx_keyword_dewey'"
        )
        assert index_sql.endswith("keyword(dewey_pos, path_id)")
        (table_sql,) = db.query_one(
            "SELECT sql FROM sqlite_master WHERE name = 'quantity'"
        )
        assert "text NUMERIC" in table_sql
        store = ShreddedStore.open(db)
        assert store.path_summary() is not None
        engine = PPFEngine(store, verify_plans=True)
        for qid, xpath in XM25:
            expected = [
                (node.node_id if hasattr(node, "node_id") else node.value)
                for node in xmark_native.execute(xpath)
            ]
            result = engine.execute(xpath)
            got = result.values if result.projection != "nodes" else result.ids
            assert got == expected, qid


def test_per_document_statements_search_the_doc_id_led_index():
    """``delete_document`` runs one ``DELETE … WHERE doc_id = ?`` and
    one ``GROUP BY`` (the statistics delta) per relation; each is an
    index range on a store created now, where it was a full scan."""
    documents = [
        generate_xmark(XMarkConfig(scale=0.2, seed=seed)) for seed in (3, 4)
    ]
    store = ShreddedStore.create(Database.memory(), infer_schema(documents))
    doc_ids = store.bulk_load(documents)
    statements: list[str] = []
    store.db.connection.set_trace_callback(statements.append)
    store.delete_document(doc_ids[0])
    store.db.connection.set_trace_callback(None)
    relations = set(store.mapping.relations)
    per_document = [
        s
        for s in statements
        if "GROUP BY t.path_id" in s
        or (s.startswith("DELETE FROM") and s.split()[2] in relations)
    ]
    assert len(per_document) == 2 * len(relations)
    for statement in per_document:
        table = statement.split(" FROM ")[1].split()[0]
        (first, *_) = store.db.query_plan(statement)
        assert first.startswith("SEARCH "), (statement, first)
        assert f"idx_{table}_dewey (doc_id=?)" in first, (statement, first)
    assert not store.statistics_stale
    assert store.path_summary().document_count == 1
