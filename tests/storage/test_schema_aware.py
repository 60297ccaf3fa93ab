"""Schema-aware mapping and shredder tests (paper Section 3)."""

import pytest

from repro import (
    Database,
    ShreddedStore,
    StorageError,
    figure1_schema,
    parse_document,
)
from repro.dewey import decode
from repro.storage.schema_aware import SchemaAwareMapping, sanitize_identifier


class TestSanitizer:
    def test_plain_name_unchanged(self):
        assert sanitize_identifier("item", set()) == "item"

    def test_reserved_words_suffixed(self):
        taken = set()
        assert sanitize_identifier("to", taken) == "to_2"
        assert sanitize_identifier("from", taken) == "from_2"
        assert sanitize_identifier("order", taken) == "order_2"

    def test_meta_tables_protected(self):
        assert sanitize_identifier("paths", set()) == "paths_2"
        assert sanitize_identifier("edge", set()) == "edge_2"

    def test_bad_characters_replaced(self):
        assert sanitize_identifier("ns:tag-name", set()) == "ns_tag_name"

    def test_leading_digit_prefixed(self):
        assert sanitize_identifier("1st", set()).startswith("el_")

    def test_case_insensitive_collisions(self):
        taken = set()
        first = sanitize_identifier("Item", taken)
        second = sanitize_identifier("item", taken)
        assert first.lower() != second.lower()


class TestMapping:
    def test_relation_per_element(self):
        mapping = SchemaAwareMapping(figure1_schema())
        assert set(mapping.relations) == {"A", "B", "C", "D", "E", "F", "G"}

    def test_value_columns(self):
        mapping = SchemaAwareMapping(figure1_schema())
        a = mapping.relation_for("A")
        assert a.attr_columns["x"] == ("attr_x", "number")
        f = mapping.relation_for("F")
        assert f.text_kind == "number"
        assert mapping.relation_for("B").text_kind is None

    def test_ddl_contains_descriptors_and_indexes(self):
        statements = SchemaAwareMapping(figure1_schema()).ddl()
        ddl = "\n".join(statements)
        for column in ("id INTEGER PRIMARY KEY", "par_id", "path_id",
                       "dewey_pos BLOB", "doc_id"):
            assert column in ddl
        # Section 3.1 indexes: parent FK + the composite Dewey/path
        # index, led by doc_id so that it is document order.
        assert "ON A(par_id)" in ddl
        assert "ON A(doc_id, dewey_pos, path_id)" in ddl
        assert len(statements) == 3 * 7  # one table, two indexes each
        # Values are stored as the text the document had.
        assert "NUMERIC" not in ddl
        assert "text TEXT" in ddl and "attr_x TEXT" in ddl

    def test_relations_for_groups(self):
        mapping = SchemaAwareMapping(figure1_schema())
        infos = mapping.relations_for(["C", "G", "C"])
        assert sorted(info.table for info in infos) == ["C", "G"]

    def test_unknown_element_raises(self):
        from repro.errors import SchemaError

        mapping = SchemaAwareMapping(figure1_schema())
        with pytest.raises(SchemaError):
            mapping.relation_for("Z")


class TestShredding:
    def test_figure1_row_counts(self, figure1_store):
        assert figure1_store.relation_counts() == {
            "A": 1, "B": 2, "C": 2, "D": 1, "E": 1, "F": 2, "G": 3,
        }

    def test_figure1_descriptors_stored(self, figure1_store):
        rows = figure1_store.db.query(
            "SELECT id, par_id, dewey_pos FROM G ORDER BY id"
        )
        assert [(r[0], r[1], decode(r[2])) for r in rows] == [
            (9, 2, (1, 1, 3)),
            (11, 10, (1, 2, 1)),
            (12, 11, (1, 2, 1, 1)),
        ]

    def test_paths_relation_populated(self, figure1_store):
        paths = {p for (p,) in figure1_store.db.query("SELECT path FROM paths")}
        assert "/A/B/C/E/F" in paths
        assert "/A/B/G/G" in paths
        assert len(paths) == 8

    def test_values_stored_with_kinds(self, figure1_store):
        """A number-kinded value is stored as written, not as SQLite
        would normalise it; the kind only tells a comparison to cast."""
        rows = figure1_store.db.query("SELECT text FROM F ORDER BY id")
        assert rows == [("1",), ("2",)]
        (x,) = figure1_store.db.query_one("SELECT attr_x FROM D")
        assert x == "4"

    def test_total_elements(self, figure1_store):
        assert figure1_store.total_elements() == 12

    def test_nonconforming_document_rejected(self):
        store = ShreddedStore.create(Database.memory(), figure1_schema())
        with pytest.raises(StorageError):
            store.load(parse_document("<A><Z/></A>"))

    def test_multiple_documents_get_disjoint_ids(self):
        store = ShreddedStore.create(Database.memory(), figure1_schema())
        doc = parse_document("<A><B/></A>")
        store.load(doc)
        store.load(doc)
        ids = [i for (i,) in store.db.query("SELECT id FROM B ORDER BY id")]
        assert len(ids) == 2 and ids[0] != ids[1]

    def test_to_document_node_id(self):
        store = ShreddedStore.create(Database.memory(), figure1_schema())
        doc = parse_document("<A><B/></A>")
        doc_a = store.load(doc)
        doc_b = store.load(doc)
        assert store.to_document_node_id(1) == (doc_a, 1)
        assert store.to_document_node_id(3) == (doc_b, 1)
        assert store.doc_base(doc_b) == 2

    def test_to_document_node_id_out_of_range(self, figure1_store):
        with pytest.raises(StorageError):
            figure1_store.to_document_node_id(10_000)

    def test_empty_text_stored_as_null(self):
        store = ShreddedStore.create(Database.memory(), figure1_schema())
        store.load(parse_document("<A><B><C><E><F>1</F><F/></E></C></B></A>"))
        rows = store.db.query("SELECT text FROM F ORDER BY id")
        assert rows == [("1",), (None,)]
