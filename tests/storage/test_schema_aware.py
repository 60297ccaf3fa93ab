"""Schema-aware mapping and shredder tests (paper Section 3)."""

import pytest

from repro import (
    Database,
    NativeEngine,
    Schema,
    ShreddedStore,
    StorageError,
    figure1_schema,
    infer_schema,
    parse_document,
    parse_fragment,
)
from repro.dewey import codec, decode
from repro.errors import DeweyError
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


class TestStorability:
    """A load refuses, naming the node and the reason, what its rows
    could not hold, instead of storing the document without it."""

    @staticmethod
    def _store(xml: str) -> ShreddedStore:
        return ShreddedStore.create(
            Database.memory(), infer_schema([parse_document(xml)])
        )

    @staticmethod
    def _native(document, xpath: str) -> list[str]:
        return [node.value for node in NativeEngine(document).execute(xpath)]

    def test_undeclared_attribute_refused(self):
        store = self._store("<a><b k='1'>x</b></a>")
        xml = "<a><b k='2' extra='E'>y</b></a>"
        assert self._native(parse_document(xml), "//b/@extra") == ["E"]
        reason = (
            r"'extra\.xml' does not conform to the schema: \[attribute\] "
            r"node 2 at /a/b: attribute 'extra' is not declared for 'b'"
        )
        for method in (store.load, lambda d: store.bulk_load([d])):
            with pytest.raises(StorageError, match=reason):
                method(parse_document(xml, name="extra.xml"))
        assert store.total_elements() == 0
        assert store.generation == 0

    def test_text_without_column_refused(self):
        store = self._store("<a><c/></a>")
        xml = "<a><c>hello</c></a>"
        assert self._native(parse_document(xml), "//c/text()") == ["hello"]
        reason = (
            r"\[text\] node 2 at /a/c: 'c' is declared without text, "
            r"so 'hello' has no column"
        )
        for method in (store.load, lambda d: store.bulk_load([d])):
            with pytest.raises(StorageError, match=reason):
                method(parse_document(xml))
        assert store.total_elements() == 0

    def test_whitespace_only_text_is_no_data(self):
        """The parser drops whitespace-only text and inference ignores
        it, so a built tree that carries some still loads."""
        store = self._store("<a><c/></a>")
        document = parse_document("<a><c/></a>")
        document.root.element_children[0].append_text("\n  ")
        store.load(document)
        assert store.total_elements() == 2

    def test_fragment_refused_the_same_way(self):
        store = self._store("<a><b k='1'>x</b><c/></a>")
        store.load(parse_document("<a><b k='1'>x</b><c/></a>"))
        with pytest.raises(
            StorageError,
            match=r"fragment <c> under /a does not conform .*\[text\] "
            r"node 1 at /c",
        ):
            store.append_subtree(1, parse_fragment("<c>hello</c>"))
        with pytest.raises(
            StorageError, match=r"\[attribute\] node 1 at /b: attribute 'extra'"
        ):
            store.append_subtree(1, parse_fragment("<b extra='E'>y</b>"))
        with pytest.raises(StorageError, match=r"\[nesting\] node 1 at /a"):
            store.append_subtree(1, parse_fragment("<a/>"))
        assert store.generation == 1
        (new_id,) = store.append_subtree(1, parse_fragment("<b k='3'>z</b>"))
        assert store.db.query_one(
            "SELECT text, attr_k FROM b WHERE id = ?", (new_id,)
        ) == ("z", "3")

    def test_shared_relation_holds_what_any_of_its_names_declares(self):
        """Two names of one type share a relation, so each keeps the
        attributes and text either declares: exactly what the rows
        hold, wider than the declaration."""
        schema = Schema()
        schema.add_root("r")
        for name in ("p", "q"):
            schema.declare(name, type_name="T")
            schema.add_edge("r", name)
        schema["p"].add_attribute("k")
        schema["q"].text_kind = "string"
        store = ShreddedStore.create(Database.memory(), schema)
        document = parse_document("<r><p>text</p><q k='1'/></r>")
        assert not schema.conforms(document)
        store.load(document)
        assert store.db.query(
            "SELECT elname, text, attr_k FROM T ORDER BY id"
        ) == [("p", "text", None), ("q", None, "1")]

    def test_conforms_checks_attributes(self):
        schema = infer_schema([parse_document("<a><b k='1'>x</b></a>")])
        assert schema.conforms(parse_document("<a><b k='2'>y</b></a>"))
        assert not schema.conforms(parse_document("<a><b extra='E'/></a>"))


class TestDeweyOrdinalBound:
    """More element siblings than a Dewey component holds never reach
    the rows: a tree that has them is refused when it is indexed, so
    ``load`` / ``bulk_load`` never see one, and ``append_subtree``
    refuses the ordinal past the last child before its transaction.
    The real limit needs 8.4 M siblings; these run with it at 3."""

    def test_every_refused_call_leaves_the_store_as_it_was(self, monkeypatch):
        store = ShreddedStore.create(
            Database.memory(),
            infer_schema([parse_document("<r><c><d/></c></r>")]),
        )
        full = store.load(parse_document("<r><c/><c/><c/></r>"))
        roomy = store.load(parse_document("<r><c/></r>"))
        monkeypatch.setattr(codec, "MAX_ORDINAL", 3)

        def dump():
            return list(store.db.connection.iterdump()), store.generation

        before = dump()
        refused = [
            lambda: store.load(parse_document("<r><c/><c/><c/><c/></r>")),
            lambda: store.bulk_load(
                [
                    parse_document("<r><c/></r>"),
                    parse_document("<r><c><d/><d/><d/><d/></c></r>"),
                ]
            ),
            # The fourth child of a full root.
            lambda: store.append_subtree(
                store.doc_base(full) + 1, parse_fragment("<c/>")
            ),
            lambda: store.append_subtree(
                store.doc_base(roomy) + 1,
                parse_fragment("<c><d/><d/><d/><d/></c>"),
            ),
        ]
        for call in refused:
            with pytest.raises(DeweyError):
                call()
            assert dump() == before
            assert store.verify_integrity() == []
        (new_id,) = store.append_subtree(
            store.doc_base(roomy) + 1, parse_fragment("<c/>")
        )
        (dewey,) = store.db.query_one(
            "SELECT dewey_pos FROM c WHERE id = ?", (new_id,)
        )
        assert decode(dewey) == (1, 2)
