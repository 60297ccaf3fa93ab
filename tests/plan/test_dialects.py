"""The SQLite dialect: the SQL fragments a logical plan lowers through."""

from repro import PPFEngine
from repro.plan import lower_plan
from repro.sqlgen import render_statement
from repro.sqlgen.dialect import DEFAULT_DIALECT, SQLiteDialect


class TestDialectPrimitives:
    def test_default_is_sqlite(self, figure1_store):
        assert isinstance(DEFAULT_DIALECT, SQLiteDialect)
        assert PPFEngine(figure1_store).translator.dialect is DEFAULT_DIALECT

    def test_regexp_call_shape(self):
        assert SQLiteDialect().regexp_match("p.path", "^/A") == (
            "regexp_like(p.path, '^/A')"
        )

    def test_identifier_quoting(self):
        dialect = SQLiteDialect()
        assert dialect.quote_identifier("plain_name") == "plain_name"
        assert dialect.quote_identifier("has space") == '"has space"'
        assert dialect.quote_identifier('has"quote') == '"has""quote"'

    def test_string_literal_quote_doubling(self):
        assert SQLiteDialect().string_literal("O'Brien") == "'O''Brien'"

    def test_doc_equality_hint(self):
        """No hint left: the guard is the plain equality the
        ``(doc_id, dewey_pos, path_id)`` index probe leads with."""
        assert SQLiteDialect().doc_equality("a", "b") == "a.doc_id = b.doc_id"
        assert not hasattr(SQLiteDialect, "indexed_column")

    def test_resolved_path_filters_test_the_path_id(self):
        dialect = SQLiteDialect()
        assert dialect.path_equality("B", "/A/B") == (
            "B.path_id = (SELECT id FROM paths WHERE path = '/A/B')"
        )
        assert dialect.path_membership("B", ("/A/B", "/A/it's")) == (
            "B.path_id IN (SELECT id FROM paths "
            "WHERE path IN ('/A/B', '/A/it''s'))"
        )

    def test_dewey_level(self):
        assert SQLiteDialect().dewey_level("F") == "length(F.dewey_pos)"


class TestPlanLowering:
    def test_sqlite_dialect_executes(self, figure1_store):
        """``lower_plan(plan, translator.dialect)`` — the call the
        per-layer benchmark makes — renders the engine's own SQL, and
        that SQL runs on the store."""
        engine = PPFEngine(figure1_store)
        translation = engine.translate("//G")
        statement = lower_plan(translation.plan, engine.translator.dialect)
        sql = render_statement(statement)
        assert "regexp_like" in sql
        assert sql == translation.sql
        ids = sorted(row[0] for row in figure1_store.db.query(sql))
        assert ids == sorted(engine.execute("//G").ids)
