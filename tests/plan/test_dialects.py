"""Dialect layer: the same logical plan lowers differently per backend."""

import pytest

from repro import PPFEngine
from repro.core.adapters import SchemaAwareAdapter
from repro.core.translator import PPFTranslator
from repro.plan import lower_plan
from repro.sqlgen.dialect import (
    DEFAULT_DIALECT,
    AnsiDialect,
    SQLiteDialect,
)


class TestDialectPrimitives:
    def test_default_is_sqlite(self):
        assert isinstance(DEFAULT_DIALECT, SQLiteDialect)
        assert DEFAULT_DIALECT.name == "sqlite"

    def test_regexp_call_shape(self):
        ansi = AnsiDialect()
        sqlite = SQLiteDialect()
        assert ansi.regexp_match("p.path", "^/A") == (
            "REGEXP_LIKE(p.path, '^/A')"
        )
        assert sqlite.regexp_match("p.path", "^/A") == (
            "regexp_like(p.path, '^/A')"
        )

    def test_identifier_quoting(self):
        dialect = AnsiDialect()
        assert dialect.quote_identifier("plain_name") == "plain_name"
        assert dialect.quote_identifier("has space") == '"has space"'
        assert dialect.quote_identifier('has"quote') == '"has""quote"'

    def test_string_literal_quote_doubling(self):
        assert AnsiDialect().string_literal("O'Brien") == "'O''Brien'"

    def test_doc_equality_hint(self):
        """No hint left: the guard is the plain equality the
        ``(doc_id, dewey_pos, path_id)`` index probe leads with."""
        for dialect in (AnsiDialect(), SQLiteDialect()):
            assert dialect.doc_equality("a", "b") == "a.doc_id = b.doc_id"
        assert not hasattr(AnsiDialect, "indexed_column")

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
        assert AnsiDialect().dewey_level("F") == "length(F.dewey_pos)"


class TestPlanLowering:
    def test_same_plan_two_dialects(self, figure1_store):
        """One optimized plan renders through both dialects; only the
        dialect-owned fragments differ."""
        adapter = SchemaAwareAdapter(figure1_store)
        translation = PPFTranslator(adapter).translate("//G")
        ansi_sql_statement = lower_plan(translation.plan, AnsiDialect())
        from repro.sqlgen import render_statement

        ansi_sql = render_statement(ansi_sql_statement)
        sqlite_sql = translation.sql
        assert "REGEXP_LIKE" in ansi_sql
        assert "regexp_like" in sqlite_sql
        assert ansi_sql.replace("REGEXP_LIKE", "regexp_like") == sqlite_sql

    def test_engine_dialect_parameter(self, figure1_store):
        """An engine built with the ANSI dialect emits ANSI SQL (it will
        not *execute* on SQLite's regexp_like registration, so only the
        translation is exercised)."""
        engine = PPFEngine(figure1_store, dialect=AnsiDialect())
        assert engine.translator.dialect.name == "ansi"
        assert "REGEXP_LIKE" in engine.translate("//G").sql

    def test_sqlite_dialect_executes(self, figure1_store):
        engine = PPFEngine(figure1_store, dialect=SQLiteDialect())
        assert sorted(engine.execute("//G").ids) == sorted(
            PPFEngine(figure1_store).execute("//G").ids
        )

    def test_dialect_in_fingerprint(self, figure1_store):
        sqlite_engine = PPFEngine(figure1_store)
        ansi_engine = PPFEngine(figure1_store, dialect=AnsiDialect())
        assert (
            sqlite_engine.translator.fingerprint
            != ansi_engine.translator.fingerprint
        )
