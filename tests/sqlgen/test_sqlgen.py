"""SQL AST and renderer unit tests."""

import pytest

from repro.sqlgen import (
    And,
    Comparison,
    Exists,
    Not,
    Or,
    Raw,
    SelectStatement,
    UnionStatement,
    blob_literal,
    number_literal,
    render_condition,
    render_statement,
    string_literal,
)


class TestLiterals:
    def test_string_quoting(self):
        assert string_literal("plain") == "'plain'"
        assert string_literal("O'Neil") == "'O''Neil'"

    def test_numbers(self):
        assert number_literal(3.0) == "3"
        assert number_literal(3.5) == "3.5"
        assert number_literal(-2.0) == "-2"

    def test_blob(self):
        assert blob_literal(b"\x00\x01\xff") == "X'0001FF'"


class TestConditions:
    def test_raw_and_comparison(self):
        assert render_condition(Raw("a = b")) == "a = b"
        assert render_condition(Comparison("x", ">=", "3")) == "x >= 3"

    def test_empty_and_is_true(self):
        assert render_condition(And()) == "1=1"

    def test_empty_or_is_false(self):
        assert render_condition(Or()) == "1=0"

    def test_single_element_unwrapped(self):
        assert render_condition(And([Raw("a")])) == "a"
        assert render_condition(Or([Raw("a")])) == "a"

    def test_nesting_parenthesized(self):
        condition = Or([And([Raw("a"), Raw("b")]), Raw("c")])
        assert render_condition(condition) == "((a AND b) OR c)"

    def test_not(self):
        assert render_condition(Not(Raw("a = 1"))) == "NOT (a = 1)"

    def test_not_exists(self):
        sub = SelectStatement(columns=["1"])
        sub.add_table("t")
        rendered = render_condition(Not(Exists(sub)))
        assert rendered.startswith("NOT EXISTS (")

    def test_and_add_flattens(self):
        conjunction = And()
        conjunction.add(Raw("a"))
        conjunction.add(And([Raw("b"), Raw("c")]))
        conjunction.add(None)
        assert [part.sql for part in conjunction.parts] == ["a", "b", "c"]

    def test_and_add_flattens_recursively(self):
        conjunction = And()
        conjunction.add(And([Raw("a"), And([Raw("b"), And([Raw("c")])])]))
        assert [part.sql for part in conjunction.parts] == ["a", "b", "c"]
        assert render_condition(conjunction) == "(a AND b AND c)"

    def test_or_add_flattens(self):
        disjunction = Or()
        disjunction.add(Or([Raw("a"), Or([Raw("b")])]))
        disjunction.add(None)
        disjunction.add(Raw("c"))
        assert [part.sql for part in disjunction.parts] == ["a", "b", "c"]
        assert render_condition(disjunction) == "(a OR b OR c)"

    def test_mixed_nesting_not_flattened(self):
        conjunction = And()
        conjunction.add(Raw("a"))
        conjunction.add(Or([Raw("b"), Raw("c")]))
        assert render_condition(conjunction) == "(a AND (b OR c))"


class TestStatements:
    def test_basic_select(self):
        stmt = SelectStatement(columns=["t.id"], distinct=True)
        stmt.add_table("t")
        stmt.where.add(Raw("t.x = 1"))
        stmt.order_by = ["t.id"]
        sql = render_statement(stmt)
        assert sql == (
            "SELECT DISTINCT t.id\nFROM t\nWHERE t.x = 1\nORDER BY t.id"
        )

    def test_aliased_tables_cross_join(self):
        stmt = SelectStatement(columns=["*"])
        stmt.add_table("paths", "F_paths")
        stmt.add_table("F")
        assert "FROM paths F_paths CROSS JOIN F" in render_statement(stmt)

    def test_add_table_idempotent_per_alias(self):
        stmt = SelectStatement()
        stmt.add_table("t", "a")
        stmt.add_table("t", "a")
        assert len(stmt.tables) == 1

    def test_union_rendering(self):
        first = SelectStatement(columns=["1 AS x"])
        first.add_table("a")
        second = SelectStatement(columns=["2 AS x"])
        second.add_table("b")
        union = UnionStatement(branches=[first, second], order_by=["x"])
        sql = render_statement(union)
        assert sql.count("SELECT") == 2
        assert "UNION" in sql
        assert sql.endswith("ORDER BY x")

    def test_top_level_conjunction_unwrapped(self):
        stmt = SelectStatement(columns=["*"])
        stmt.add_table("t")
        stmt.where.add(Raw("a"))
        stmt.where.add(Raw("b"))
        sql = render_statement(stmt)
        assert "WHERE a AND b" in sql

    def test_exists_renders_inline(self):
        inner = SelectStatement(columns=["NULL"])
        inner.add_table("u")
        stmt = SelectStatement(columns=["*"])
        stmt.add_table("t")
        stmt.where.add(Exists(inner))
        sql = render_statement(stmt)
        assert "EXISTS (SELECT NULL" in sql

    def test_statement_executes_on_sqlite(self):
        import sqlite3

        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (id INTEGER, x INTEGER)")
        conn.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        stmt = SelectStatement(columns=["t.id AS id"], distinct=True)
        stmt.add_table("t")
        stmt.where.add(Raw("t.x > 15"))
        stmt.order_by = ["id"]
        rows = conn.execute(render_statement(stmt)).fetchall()
        assert rows == [(2,)]
