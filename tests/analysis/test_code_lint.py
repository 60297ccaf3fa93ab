"""CodeLinter: the ast-based project rules, and their pragmas."""

import textwrap

from repro.analysis import CodeLinter, lint_code


def lint_text(source, filename="example.py"):
    return CodeLinter().lint_source(textwrap.dedent(source), filename)


def codes(report):
    return sorted({finding.code for finding in report})


class TestRawSqlite:
    def test_raw_connect_flagged(self):
        report = lint_text(
            """
            import sqlite3
            conn = sqlite3.connect("store.db")
            """
        )
        assert codes(report) == ["CA001"]

    def test_facade_file_is_exempt(self):
        report = lint_text(
            """
            import sqlite3
            conn = sqlite3.connect("store.db")
            """,
            filename="src/repro/storage/database.py",
        )
        assert report.ok

    def test_fault_injection_is_exempt(self):
        report = lint_text(
            "import sqlite3\nc = sqlite3.connect(':memory:')\n",
            filename="src/repro/resilience/faults.py",
        )
        assert report.ok

    def test_error_types_are_fine(self):
        report = lint_text(
            """
            import sqlite3
            try:
                pass
            except sqlite3.OperationalError:
                pass
            """
        )
        assert report.ok


class TestSqlInterpolation:
    def test_fstring_sql_flagged(self):
        report = lint_text(
            """
            def f(db, table):
                db.execute(f"SELECT * FROM {table}")
            """
        )
        assert codes(report) == ["CA002"]

    def test_percent_format_flagged(self):
        report = lint_text(
            """
            def f(db, table):
                db.query("SELECT * FROM %s" % table)
            """
        )
        assert codes(report) == ["CA002"]

    def test_str_format_flagged(self):
        report = lint_text(
            """
            def f(db, table):
                db.query_one("SELECT * FROM {}".format(table))
            """
        )
        assert codes(report) == ["CA002"]

    def test_bind_parameters_are_fine(self):
        report = lint_text(
            """
            def f(db, value):
                db.execute("SELECT * FROM t WHERE x = ?", (value,))
            """
        )
        assert report.ok

    def test_plain_fstring_without_placeholder_is_fine(self):
        report = lint_text(
            """
            def f(db):
                db.execute(f"SELECT 1")
            """
        )
        assert report.ok

    def test_pragma_suppresses(self):
        report = lint_text(
            """
            def f(db, table):
                db.execute(f"SELECT * FROM {table}")  # static-ok: sql-interp
            """
        )
        assert report.ok


class TestGenerationBump:
    STORE_TEMPLATE = """
        class Store:
            def _mutation(self):
                self.generation += 1

            def delete_row(self, row_id):{pragma}
                {scope}:
                    self.db.execute("DELETE FROM t WHERE id = ?", (row_id,))

            def rename(self, row_id, name):
                with self._mutation() as mutation:
                    if name:
                        self.db.execute(
                            "UPDATE t SET name = ? WHERE id = ?",
                            (name, row_id),
                        )

            @classmethod
            def create(cls, db):
                db.execute("INSERT INTO meta VALUES (1)")
                return cls()
    """

    def test_mutation_without_bump_flagged(self):
        report = lint_text(
            self.STORE_TEMPLATE.format(pragma="", scope="if row_id")
        )
        assert codes(report) == ["CA003"]
        assert "delete_row" in report.findings[0].message

    def test_mutation_with_bump_is_fine(self):
        report = lint_text(
            self.STORE_TEMPLATE.format(
                pragma="", scope="with self._mutation()"
            )
        )
        assert report.ok

    def test_pragma_suppresses(self):
        report = lint_text(
            self.STORE_TEMPLATE.format(
                pragma="  # static-ok: generation-bump", scope="if row_id"
            )
        )
        assert report.ok

    def test_a_class_that_enters_the_protocol_anywhere_is_held_to_it(self):
        report = lint_text(
            """
            class Derived(Base):
                def touch(self, row_id):
                    with self._mutation():
                        self.db.execute("UPDATE t SET n = n + 1")

                def purge(self):
                    self.db.execute("DELETE FROM t")
                    with self._mutation():
                        pass
            """
        )
        assert codes(report) == ["CA003"]
        assert "purge" in report.findings[0].message

    def test_classes_without_generations_are_ignored(self):
        report = lint_text(
            """
            class Plain:
                def delete_row(self, db, row_id):
                    db.execute("DELETE FROM t WHERE id = ?", (row_id,))
            """
        )
        assert report.ok

    def test_select_only_methods_are_fine(self):
        report = lint_text(
            """
            class Store:
                def _mutation(self):
                    pass

                def count(self):
                    return self.db.query_one("SELECT COUNT(*) FROM t")
            """
        )
        assert report.ok


class TestRepositoryIsClean:
    def test_src_tree_has_no_findings(self):
        report = lint_code(["src"])
        assert report.ok, report.render_text()
        assert len(report) == 0

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_code([bad])
        assert codes(report) == ["CA000"]


class TestPragmaEdgeCases:
    """`# static-ok:` behaviour shared across CA001-CA003."""

    def test_literal_code_works_like_alias(self):
        report = lint_text(
            """
            import sqlite3

            def connect(path):
                return sqlite3.connect(path)  # static-ok: CA001
            """
        )
        assert report.ok

    def test_raw_sqlite_alias_suppresses(self):
        report = lint_text(
            """
            import sqlite3

            def connect(path):
                return sqlite3.connect(path)  # static-ok: raw-sqlite
            """
        )
        assert report.ok

    def test_one_comment_suppresses_multiple_codes(self):
        report = lint_text(
            """
            import sqlite3

            def probe(path, table):
                conn = sqlite3.connect(path)  # static-ok: CA001, CA002
                return conn.execute(f"SELECT * FROM {table}")
            """
        )
        # CA001 is on the pragma line; the CA002 half of the comment
        # applies to line 5 only, so the interpolated SQL on line 6
        # still fires.
        assert codes(report) == ["CA002"]

    def test_multi_code_comment_suppresses_both_on_one_line(self):
        report = lint_text(
            """
            import sqlite3

            def probe(path, table):
                return sqlite3.connect(path).execute(f"SELECT {table}")  # static-ok: CA001, CA002
            """
        )
        assert report.ok

    def test_justification_text_after_alias_is_allowed(self):
        report = lint_text(
            """
            import sqlite3

            def connect(path):
                return sqlite3.connect(path)  # static-ok: raw-sqlite bootstrap shim, reviewed 2026-08
            """
        )
        assert report.ok

    def test_wrong_code_does_not_suppress_other_rule(self):
        report = lint_text(
            """
            import sqlite3

            def connect(path):
                return sqlite3.connect(path)  # static-ok: sql-interp
            """
        )
        assert codes(report) == ["CA001"]

    def test_unknown_token_is_ignored(self):
        report = lint_text(
            """
            import sqlite3

            def connect(path):
                return sqlite3.connect(path)  # static-ok: because-i-said-so
            """
        )
        assert codes(report) == ["CA001"]

    def test_generation_bump_pragma_on_decorator_line(self):
        report = lint_text(
            """
            def audited(fn):
                return fn

            class Store:
                def _mutation(self):
                    self.generation += 1

                @audited  # static-ok: generation-bump
                def purge(self):
                    self.db.execute("DELETE FROM t")
            """
        )
        assert report.ok

    def test_sql_interp_pragma_on_with_header_not_body(self):
        # The pragma anchors to the execute() call line: placing it on
        # the `with` header suppresses the header call but not a second
        # interpolated call in the body.
        report = lint_text(
            """
            def f(db, table):
                with db.execute(f"SELECT {table}"):  # static-ok: sql-interp
                    db.execute(f"DELETE {table}")
            """
        )
        assert codes(report) == ["CA002"]
        assert report.findings[0].subject.endswith(":4")

    def test_pragma_on_unrelated_line_does_not_leak(self):
        report = lint_text(
            """
            import sqlite3

            def connect(path):
                marker = True  # static-ok: raw-sqlite
                return sqlite3.connect(path)
            """
        )
        assert codes(report) == ["CA001"]
