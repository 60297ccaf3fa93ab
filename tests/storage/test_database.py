"""Database wrapper tests: the regexp UDF, error wrapping, diagnostics."""

import pytest

from repro import Database, StorageError


@pytest.fixture()
def db():
    with Database.memory() as database:
        yield database


class TestRegexpFunctions:
    def test_regexp_like_matches(self, db):
        assert db.query_one("SELECT regexp_like('/A/B', '^/A/B$')")[0] == 1

    def test_regexp_like_rejects(self, db):
        assert db.query_one("SELECT regexp_like('/A/B', '^/A$')")[0] == 0

    def test_regexp_like_null_value(self, db):
        assert db.query_one("SELECT regexp_like(NULL, 'x')")[0] == 0

    def test_regexp_operator(self, db):
        assert db.query_one("SELECT '/A/B/C' REGEXP '/B/'")[0] == 1

    def test_paper_table1_patterns(self, db):
        cases = [
            ("/A/B/C", "^.*/B/C$", 1),
            ("/X/B/C", "^.*/B/C$", 1),
            ("/A/B/F", "^/A/B/(.+/)?F$", 1),
            ("/A/B/C/E/F", "^/A/B/(.+/)?F$", 1),
            ("/A/B", "^/A/B/(.+/)?F$", 0),
            ("/A/B/C/E/F", "^.*/C/[^/]+/F$", 1),
            ("/A/B/C/F", "^.*/C/[^/]+/F$", 0),
        ]
        for value, pattern, expected in cases:
            got = db.query_one(
                "SELECT regexp_like(?, ?)", (value, pattern)
            )[0]
            assert got == expected, (value, pattern)


class TestRegexpEdgeCases:
    def test_integer_value_coerced_to_text(self, db):
        assert db.query_one("SELECT regexp_like(42, '^42$')")[0] == 1
        assert db.query_one("SELECT regexp_like(42, '^43$')")[0] == 0

    def test_float_value_coerced_to_text(self, db):
        assert db.query_one("SELECT regexp_like(1.5, '^1\\.5$')")[0] == 1

    def test_bytes_value_decoded_as_utf8(self, db):
        got = db.query_one(
            "SELECT regexp_like(?, '^/A/B$')", (b"/A/B",)
        )[0]
        assert got == 1

    def test_undecodable_blob_never_matches(self, db):
        got = db.query_one("SELECT regexp_like(?, '.')", (b"\xff\xfe",))[0]
        assert got == 0

    def test_invalid_pattern_raises_storage_error_via_sql(self, db):
        with pytest.raises(StorageError):
            db.query_one("SELECT regexp_like('x', '[unclosed')")

    def test_invalid_pattern_raises_storage_error_directly(self):
        from repro.storage.database import _regexp_like

        with pytest.raises(StorageError, match="invalid regular expression"):
            _regexp_like("x", "(")

    def test_invalid_pattern_does_not_leak_re_error(self, db):
        import re

        try:
            db.query_one("SELECT regexp_like('x', '*bad')")
        except re.error:  # pragma: no cover - the failure being tested
            pytest.fail("re.error leaked through the SQLite boundary")
        except StorageError:
            pass

    def test_null_pattern_raises(self, db):
        with pytest.raises(StorageError):
            db.query_one("SELECT regexp_like('x', NULL)")

    def test_compiled_pattern_cache_reused(self, db):
        from repro.storage.database import _compiled

        _compiled.cache_clear()
        db.query("SELECT regexp_like('/A/B', '^/A/.*$')")
        before = _compiled.cache_info()
        db.query("SELECT regexp_like('/A/C', '^/A/.*$')")
        after = _compiled.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_compiled_cache_is_bounded(self):
        from repro.storage.database import _compiled

        assert _compiled.cache_info().maxsize == 512


class TestExecution:
    def test_query_and_query_one(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(1,), (2,)])
        assert db.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]
        assert db.query_one("SELECT MAX(x) FROM t") == (2,)

    def test_query_one_empty(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        assert db.query_one("SELECT x FROM t") is None

    def test_error_includes_sql(self, db):
        with pytest.raises(StorageError, match="SELECT broken"):
            db.query("SELECT broken FROM nowhere")

    def test_executescript(self, db):
        db.executescript("CREATE TABLE a (x); CREATE TABLE b (y);")
        assert set(db.table_names()) >= {"a", "b"}

    def test_query_plan(self, db):
        db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        plan = db.query_plan("SELECT * FROM t WHERE x = 5")
        assert plan  # at least one step

    def test_context_manager_closes(self):
        db = Database.memory()
        with db:
            db.execute("CREATE TABLE t (x)")
        with pytest.raises(StorageError):
            db.execute("SELECT 1")

    def test_open_file(self, tmp_path):
        path = str(tmp_path / "store.db")
        with Database.open(path) as db:
            db.execute("CREATE TABLE t (x)")
            db.commit()
        with Database.open(path) as db:
            assert "t" in db.table_names()


class TestErrorTruncation:
    def test_short_sql_embedded_fully(self, db):
        with pytest.raises(StorageError) as excinfo:
            db.query("SELECT broken FROM nowhere")
        assert "SELECT broken FROM nowhere" in str(excinfo.value)
        assert excinfo.value.sql == "SELECT broken FROM nowhere"

    def test_huge_sql_truncated_in_message(self, db):
        from repro.errors import SQL_PREVIEW_LIMIT

        filler = ", ".join(f"col_{i}" for i in range(100_000))
        sql = f"SELECT {filler} FROM nowhere"
        with pytest.raises(StorageError) as excinfo:
            db.query(sql)
        message = str(excinfo.value)
        assert len(message) < SQL_PREVIEW_LIMIT + 500
        assert "truncated" in message
        # The complete statement stays available for debugging.
        assert excinfo.value.sql == sql

    def test_plain_storage_error_has_no_sql(self):
        error = StorageError("no statement involved")
        assert error.sql is None
        assert "SQL was" not in str(error)


class TestOpenOptions:
    def test_read_only_rejects_writes(self, tmp_path):
        path = str(tmp_path / "store.db")
        with Database.open(path) as db:
            db.execute("CREATE TABLE t (x)")
            db.commit()
        with Database.open(path, read_only=True) as db:
            assert db.table_names() == ["t"]
            with pytest.raises(StorageError, match="readonly"):
                db.execute("INSERT INTO t VALUES (1)")

    def test_read_only_missing_file_raises(self, tmp_path):
        import sqlite3

        with pytest.raises(sqlite3.OperationalError):
            Database.open(str(tmp_path / "absent.db"), read_only=True)

    def test_check_same_thread_false_allows_cross_thread_use(self, tmp_path):
        import threading

        db = Database.open(
            str(tmp_path / "store.db"), check_same_thread=False
        )
        db.execute("CREATE TABLE t (x)")
        db.commit()
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(db.query("SELECT COUNT(*) FROM t"))
        )
        worker.start()
        worker.join()
        assert seen == [[(0,)]]

    def test_timeout_accepted(self, tmp_path):
        with Database.open(str(tmp_path / "store.db"), timeout=0.25) as db:
            assert db.query("SELECT 1") == [(1,)]

    def test_wal_mode_enabled_for_files(self, tmp_path):
        with Database.open(str(tmp_path / "store.db")) as db:
            mode = db.query_one("PRAGMA journal_mode")[0]
            assert mode == "wal"

    def test_wal_disabled_by_policy(self, tmp_path):
        from repro import ResiliencePolicy

        with Database.open(
            str(tmp_path / "store.db"), ResiliencePolicy(wal=False)
        ) as db:
            assert db.query_one("PRAGMA journal_mode")[0] == "delete"

    def test_concurrent_readers_share_a_wal_store(self, tmp_path):
        path = str(tmp_path / "store.db")
        with Database.open(path) as writer:
            writer.execute("CREATE TABLE t (x)")
            writer.executemany("INSERT INTO t VALUES (?)", [(1,), (2,)])
            writer.commit()
            reader = Database.open(path, read_only=True)
            assert reader.query("SELECT COUNT(*) FROM t") == [(2,)]
            reader.close()


class TestStatementCache:
    def test_a_churn_cycle_fits_the_statement_cache(self):
        """One ``load`` + ``delete_document`` + the queries between them
        on the XMark schema: every distinct statement text must fit the
        connection's compiled-statement cache, or each cycle compiles
        all of them again (and nothing says so)."""
        from repro import PPFEngine, ShreddedStore, infer_schema
        from repro.storage import database
        from repro.workloads import XMarkConfig, generate_xmark
        from repro.workloads.xpathmark import (
            XPATHMARK_A_QUERIES,
            XPATHMARK_QUERIES,
        )

        documents = [
            generate_xmark(XMarkConfig(scale=0.25, seed=seed))
            for seed in (3, 4)
        ]
        db = Database.memory()
        store = ShreddedStore.create(db, infer_schema(documents))
        store.bulk_load(documents[:1])
        engine = PPFEngine(store)
        texts = set()
        for name in ("_raw_execute", "_raw_executemany"):
            raw = getattr(db, name)

            def recording(sql, *args, _raw=raw):
                texts.add(sql)
                return _raw(sql, *args)

            setattr(db, name, recording)
        doc_id = store.load(documents[1])
        for query in (XPATHMARK_QUERIES + XPATHMARK_A_QUERIES)[:12]:
            engine.execute(query.xpath)
        store.delete_document(doc_id)
        relations = len(store.mapping.relations)
        assert relations > 60  # the vocabulary grows with the schema
        assert 3 * relations < len(texts) < database._CACHED_STATEMENTS
        db.close()
