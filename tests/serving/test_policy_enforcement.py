"""Regression: the store's resilience limits must reach *every*
execution path, including the pooled one.

A pool constructed directly (``ConnectionPool(path, size)``) carries
the unlimited default policy; before the fix, ``_run_sql`` ran pooled
statements under *only* the pool connection's policy, so a
``--query-timeout`` on the store was silently dropped exactly on the
paths that use the pool.  Now the pooled path enforces the strictest of
the store's and the pool's limits."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import (
    ConnectionPool,
    Database,
    PPFEngine,
    QueryLimitError,
    QueryTimeoutError,
    ResiliencePolicy,
    ShreddedStore,
    infer_schema,
    parse_document,
)

_INFINITE = (
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
    "SELECT x, 1, x'00' FROM c"
)
XML = "<shop>" + "".join(
    f"<item sku='s{i}'><price>{i}</price></item>" for i in range(8)
) + "</shop>"


@pytest.fixture()
def limited_store(tmp_path):
    doc = parse_document(XML, name="shop")
    db = Database.open(
        str(tmp_path / "s.db"),
        policy=ResiliencePolicy(query_timeout=0.05),
    )
    store = ShreddedStore.create(db, infer_schema([doc]))
    store.load(doc)
    yield store
    db.close()


def unlimited_pool(store, size=2):
    """A pool built the 'naive' way: no policy, i.e. no limits."""
    pool = ConnectionPool(store.db.path, size=size)
    assert pool._all[0].policy.query_timeout is None
    return pool


def stub_translation(sql=_INFINITE):
    return SimpleNamespace(
        statement=object(),  # anything non-None and non-UnionStatement
        projection="nodes",
        expression="//stub",
        is_empty=False,
        sql=sql,
        parametrised_sql=sql,
        parameters=None,
    )


class TestPooledPolicyEnforcement:
    def test_run_sql_applies_store_timeout_on_unlimited_pool(
        self, limited_store
    ):
        engine = PPFEngine(limited_store)
        pool = unlimited_pool(limited_store)
        engine.attach_pool(pool)
        with pytest.raises(QueryTimeoutError):
            engine._run_sql(_INFINITE)
        pool.close()

    def test_execute_many_honours_store_timeout(self, limited_store):
        """The reported bug: `--query-timeout` dropped on a pooled
        execute_many when the pool had no policy of its own."""
        engine = PPFEngine(limited_store, result_cache_size=None)
        pool = unlimited_pool(limited_store)
        engine.attach_pool(pool)
        engine.translate = lambda expression: stub_translation()
        with pytest.raises(QueryTimeoutError):
            engine.execute_many(["//a", "//b"])
        pool.close()

    def test_strictest_of_pool_and_store_wins(self, tmp_path):
        """Symmetric case: the pool is stricter than the store."""
        doc = parse_document(XML, name="shop")
        db = Database.open(str(tmp_path / "loose.db"))
        store = ShreddedStore.create(db, infer_schema([doc]))
        store.load(doc)
        engine = PPFEngine(store)
        pool = ConnectionPool(
            db.path, size=1, policy=ResiliencePolicy(query_timeout=0.05)
        )
        engine.attach_pool(pool)
        with pytest.raises(QueryTimeoutError):
            engine._run_sql(_INFINITE)
        pool.close()
        db.close()

    def test_store_max_rows_enforced_on_pooled_path(self, tmp_path):
        doc = parse_document(XML, name="shop")
        db = Database.open(
            str(tmp_path / "rows.db"),
            policy=ResiliencePolicy(max_rows=3),
        )
        store = ShreddedStore.create(db, infer_schema([doc]))
        store.load(doc)
        engine = PPFEngine(store)
        pool = unlimited_pool(store)
        engine.attach_pool(pool)
        with pytest.raises(QueryLimitError):
            engine.execute("//item")
        pool.close()
        db.close()

    def test_unpooled_execution_unchanged(self, limited_store):
        """The store's own connection already enforced the limits."""
        engine = PPFEngine(limited_store)
        result = engine.execute("//item")
        assert len(result) == 8

    def test_strictest_helper(self):
        from repro.core.engine import SQLXPathEngine

        assert SQLXPathEngine._strictest(None, None) is None
        assert SQLXPathEngine._strictest(1.0, None) == 1.0
        assert SQLXPathEngine._strictest(None, 2.0) == 2.0
        assert SQLXPathEngine._strictest(3.0, 2.0) == 2.0
