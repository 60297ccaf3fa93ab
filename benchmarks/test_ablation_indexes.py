"""Ablation — the Section 3.1 relational indexes.

The paper's mapping maintains, per relation, the primary key, an index
on the parent FK and a composite ``(dewey_pos, path_id)`` index (led by
``doc_id`` here, DESIGN.md 4b).  This
bench measures the query set with and without the composite Dewey
indexes: the structural-join queries (Q6, Q7, Q-A) collapse without
them, which is exactly why Section 3.1 mandates the index.

A fresh store is built for this module (indexes are dropped and
recreated in place).
"""

from __future__ import annotations

import pytest

from repro import PPFEngine
from repro.bench.runner import build_xmark_bundle, run_query, time_engine
from repro.workloads import XPATHMARK_QUERIES

_SHOWCASES = ["Q6", "Q7", "QA", "Q3"]


@pytest.fixture(scope="module")
def bundle():
    return build_xmark_bundle(scale=6.0, seed=17)


def _dewey_indexes(store):
    return [
        row[0]
        for row in store.db.query(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name LIKE 'idx_%_dewey'"
        )
    ]


@pytest.fixture(scope="module")
def engines(bundle):
    return {"indexed": PPFEngine(bundle.store)}


def _drop_indexes(store):
    dropped = []
    for name in _dewey_indexes(store):
        row = store.db.query_one(
            "SELECT sql FROM sqlite_master WHERE name = ?", (name,)
        )
        dropped.append(row[0])
        store.db.execute(f"DROP INDEX {name}")
    store.db.commit()
    return dropped


def _restore_indexes(store, ddl_statements):
    for statement in ddl_statements:
        store.db.execute(statement)
    store.db.commit()


@pytest.mark.parametrize("qid", _SHOWCASES)
@pytest.mark.parametrize("variant", ["indexed", "unindexed"])
def test_ablation_index_query(benchmark, bundle, qid, variant):
    query = next(q for q in XPATHMARK_QUERIES if q.qid == qid)
    engine = PPFEngine(bundle.store)
    benchmark.group = f"ablation-index-{qid}"
    if variant == "unindexed":
        dropped = _drop_indexes(bundle.store)
        try:
            count = benchmark.pedantic(
                run_query, args=(engine, query.xpath), rounds=2, iterations=1
            )
        finally:
            _restore_indexes(bundle.store, dropped)
    else:
        count = benchmark.pedantic(
            run_query, args=(engine, query.xpath), rounds=2, iterations=1
        )
    assert count >= 0


def test_ablation_index_summary(benchmark, bundle):
    engine = PPFEngine(bundle.store)
    queries = [
        q for q in XPATHMARK_QUERIES if q.qid in ("Q6", "Q7", "QA")
    ]
    indexed = {}
    for query in queries:
        indexed[query.qid] = time_engine(engine, query.xpath, repeats=3)

    dropped = _drop_indexes(bundle.store)
    assert dropped, "expected composite dewey indexes to exist"
    try:
        unindexed = {
            query.qid: time_engine(engine, query.xpath, repeats=3)
            for query in queries
        }
    finally:
        _restore_indexes(bundle.store, dropped)

    benchmark.pedantic(
        run_query, args=(engine, queries[0].xpath), rounds=2, iterations=1
    )
    print()
    print("Section 3.1 ablation — composite (doc_id, dewey_pos, path_id) index:")
    total_indexed = 0.0
    total_unindexed = 0.0
    for qid in indexed:
        with_s, count_a = indexed[qid]
        without_s, count_b = unindexed[qid]
        assert count_a == count_b  # identical answers either way
        total_indexed += with_s
        total_unindexed += without_s
        print(
            f"  {qid}: {with_s * 1000:8.1f}ms indexed vs "
            f"{without_s * 1000:8.1f}ms without"
        )
    print(
        f"  total: {total_indexed * 1000:.1f}ms vs "
        f"{total_unindexed * 1000:.1f}ms"
    )
    # The structural-join queries must benefit substantially.
    assert total_indexed < total_unindexed
