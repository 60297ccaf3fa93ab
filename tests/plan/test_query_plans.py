"""What SQLite does with the XM25 statements (``EXPLAIN QUERY PLAN``).

The physical design is judged here, not in the translator's tests: the
``(doc_id, dewey_pos, path_id)`` index has to *deliver* document order
and bound every structural probe to one document, and a resolved path
filter has to leave no `Paths` row to join.  The checks read
``engine.query_plan`` — the same lines ``repro explain --plan`` prints —
on a one-document store, a four-document store and a store SQLite has
no ``sqlite_stat1`` for.
"""

from __future__ import annotations

import re

import pytest

from repro import Database, PPFEngine, ShreddedStore, infer_schema
from repro.workloads import XMarkConfig, generate_xmark
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES, XPATHMARK_QUERIES

XM25 = [(q.qid, q.xpath) for q in XPATHMARK_QUERIES + XPATHMARK_A_QUERIES]

#: Reviewed: the statements that may still sort their result.  Either a
#: UNION (Q13, Q22: the merge orders by every column, the index by two)
#: or a join whose output alias is not the outer loop — the selective
#: side drives and a handful of rows is sorted (Q9, Q10, Q21, A4–A8).
#: Everything else reads its rows off the index in document order.
MAY_SORT = {"Q9", "Q10", "Q13", "Q21", "Q22", "A4", "A5", "A6", "A7", "A8"}

_PATHS_ROW = re.compile(r"^(SCAN|SEARCH) \w+_paths\b")
_DEWEY_PROBE = re.compile(r"dewey_pos[<>]")


def _engine(documents, sqlite_stat1: bool) -> PPFEngine:
    store = ShreddedStore.create(Database.memory(), infer_schema(documents))
    store.bulk_load(documents)  # collects the path summary
    if sqlite_stat1:
        store.db.execute("ANALYZE")
    assert store.path_summary() is not None
    return PPFEngine(store)


@pytest.fixture(scope="module", params=["one-document", "four-documents", "no-sqlite_stat1"])
def engine(request, xmark_document):
    if request.param == "four-documents":
        documents = [
            generate_xmark(XMarkConfig(scale=0.3, seed=seed))
            for seed in (5, 6, 7, 8)
        ]
        return _engine(documents, sqlite_stat1=True)
    return _engine(
        [xmark_document], sqlite_stat1=request.param == "one-document"
    )


def test_order_comes_from_the_index(engine):
    sorting = {
        qid
        for qid, xpath in XM25
        if any(
            "TEMP B-TREE" in line and "ORDER BY" in line
            for line in engine.query_plan(xpath)
        )
    }
    assert sorting <= MAY_SORT, sorted(sorting - MAY_SORT)


def test_no_paths_row_is_joined_when_the_summary_is_exact(engine):
    for qid, xpath in XM25:
        translation = engine.translate(xpath)
        assert translation.plan_stats_after["paths_joins"] == 0, qid
        assert translation.path_filter_count() == 0, qid
        joined = [
            line for line in engine.query_plan(xpath) if _PATHS_ROW.match(line)
        ]
        assert not joined, (qid, joined)


def test_structural_probes_stay_inside_one_document(engine):
    probes = 0
    for qid, xpath in XM25:
        for line in engine.query_plan(xpath):
            assert "ANY(doc_id)" not in line, (qid, line)
            if _DEWEY_PROBE.search(line):
                probes += 1
                assert "(doc_id=? AND dewey_pos" in line, (qid, line)
    assert probes >= 10
