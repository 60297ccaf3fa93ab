"""Statistics lifecycle against a real store: collection at shred time,
incremental maintenance parity, staleness, and the cache-invalidation
chain through the engine."""

import pytest

from repro import Database, PPFEngine, ShreddedStore, infer_schema
from repro.plan.passes import PASSES
from repro.stats.maintenance import collect_summary
from repro.xmltree.parser import parse_document


def _doc(name: str, people: int, items: int = 1):
    persons = "".join(
        f'<person id="p{i}"><name>n{i}</name></person>'
        for i in range(people)
    )
    parts = "".join(f'<item id="i{i}"><name>x</name></item>'
                    for i in range(items))
    return parse_document(
        f"<site><people>{persons}</people>"
        f"<regions>{parts}</regions></site>",
        name=name,
    )


def _store(documents, bulk: bool = True):
    store = ShreddedStore.create(
        Database.memory(), infer_schema(documents)
    )
    if bulk:
        store.bulk_load(documents)
    else:
        for document in documents:
            store.load(document)
    return store


def _recomputed(store):
    """A from-scratch summary at the maintained summary's version."""
    maintained = store.path_summary()
    assert maintained is not None
    return collect_summary(store.db, store.mapping, maintained.version)


class TestLifecycle:
    def test_bulk_load_collects_at_shred_time(self):
        store = _store([_doc("a.xml", 3)])
        summary = store.path_summary()
        assert summary is not None
        assert not store.statistics_stale
        assert summary.count_for("/site/people/person") == 3

    def test_plain_load_stays_statistics_free(self):
        store = _store([_doc("a.xml", 3)], bulk=False)
        assert store.path_summary() is None
        assert store.stats_version is None
        assert store.statistics_stale

    def test_incremental_load_matches_full_recompute(self):
        store = _store([_doc("a.xml", 3)])
        store.load(_doc("b.xml", 5, items=2))
        maintained = store.path_summary()
        assert maintained is not None
        assert not store.statistics_stale
        recomputed = _recomputed(store)
        assert maintained.stats == recomputed.stats
        assert dict(maintained.relation_counts) == dict(
            recomputed.relation_counts
        )
        assert maintained.document_count == recomputed.document_count

    def test_delete_matches_full_recompute(self):
        store = _store([_doc("a.xml", 3), _doc("b.xml", 5, items=2)])
        store.delete_document(1)
        maintained = store.path_summary()
        assert maintained is not None
        assert not store.statistics_stale
        recomputed = _recomputed(store)
        assert maintained.stats == recomputed.stats
        assert dict(maintained.relation_counts) == dict(
            recomputed.relation_counts
        )
        assert maintained.document_count == recomputed.document_count

    def test_collect_bumps_epoch_and_clears_staleness(self):
        store = _store([_doc("a.xml", 2)])
        first = store.stats_version
        assert first is not None
        store.collect_statistics()
        second = store.stats_version
        assert second is not None
        assert second[0] == first[0] + 1
        assert not store.statistics_stale

    def test_summary_survives_reopen(self):
        db = Database.memory()
        documents = [_doc("a.xml", 4)]
        store = ShreddedStore.create(db, infer_schema(documents))
        store.bulk_load(documents)
        expected = store.path_summary()
        assert expected is not None
        reopened = ShreddedStore.open(db)
        summary = reopened.path_summary()
        assert summary is not None
        assert summary.version == expected.version
        assert summary.stats == expected.stats


class TestCacheInvalidation:
    def test_store_mutation_invalidates_cached_plan_and_rows(self):
        store = _store([_doc("a.xml", 3)])
        # Without the marking's regex→equality rule the filter is
        # resolved from the summary, so the plan has a read to lose.
        engine = PPFEngine(
            store,
            passes=[n for n in PASSES if n != "regex-to-equality"],
        )
        expression = "//person/name"
        first = engine.execute(expression)
        assert len(first) == 3
        plan = engine.translate(expression)
        (read,) = plan.summary_reads
        assert read.listed == {"/site/people/person/name"}
        assert plan.held_version == plan.stats_version == store.stats_version

        # Mutating the store bumps the generation and (through
        # incremental maintenance) the statistics version.  The result
        # cache must miss: the rows are another state's.  The plan is
        # served again, but only because what it read from the summary
        # still holds under the new one — and it says so.
        store.load(_doc("b.xml", 2))
        second = engine.execute(expression)
        assert len(second) == 5
        assert engine.translate(expression) is plan
        assert read.holds(store.path_summary())
        assert plan.held_version == store.stats_version != plan.stats_version
        assert engine.cache_info().misses == 1

    def test_collecting_statistics_invalidates_translation(self):
        store = _store([_doc("a.xml", 3)], bulk=False)
        engine = PPFEngine(store)
        expression = "//person"
        without_stats = engine.translate(expression)
        assert without_stats.estimated_rows is None
        store.collect_statistics()
        with_stats = engine.translate(expression)
        assert with_stats.estimated_rows is not None
        assert with_stats.estimated_rows == pytest.approx(3.0)
        assert with_stats.stats_version == store.stats_version
