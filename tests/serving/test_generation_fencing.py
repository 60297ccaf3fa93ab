"""Generation fencing under a deliberate reader/writer race.

The result cache keys on the store generation, and ``_cache_result``
declines to insert when the store mutated while the query ran.  These
tests stage that race *deterministically* with barriers: a pooled
reader is held mid-query while a writer mutates the store, and the
assertion is that no later call can ever be served the pre-mutation
rows from cache."""

from __future__ import annotations

import threading

import pytest

from repro import (
    ConnectionPool,
    Database,
    PPFEngine,
    ShreddedStore,
    infer_schema,
    parse_document,
    parse_fragment,
)

XML = "<shop><item sku='a'><price>5</price></item></shop>"
NEW_ITEM = "<item sku='new'><price>9</price></item>"


@pytest.fixture()
def store(tmp_path):
    doc = parse_document(XML, name="shop")
    db = Database.open(str(tmp_path / "s.db"), check_same_thread=False)
    shredded = ShreddedStore.create(db, infer_schema([doc]))
    shredded.load(doc)
    yield shredded
    db.close()


class TestGenerationFencingRace:
    QUERY = "//item"

    def test_mutation_during_pooled_read_never_serves_stale_hit(
        self, store
    ):
        """Reader holds a pooled connection mid-query; writer mutates
        the store before the reader returns.  The reader's
        pre-mutation rows must NOT enter the cache — nor leave
        ``execute``: the generation moved under the query, so it runs
        again — and the next execution must see the mutation."""
        engine = PPFEngine(store)
        pool = ConnectionPool.for_store(store, size=2)
        engine.attach_pool(pool)

        in_sql = threading.Barrier(2, timeout=10)
        mutated = threading.Barrier(2, timeout=10)
        inner_run = engine._run_sql

        snapshots = []

        def racing_run(sql, deadline=None):
            rows = inner_run(sql)
            snapshots.append(len(rows))
            if len(snapshots) == 1:
                in_sql.wait()   # writer: go mutate
                mutated.wait()  # wait until the mutation committed
            return rows

        engine._run_sql = racing_run
        reader_result = {}

        def read():
            reader_result["result"] = engine.execute(self.QUERY)

        reader = threading.Thread(target=read)
        reader.start()
        in_sql.wait()
        generation_before = store.generation
        store.append_subtree(1, parse_fragment(NEW_ITEM))
        assert store.generation > generation_before
        mutated.wait()
        reader.join(timeout=10)
        assert not reader.is_alive()

        # The in-flight reader saw the pre-mutation snapshot, noticed
        # the generation had moved and ran again...
        assert snapshots == [1, 2]
        assert len(reader_result["result"]) == 2
        # ...so the stale row set was neither returned nor cached: a
        # fresh execution reflects the mutation.
        engine._run_sql = inner_run
        fresh = engine.execute(self.QUERY)
        assert len(fresh) == 2
        pool.close()

    def test_cache_hit_only_within_same_generation(self, store):
        engine = PPFEngine(store)
        first = engine.execute(self.QUERY)
        again = engine.execute(self.QUERY)
        assert again is first  # same generation: cache hit
        store.append_subtree(1, parse_fragment(NEW_ITEM))
        after = engine.execute(self.QUERY)
        assert after is not first
        assert len(after) == len(first) + 1

    def test_many_racing_readers_one_writer(self, store):
        """Stress variant: several pooled readers loop while the
        writer appends; afterwards the cache must only ever serve the
        final generation's rows."""
        engine = PPFEngine(store)
        pool = ConnectionPool.for_store(store, size=3)
        engine.attach_pool(pool)
        stop = threading.Event()
        errors = []

        def read_loop():
            while not stop.is_set():
                try:
                    result = engine.execute(self.QUERY)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                if len(result) not in range(1, 6):
                    errors.append(AssertionError(len(result)))
                    return

        readers = [threading.Thread(target=read_loop) for _ in range(3)]
        for thread in readers:
            thread.start()
        for _ in range(4):
            store.append_subtree(1, parse_fragment(NEW_ITEM))
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        assert not errors
        final = engine.execute(self.QUERY)
        assert len(final) == 5
        # And the cached entry for the final generation is the one
        # serving now — a hit returns the same (correct) object.
        assert engine.execute(self.QUERY) is final
        pool.close()
