"""A query and a mutation of the same store, interleaved.

A translation bakes in what the store held when it was made — with
statistics, the list of paths a ``//`` step can reach.  A ``load`` that
commits a *new* path between ``translate()`` and the fetch used to give
an answer no state of the store ever had: the new document's rows under
the old path list.  ``execute`` now notes the generation before it
translates and starts over when it has moved by the time the rows are
in; a store that never holds still is a typed error, not a guess.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Database,
    NativeEngine,
    PPFEngine,
    ShreddedStore,
    StorageError,
    infer_schema,
    parse_document,
)
from repro.core import engine as engine_module
from repro.xmltree.nodes import ElementNode

#: Each document reaches `name` by a path of its own, so every load can
#: add paths the summary has not seen and every delete can retire some.
POOL = [
    "<site><people><person id='p0'><name>Ann</name></person></people>"
    "<regions><item id='i0'><name>Lamp</name><price>5</price></item></regions>"
    "</site>",
    "<site><people><group><person id='p1'><name>Bob</name></person></group>"
    "</people></site>",
    "<site><regions><zone><item id='i1'><name>Desk</name><price>40</price>"
    "</item></zone></regions></site>",
    "<site><people><person id='p2'><name>Cy</name></person><group><group>"
    "<person id='p3'><name>Dee</name></person></group></group></people></site>",
]
QUERIES = [
    "/site/people//name",
    "//name/text()",
    "/site/regions//item[price > 8]/name/text()",
    "//person/@id",
    "//group/person",
    "/site//item/name",
]


def fresh_store(first=0):
    documents = [parse_document(xml, name=f"d{i}") for i, xml in enumerate(POOL)]
    store = ShreddedStore.create(Database.memory(), infer_schema(documents))
    store.bulk_load([documents[first]])  # collects statistics
    return store, documents


def racing(engine, mutate):
    """Make ``engine`` run ``mutate()`` between translating a query and
    running its statement — every time it runs one."""
    run_sql = engine._run_sql

    def run_after_mutation(*args, **kwargs):
        mutate()
        return run_sql(*args, **kwargs)

    engine._run_sql = run_after_mutation


def native_answer(trees, xpath):
    """``(doc_id, value)`` per node of the native answer over
    ``trees``, a ``doc_id -> Document`` mapping."""
    rows = []
    for doc_id, document in trees.items():
        for node in NativeEngine(document).execute(xpath):
            value = None if isinstance(node, ElementNode) else node.value
            rows.append((doc_id, value))
    return sorted(rows, key=repr)


def oracle(store, xpath):
    """The native answer over exactly the documents the store holds."""
    resident = store.resident_documents()
    return native_answer(
        {doc_id: document for doc_id, (document, _) in resident.items()},
        xpath,
    )


def answer(engine, xpath):
    return sorted(
        ((row.doc_id, row.value) for row in engine.execute(xpath).rows),
        key=repr,
    )


def test_a_load_between_translate_and_fetch_is_seen_whole():
    store, documents = fresh_store()
    engine = PPFEngine(store)
    xpath = "/site/people//name"
    assert len(PPFEngine(store).execute(xpath)) == 1
    pending = [documents[1]]  # adds /site/people/group/person/name
    racing(engine, lambda: pending and store.load(pending.pop()))
    result = engine.execute(xpath)
    assert len(result) == 2  # one row short before the generation check
    assert answer(engine, xpath) == oracle(store, xpath)
    # The answer that was started over is cached for the state it saw.
    assert engine.execute(xpath) is result


def test_a_store_that_never_holds_still_is_a_typed_error():
    store, documents = fresh_store()
    engine = PPFEngine(store)
    attempts = []

    def mutate():
        attempts.append(store.load(documents[len(attempts) % len(documents)]))

    racing(engine, mutate)
    with pytest.raises(StorageError, match="kept mutating"):
        engine.execute("//name")
    assert len(attempts) == engine_module._MUTATION_RETRIES + 1
    assert engine.result_cache_info().currsize == 0


#: ``(parent, fragment)`` for ``append_subtree``: the first and third
#: add a row under a path their document may already hold, the others
#: bring paths of their own.  Either way the summary goes stale.
APPENDS = [
    ("/site/people", "<person id='px'><name>Eve</name></person>"),
    (
        "/site/people",
        "<group><person id='py'><name>Fay</name></person></group>",
    ),
    (
        "/site/regions",
        "<item id='ix'><name>Rug</name><price>12</price></item>",
    ),
    (
        "/site/regions",
        "<zone><item id='iy'><name>Bed</name><price>3</price></item></zone>",
    ),
]

mutations = st.one_of(
    st.tuples(st.just("load"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("delete"), st.integers(0, 7)),
)
steps = st.one_of(
    mutations,
    st.tuples(
        st.just("append"),
        st.integers(0, 7),
        st.integers(0, len(APPENDS) - 1),
    ),
    st.tuples(st.just("collect")),
    st.tuples(
        st.just("query"),
        st.sampled_from(QUERIES),
        st.one_of(st.none(), mutations),
    ),
)


class Mirror:
    """The store's documents kept as trees of their own, mutated in
    step with it: the native oracle's input once ``append_subtree`` has
    left the store's resident copies behind."""

    def __init__(self, store, first):
        self.store = store
        (doc_id,) = store.documents
        self.trees = {doc_id: parse_document(POOL[first], name="m")}

    def mutate(self, kind, pick=0, which=0):
        store = self.store
        live = sorted(self.trees)
        if kind == "load":
            document = parse_document(POOL[pick], name=f"d{pick}")
            self.trees[store.load(document)] = parse_document(
                POOL[pick], name="m"
            )
        elif kind == "collect":
            store.collect_statistics()
        elif not live:
            return
        elif kind == "delete":
            doc_id = live[pick % len(live)]
            store.delete_document(doc_id)
            del self.trees[doc_id]
        else:
            doc_id = live[pick % len(live)]
            parent, fragment = APPENDS[which]
            tree = self.trees[doc_id]
            parents = NativeEngine(tree).execute(parent)
            if not parents:
                return
            (parent_id,) = [
                row.id
                for row in PPFEngine(store).execute(parent).rows
                if row.doc_id == doc_id
            ]
            store.append_subtree(
                parent_id, parse_document(fragment, name="f").root
            )
            parents[0].append(parse_document(fragment, name="f").root)
            tree.reindex()

    def oracle(self, xpath):
        return native_answer(self.trees, xpath)


@given(st.integers(0, len(POOL) - 1), st.lists(steps, min_size=1, max_size=8))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_interleaved_queries_loads_and_deletes_match_the_oracle(first, script):
    """Whatever the store goes through — loads that add a path under a
    ``//`` step or break a tautology, deletes that remove one, the same
    document back again, appends that leave the summary stale, fresh
    statistics — an engine that has been there throughout answers what
    one with empty caches and the native oracle answer."""
    store, _ = fresh_store(first)
    mirror = Mirror(store, first)
    engine = PPFEngine(store)
    cleared = PPFEngine(store)
    run_sql = engine._run_sql

    for step in script:
        if step[0] == "query":
            _, xpath, during = step
            pending = [during] if during else []
            racing(engine, lambda: pending and mirror.mutate(*pending.pop()))
            try:
                got = answer(engine, xpath)
            finally:
                engine._run_sql = run_sql
            assert got == mirror.oracle(xpath), (xpath, during)
        else:
            mirror.mutate(*step)
        cleared.cache_clear()
        cleared.result_cache_clear()
        for xpath in QUERIES:
            expected = mirror.oracle(xpath)
            assert answer(engine, xpath) == expected, (step, xpath)
            assert answer(cleared, xpath) == expected, (step, xpath)
            summary = store.path_summary()
            assert all(
                summary is not None and read.holds(summary)
                for read in engine.translate(xpath).summary_reads
            ), (step, xpath)
    assert store.verify_integrity() == []
