"""Reads across the element relations: one statement, whatever the
number of relations.

The store reads all of its element relations at once — statistics,
integrity, element lookup, row counts — through
``Database.query_across``; only the INSERTs and DELETEs of a mutation
speak to one relation at a time.  SQLite refuses a compound SELECT of
more than 500 terms, so a schema with more relations than that takes
the chunked path.
"""

from __future__ import annotations

import re

import pytest

from repro import (
    Database,
    PPFEngine,
    Schema,
    ShreddedStore,
    infer_schema,
    parse_document,
    parse_fragment,
)
from repro.dewey import decode
from repro.stats.maintenance import collect_summary
from repro.workloads import XMarkConfig, generate_xmark


def _shapes(statements: list[str], relations) -> dict[str, set[str]]:
    """Statement texts with literals normalized, grouped by their shape
    with every relation name replaced by ``T``: a group of several
    texts is a statement issued once per relation."""
    names = re.compile(
        r"\b(?:" + "|".join(map(re.escape, relations)) + r")\b"
    )
    groups: dict[str, set[str]] = {}
    for statement in statements:
        text = re.sub(r"'(?:[^']|'')*'", "'?'", statement)
        text = re.sub(r"[xX]'[0-9A-Fa-f]*'|\b\d+\b", "0", text)
        text = " ".join(text.split())
        groups.setdefault(names.sub("T", text), set()).add(text)
    return groups


def test_only_writes_are_issued_once_per_relation():
    """A ``load`` and a ``delete_document`` on the XMark schema, with a
    summary to maintain: no read is issued once per element relation,
    only the INSERTs and DELETEs are."""
    documents = [
        generate_xmark(XMarkConfig(scale=0.2, seed=seed)) for seed in (3, 4, 5)
    ]
    store = ShreddedStore.create(Database.memory(), infer_schema(documents))
    (first, _) = store.bulk_load(documents[:2])
    assert store.path_summary() is not None
    relations = list(store.mapping.relations)
    assert len(relations) > 60
    statements: list[str] = []
    store.db.connection.set_trace_callback(statements.append)
    store.load(documents[2])
    store.delete_document(first)
    store.db.connection.set_trace_callback(None)
    groups = _shapes(statements, relations)
    per_relation = {
        shape.split()[0] for shape, texts in groups.items() if len(texts) > 1
    }
    assert per_relation == {"INSERT", "DELETE"}
    selects = [
        text
        for shape, texts in groups.items()
        if shape.startswith("SELECT")
        for text in texts
    ]
    assert len(selects) < 10, selects
    shapes = sum(len(texts) for texts in groups.values())
    assert shapes < 2 * len(relations) + 30
    assert store.path_summary().stats == collect_summary(
        store.db, store.mapping, (0, 0)
    ).stats


def _element_reads(store, mutate) -> tuple[list[str], list[str], str]:
    """Run ``mutate`` traced: the SELECTs that read an element relation
    before and after its last INSERT or DELETE on one, and that write."""
    relations = "|".join(map(re.escape, store.mapping.relations))
    reads = re.compile(rf"^SELECT .*\bFROM (?:{relations})\b", re.S)
    writes = re.compile(rf"^(?:INSERT INTO|DELETE FROM) (?:{relations})\b")
    statements: list[str] = []
    store.db.connection.set_trace_callback(statements.append)
    mutate()
    store.db.connection.set_trace_callback(None)
    last = max(i for i, text in enumerate(statements) if writes.match(text))
    before, after = (
        [text for text in part if reads.match(text)]
        for part in (statements[:last], statements[last:])
    )
    return before, after, statements[last]


@pytest.fixture(scope="module")
def churned():
    """Five small XMark documents; a store that bulk-loaded two (so it
    keeps an exact summary) and may load the rest."""
    documents = [
        generate_xmark(XMarkConfig(scale=0.1, seed=seed))
        for seed in (3, 4, 5, 6, 7)
    ]
    store = ShreddedStore.create(Database.memory(), infer_schema(documents))
    store.bulk_load(documents[:2])
    return store, documents


def test_a_load_reads_what_it_wrote_once(churned):
    """One statement across the element relations after a load's
    INSERTs — the integrity check's, which the summary deltas are
    counted from too — however many documents it writes."""
    store, documents = churned
    for mutate in (
        lambda: store.load(documents[2]),
        lambda: store.bulk_load(documents[3:]),
    ):
        assert store.path_summary() is not None
        before, after, _ = _element_reads(store, mutate)
        assert before == []
        (read,) = after
        assert "UNION ALL" in read
    assert store.path_summary().stats == collect_summary(
        store.db, store.mapping, (0, 0)
    ).stats


def test_a_delete_reads_no_element_relation(churned):
    """``delete_document`` counts the rows its DELETEs return."""
    store, _ = churned
    assert store.path_summary() is not None
    [(doc_id,)] = store.db.query("SELECT MIN(id) FROM docs")
    before, after, last = _element_reads(
        store, lambda: store.delete_document(doc_id)
    )
    assert last.startswith("DELETE FROM") and " RETURNING " in last
    assert before == after == []
    assert store.path_summary().stats == collect_summary(
        store.db, store.mapping, (0, 0)
    ).stats


def _wide_schema(children: int) -> Schema:
    """A root with ``children`` element types below it, each with text
    and an attribute: ``children + 1`` relations."""
    schema = Schema()
    schema.add_root("r")
    for index in range(children):
        name = f"c{index}"
        schema.add_edge("r", name)
        schema[name].text_kind = "string"
        schema[name].add_attribute("k")
    return schema


def _wide_document(children: int, start: int, name: str):
    tags = [f"c{(start + index) % children}" for index in range(0, children, 7)]
    body = "".join(
        f"<{tag} k='{index}'>v{index}</{tag}>" for index, tag in enumerate(tags)
    )
    return parse_document(f"<r>{body}</r>", name=name)


def test_more_relations_than_one_compound_select_takes():
    """SQLite 3.40 raises "too many terms in compound SELECT" at 501
    terms, so 601 relations need two statements per read."""
    children = 600
    store = ShreddedStore.create(Database.memory(), _wide_schema(children))
    relations = list(store.mapping.relations)
    assert len(relations) == 601
    first, second = store.bulk_load(
        [_wide_document(children, 0, "a"), _wide_document(children, 3, "b")]
    )
    third_document = _wide_document(children, 5, "c")
    third = store.load(third_document)
    assert store.verify_integrity() == []
    store.delete_document(second)
    recomputed = collect_summary(store.db, store.mapping, (0, 0))
    maintained = store.path_summary()
    assert maintained.stats == recomputed.stats
    assert maintained.relation_counts == recomputed.relation_counts
    assert maintained.document_count == 2
    counts = store.relation_counts()
    assert list(counts) == sorted(relations)
    assert sum(counts.values()) == store.total_elements()
    assert counts["r"] == 2 and 0 in counts.values()

    # Lookups in the first and in the last chunk of relations: the
    # root's relation comes first, the last child type's last.
    last = relations[-1]
    root = store.doc_base(third) + 1
    (last_id,) = store.append_subtree(
        root, parse_fragment(f"<{last} k='n'>new</{last}>")
    )
    store.update_text(last_id, "changed")
    store.update_attribute(last_id, "k", "m")
    engine = PPFEngine(store)
    assert engine.execute(f"//{last}[@k = 'm'][. = 'changed']").ids == [last_id]
    (dewey,) = store.db.query_one(
        f"SELECT dewey_pos FROM {last} WHERE id = ?",
        (last_id,),
    )
    assert decode(dewey) == (1, len(third_document.root.element_children) + 1)
    assert store.delete_subtree(last_id) == 1
    whole = store.db.query_one(
        "SELECT node_count FROM docs WHERE id = ?", (first,)
    )[0]
    assert store.delete_subtree(store.doc_base(first) + 1) == whole
    assert store.relation_counts()["r"] == 1
    store.collect_statistics()
    assert store.verify_integrity() == []


@pytest.mark.parametrize("relations", [500, 501, 1001])
def test_query_across_at_the_compound_limit(relations):
    db = Database.memory()
    tables = [f"t{index}" for index in range(relations)]
    for table in tables:
        db.execute(f"CREATE TABLE {table} (v INTEGER)")
        db.execute(f"INSERT INTO {table} VALUES (1), (2)")
    rows = db.query_across(dict.fromkeys(tables, "v"), "WHERE v = ?1", (2,))
    assert rows == [(table, 2) for table in tables]
