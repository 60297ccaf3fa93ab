"""Tests for the structural predicates (Lemmas 1–2, Table 2) — both the
Python forms and their SQL renderings, checked against tree ground truth
computed independently from the vectors."""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.dewey import (
    Relationship,
    bound_axes,
    encode,
    is_ancestor,
    is_descendant,
    is_following,
    is_following_sibling,
    is_preceding,
    is_preceding_sibling,
    relationship,
    sql_bound,
    sql_bound_condition,
    sql_condition,
)

vectors = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple)


def ground_truth(n2: tuple, n1: tuple) -> Relationship:
    """Relationship of n2 relative to n1, from the vectors directly."""
    if n2 == n1:
        return Relationship.SELF
    if n2[: len(n1)] == n1:
        return (
            Relationship.CHILD
            if len(n2) == len(n1) + 1
            else Relationship.DESCENDANT
        )
    if n1[: len(n2)] == n2:
        return (
            Relationship.PARENT
            if len(n1) == len(n2) + 1
            else Relationship.ANCESTOR
        )
    if len(n1) == len(n2) and n1[:-1] == n2[:-1]:
        return (
            Relationship.FOLLOWING_SIBLING
            if n2 > n1
            else Relationship.PRECEDING_SIBLING
        )
    return Relationship.FOLLOWING if n2 > n1 else Relationship.PRECEDING


class TestLemmas:
    def test_lemma1_descendant_examples(self):
        # 1.1.2.1 is a descendant of 1.1 (Figure 1)
        assert is_descendant(encode((1, 1, 2, 1)), encode((1, 1)))
        assert not is_descendant(encode((1, 2)), encode((1, 1)))
        assert not is_descendant(encode((1, 1)), encode((1, 1)))

    def test_lemma2_following_examples(self):
        # 1.2 follows 1.1.2 (different subtree, later in order)
        assert is_following(encode((1, 2)), encode((1, 1, 2)))
        # a descendant is NOT following
        assert not is_following(encode((1, 1, 2, 1)), encode((1, 1)))
        # an ancestor is NOT following
        assert not is_following(encode((1, 1)), encode((1, 1, 2)))

    def test_sibling_predicates(self):
        assert is_following_sibling(encode((1, 2)), encode((1, 1)))
        assert is_preceding_sibling(encode((1, 1)), encode((1, 2)))
        assert not is_following_sibling(encode((1, 1, 1)), encode((1, 1)))
        # same level, different parents: not siblings
        assert not is_following_sibling(
            encode((1, 2, 1)), encode((1, 1, 2))
        )

    def test_ancestor_preceding(self):
        assert is_ancestor(encode((1,)), encode((1, 3, 2)))
        assert is_preceding(encode((1, 1)), encode((1, 2)))

    @given(vectors, vectors)
    @settings(max_examples=500, deadline=None)
    def test_relationship_matches_ground_truth(self, a, b):
        assert relationship(encode(a), encode(b)) == ground_truth(a, b)


_REL_TO_AXES = {
    Relationship.CHILD: {"child", "descendant", "descendant-or-self"},
    Relationship.DESCENDANT: {"descendant", "descendant-or-self"},
    Relationship.PARENT: {"parent", "ancestor", "ancestor-or-self"},
    Relationship.ANCESTOR: {"ancestor", "ancestor-or-self"},
    Relationship.SELF: {
        "self",
        "descendant-or-self",
        "ancestor-or-self",
    },
    Relationship.FOLLOWING_SIBLING: {"following-sibling", "following"},
    Relationship.PRECEDING_SIBLING: {"preceding-sibling", "preceding"},
    Relationship.FOLLOWING: {"following"},
    Relationship.PRECEDING: {"preceding"},
}

_ALL_AXES = sorted({axis for axes in _REL_TO_AXES.values() for axis in axes})


@pytest.fixture(scope="module")
def sql_db():
    """Two one-row tables ``c``/``t`` used to evaluate the Table 2
    conditions exactly as the translator emits them."""
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE c (dewey_pos BLOB, par_id INTEGER, doc_id INTEGER)")
    db.execute("CREATE TABLE t (dewey_pos BLOB, par_id INTEGER, doc_id INTEGER)")
    return db


def _sql_truth(db, axis: str, c_vec: tuple, t_vec: tuple) -> bool:
    db.execute("DELETE FROM c")
    db.execute("DELETE FROM t")
    db.execute(
        "INSERT INTO c VALUES (?, ?, 1)",
        (encode(c_vec), hash(c_vec[:-1]) & 0xFFFF),
    )
    db.execute(
        "INSERT INTO t VALUES (?, ?, 1)",
        (encode(t_vec), hash(t_vec[:-1]) & 0xFFFF),
    )
    condition = sql_condition(axis, "c", "t")
    row = db.execute(
        f"SELECT COUNT(*) FROM c, t WHERE {condition}"
    ).fetchone()
    return bool(row[0])


class TestSQLConditionsAgree:
    """The SQL text of Table 2 must accept exactly the pairs the Python
    predicates (and hence the tree ground truth) accept."""

    @pytest.mark.parametrize("axis", _ALL_AXES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_axis_condition(self, axis, data, sql_db):
        c_vec = data.draw(vectors)
        t_vec = data.draw(vectors)
        truth = ground_truth(t_vec, c_vec)
        expected = axis in _REL_TO_AXES[truth]
        # par_id hashing approximates parenthood: recompute honestly for
        # the sibling axes, which consult par_id.
        if axis in ("following-sibling", "preceding-sibling"):
            same_parent = (
                len(c_vec) == len(t_vec) and c_vec[:-1] == t_vec[:-1]
            )
            expected = expected and same_parent
            if (
                hash(c_vec[:-1]) & 0xFFFF == hash(t_vec[:-1]) & 0xFFFF
            ) != same_parent:
                return  # hash collision would muddy the emulation; skip
        assert _sql_truth(sql_db, axis, c_vec, t_vec) == expected


#: Positions under one document element ``(1,)``, which has no siblings.
rooted = st.lists(st.integers(1, 4), max_size=4).map(lambda v: (1, *v))
nodes = st.tuples(st.integers(1, 2), rooted)  # (doc_id, vector)


class TestGroupedBoundsAgree:
    """One bound per document (per parent for the sibling axes) accepts
    a target exactly when some context row does, pairwise — the bound
    form of each ordering axis against the tree ground truth."""

    @pytest.mark.parametrize("axis", sorted(bound_axes()))
    @given(
        contexts=st.lists(nodes, min_size=1, max_size=6),
        targets=st.lists(nodes, min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_condition(self, axis, contexts, targets):
        parents: dict = {}

        def row(node):
            doc, vector = node
            parent = (
                None
                if len(vector) == 1
                else parents.setdefault((doc, vector[:-1]), len(parents))
            )
            return (doc, parent, encode(vector))

        db = sqlite3.connect(":memory:")
        for name, rows in (("c", contexts), ("t", targets)):
            db.execute(
                f"CREATE TABLE {name} (doc_id INTEGER, par_id INTEGER, "
                "dewey_pos BLOB)"
            )
            db.executemany(
                f"INSERT INTO {name} VALUES (?, ?, ?)", map(row, rows)
            )
        key, aggregate = sql_bound(axis, "c")
        got = {
            rowid
            for (rowid,) in db.execute(
                f"SELECT t.rowid FROM t CROSS JOIN (SELECT c.{key} AS {key}, "
                f"{aggregate} AS bound FROM c GROUP BY c.{key}) b "
                f"WHERE {sql_bound_condition(axis, 'b', 't')}"
            )
        }
        want = {
            index
            for index, (doc, vector) in enumerate(targets, start=1)
            if any(
                context_doc == doc
                and axis in _REL_TO_AXES[ground_truth(vector, context)]
                for context_doc, context in contexts
            )
        }
        assert got == want
