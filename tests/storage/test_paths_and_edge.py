"""Tests for the `Paths` index, the Edge store and the accel store."""

import pytest

from repro import (
    AccelStore,
    Database,
    EdgeStore,
    PathIndex,
    parse_document,
)
from repro.dewey import decode


class TestPathIndex:
    def test_ensure_assigns_stable_ids(self):
        db = Database.memory()
        index = PathIndex(db)
        first = index.ensure_many(["/a/b", "/a/b"])
        again = index.ensure_many(["/a/c", "/a/b"])
        assert first == {"/a/b": again["/a/b"]}
        assert again["/a/c"] != again["/a/b"]

    def test_lookup(self):
        index = PathIndex(Database.memory())
        assert index.lookup("/a") is None
        (path_id,) = index.ensure_many(["/a"]).values()
        assert index.lookup("/a") == path_id

    def test_reloads_existing_rows(self):
        db = Database.memory()
        first = PathIndex(db)
        (path_id,) = first.ensure_many(["/a/b"]).values()
        second = PathIndex(db)
        assert second.lookup("/a/b") == path_id
        assert len(second) == 1

    def test_all_paths_snapshot(self):
        index = PathIndex(Database.memory())
        index.ensure_many(["/a", "/a/b"])
        assert index.all_paths() == {"/a": 1, "/a/b": 2}


@pytest.fixture()
def edge_store(figure1_document):
    store = EdgeStore.create(Database.memory())
    store.load(figure1_document)
    return store


class TestEdgeStore:
    def test_single_central_relation(self, edge_store):
        assert edge_store.total_elements() == 12
        names = {n for (n,) in edge_store.db.query("SELECT DISTINCT name FROM edge")}
        assert names == {"A", "B", "C", "D", "E", "F", "G"}

    def test_descriptors(self, edge_store):
        rows = edge_store.db.query(
            "SELECT id, par_id, name, dewey_pos FROM edge WHERE name='G' ORDER BY id"
        )
        assert [(r[0], r[1], decode(r[3])) for r in rows] == [
            (9, 2, (1, 1, 3)),
            (11, 10, (1, 2, 1)),
            (12, 11, (1, 2, 1, 1)),
        ]

    def test_attributes_in_separate_relation(self, edge_store):
        rows = edge_store.db.query(
            "SELECT elem_id, name, value FROM attrs ORDER BY elem_id"
        )
        assert rows == [(1, "x", "3"), (4, "x", "4")]

    def test_text_stored(self, edge_store):
        rows = edge_store.db.query(
            "SELECT text FROM edge WHERE name='F' ORDER BY id"
        )
        assert rows == [("1",), ("2",)]

    def test_paths_shared_index(self, edge_store):
        count = edge_store.db.query_one("SELECT COUNT(*) FROM paths")[0]
        assert count == 8


@pytest.fixture()
def accel_store(figure1_document):
    store = AccelStore.create(Database.memory())
    store.load(figure1_document)
    return store


class TestAccelStore:
    def test_pre_post_windows_encode_the_tree(self, accel_store):
        rows = accel_store.db.query(
            "SELECT pre, post, par, level, name FROM accel ORDER BY pre"
        )
        by_name = {}
        for pre, post, par, level, name in rows:
            by_name.setdefault(name, []).append((pre, post, par, level))
        # root
        assert by_name["A"] == [(1, 12, None, 1)]
        # descendant window: every element's window nests in the root's
        for pre, post, par, level in [r for rs in by_name.values() for r in rs]:
            if pre != 1:
                assert pre > 1 and post < 12

    def test_postorder_is_a_permutation(self, accel_store):
        posts = [p for (p,) in accel_store.db.query("SELECT post FROM accel")]
        assert sorted(posts) == list(range(1, 13))

    def test_descendant_count_matches_window(self, accel_store):
        # for any node, #descendants = #rows with pre> and post<
        rows = accel_store.db.query("SELECT pre, post FROM accel")
        for pre, post in rows:
            count = accel_store.db.query_one(
                "SELECT COUNT(*) FROM accel WHERE pre > ? AND post < ?",
                (pre, post),
            )[0]
            # invariant: the closed window holds the node + descendants
            subtree = accel_store.db.query_one(
                "SELECT COUNT(*) FROM accel WHERE pre >= ? AND post <= ?",
                (pre, post),
            )[0]
            assert subtree == count + 1

    def test_attributes_side_table(self, accel_store):
        rows = accel_store.db.query(
            "SELECT elem_pre, name, value FROM accel_attr ORDER BY elem_pre"
        )
        assert rows == [(1, "x", "3"), (4, "x", "4")]

    def test_multiple_documents_offset(self, figure1_document):
        store = AccelStore.create(Database.memory())
        store.load(figure1_document)
        store.load(parse_document("<A><B/></A>"))
        assert store.total_elements() == 14
        max_pre = store.db.query_one("SELECT MAX(pre) FROM accel")[0]
        assert max_pre == 14
