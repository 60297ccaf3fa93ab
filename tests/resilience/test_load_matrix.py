"""The one load procedure, checked where it can go wrong: every store,
through ``load`` and ``bulk_load`` alike, must catch each kind of
corrupted shred (and a mid-load fault) before it commits, and leave the
store byte-identical, indexed, and its path cache true to the `Paths`
relation."""

import pytest

from repro import (
    Database,
    EdgeStore,
    ShreddedStore,
    StorageError,
    StoreIntegrityError,
    infer_schema,
    parse_document,
)
from repro.resilience.faults import FaultInjectingDatabase, FaultPlan

SEED = "<shop><item sku='a'><price>5</price></item></shop>"
#: Both introduce paths the seed lacks; each ends in an element that
#: carries an attribute (the *last* id of a load is the one an
#: off-by-one window misses).
NEW = [
    "<shop><item sku='b'><price>9</price></item>"
    "<item sku='c'><price>2</price><note lang='en'>cheap</note></item></shop>",
    "<shop><item sku='d'><price>1</price><tag kind='x'>t</tag></item></shop>",
]


def documents():
    return (
        parse_document(SEED, name="seed"),
        [parse_document(xml, name=f"new{i}") for i, xml in enumerate(NEW)],
    )


def shredded(db):
    seed, new = documents()
    return ShreddedStore.create(db, infer_schema([seed, *new]))


STORES = {"shredded": shredded, "edge": EdgeStore.create}
METHODS = {
    "load": lambda store, new: store.load(new[0]),
    "bulk_load": lambda store, new: store.bulk_load(new),
}


def _last_row(store, base, count):
    """(table, id) of the last element ``_write_document`` wrote."""
    for table in store._tables:
        if store.db.query_one(
            f"SELECT 1 FROM {table} WHERE id = ?", (base + count,)
        ):
            return table, base + count
    raise AssertionError("last element row not found")


def _drop_last(store, table, row_id, base):
    store.db.execute(f"DELETE FROM {table} WHERE id = ?", (row_id,))


def _stray_copy(store, table, row_id, base):
    """One row too many, outside the id range the load was assigned."""
    columns = ", ".join(
        row[1]
        for row in store.db.query(f"PRAGMA table_info({table})")
        if row[1] != "id"
    )
    store.db.execute(
        f"INSERT INTO {table} (id, {columns}) "
        f"SELECT id + 100000, {columns} FROM {table} WHERE id = ?",
        (row_id,),
    )


def _orphan(store, table, row_id, base):
    store.db.execute(
        f"UPDATE {table} SET par_id = 987654 WHERE id = ?", (row_id,)
    )


def _dangle(store, table, row_id, base):
    store.db.execute(
        f"UPDATE {table} SET path_id = 987654 WHERE id = ?", (row_id,)
    )


def _root_dewey(store, table, row_id, base):
    (root_dewey,) = next(
        row
        for t in store._tables
        if (
            row := store.db.query_one(
                f"SELECT dewey_pos FROM {t} WHERE id = ?", (base + 1,)
            )
        )
    )
    store.db.execute(
        f"UPDATE {table} SET dewey_pos = ? WHERE id = ?",
        (root_dewey, row_id),
    )


#: name -> (corruption of the last element's row, issue kind reported)
CORRUPTIONS = {
    "count-mismatch": (_drop_last, "count-mismatch"),
    "stray-row": (_stray_copy, "count-mismatch"),
    "orphan-parent": (_orphan, "orphan-parent"),
    "dangling-path": (_dangle, "dangling-path"),
    "dewey-order": (_root_dewey, "dewey-order"),
}


def snapshot(store):
    db = store.db
    return {
        "dump": "\n".join(db.connection.iterdump()),
        "indexes": sorted(
            row[0]
            for row in db.query(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        ),
        "synchronous": db.query_one("PRAGMA synchronous")[0],
        "temp_store": db.query_one("PRAGMA temp_store")[0],
        "generation": store.generation,
        "resident": dict(store.resident_documents()),
    }


def assert_untouched(store, before):
    assert snapshot(store) == before
    assert store.path_index.all_paths() == dict(
        store.db.query("SELECT path, id FROM paths")
    )


@pytest.fixture(params=sorted(STORES))
def store_and_plan(request):
    plan = FaultPlan()
    store = STORES[request.param](FaultInjectingDatabase.memory(plan))
    seed, _ = documents()
    store.load(seed)
    return store, plan


@pytest.mark.parametrize("method", sorted(METHODS))
class TestLoadMatrix:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupted_shred_is_caught_and_rolled_back(
        self, store_and_plan, method, corruption, monkeypatch
    ):
        store, _ = store_and_plan
        _, new = documents()
        corrupt, kind = CORRUPTIONS[corruption]
        before = snapshot(store)
        write = type(store)._write_document

        def corrupted_write(self, document, doc_id, base):
            count = write(self, document, doc_id, base)
            if document is new[-1] or method == "load":
                # The FKs (path_id, attrs.elem_id) are enforced; deferred
                # to the commit they leave the verdict to the check.
                self.db.execute("PRAGMA defer_foreign_keys = ON")
                corrupt(self, *_last_row(self, base, count), base)
            return count

        with monkeypatch.context() as patch:
            patch.setattr(type(store), "_write_document", corrupted_write)
            with pytest.raises(StoreIntegrityError, match=kind):
                METHODS[method](store, new)
        assert_untouched(store, before)
        # Either path still works afterwards.
        assert store.load(new[0]) == 2
        assert store.bulk_load([new[1]]) == [3]
        assert store.verify_integrity() == []

    def test_midload_fault_is_rolled_back(self, store_and_plan, method):
        store, plan = store_and_plan
        _, new = documents()
        before = snapshot(store)
        # Fires after the (bulk) index drop and a document's inserts.
        plan.script("error", match="UPDATE docs SET node_count")
        with pytest.raises(StorageError, match="disk I/O error"):
            METHODS[method](store, new)
        assert_untouched(store, before)
        assert store.bulk_load(new) == [2, 3]

    def test_orphan_attribute_of_the_last_element(
        self, method, monkeypatch
    ):
        """``attrs`` rows are checked over the same id range as the
        elements, its last id included."""
        store = EdgeStore.create(Database.memory())
        _, new = documents()
        write = EdgeStore._write_document

        def lose_last_element(self, document, doc_id, base):
            count = write(self, document, doc_id, base)
            self.db.execute("PRAGMA defer_foreign_keys = ON")
            self.db.execute(
                "DELETE FROM edge WHERE id = ?", (base + count,)
            )
            return count

        monkeypatch.setattr(EdgeStore, "_write_document", lose_last_element)
        with pytest.raises(StoreIntegrityError, match="attrs"):
            METHODS[method](store, new)
        assert store.total_elements() == 0


class TestDurability:
    def _statements(self, db):
        seen = []
        db.connection.set_trace_callback(seen.append)
        return seen

    @pytest.mark.parametrize("make", sorted(STORES))
    def test_load_never_runs_with_synchronous_off(self, make, tmp_path):
        db = Database.open(str(tmp_path / "store.db"))
        store = STORES[make](db)
        seed, new = documents()
        seen = self._statements(db)
        store.load(seed)
        assert any(s.startswith("INSERT INTO docs") for s in seen)
        assert not [s for s in seen if "synchronous" in s]
        store.bulk_load(new)
        assert "PRAGMA synchronous = OFF" in seen
        db.close()


class TestWrittenOnce:
    def test_one_load_transaction_in_the_tree(self):
        """One ``.savepoint(`` call site in ``repro.storage`` outside the
        facade that defines it, no import of the serving layer from
        below it, and no trace of the deleted ``chunk_rows`` knob."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        savepoints, serving_imports = [], []
        for path in sorted((root / "storage").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                where = f"{path.name}:{getattr(node, 'lineno', 0)}"
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", "") == "savepoint"
                    and path.name != "database.py"
                ):
                    savepoints.append(where)
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [getattr(node, "module", None) or ""] + [
                        alias.name for alias in node.names
                    ]
                    if any(m.startswith("repro.serving") for m in modules):
                        serving_imports.append(where)
        assert len(savepoints) == 1 and savepoints[0].startswith("loading.py:")
        assert serving_imports == []
        assert [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if "chunk_rows" in path.read_text()
        ] == []
