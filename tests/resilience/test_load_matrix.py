"""The one mutation transaction, checked where it can go wrong: every
store, through ``load`` and ``bulk_load`` alike, must catch each kind of
corrupted shred (and a mid-load fault) before it commits, and leave the
store byte-identical, indexed, and its path cache true to the `Paths`
relation; a fault inside a subtree mutator must do the same; every
mutator is exactly one transaction; and a process death on either side
of that transaction's commit leaves a store whose rows, generation and
path summary describe the same state."""

import os
import subprocess
import sys

import pytest

from repro import (
    Database,
    EdgeStore,
    NativeEngine,
    PPFEngine,
    ShreddedStore,
    StorageError,
    StoreIntegrityError,
    infer_schema,
    parse_document,
    parse_fragment,
)
from repro.stats.maintenance import collect_summary
from repro.xmltree.nodes import ElementNode
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
#: name -> (mutator, the statement whose n-th execution fails, n): the
#: loads die after the (bulk) index drop and a document's inserts, the
#: subtree mutators with some of their rows written / deleted already.
FAULTS = {
    "load": (METHODS["load"], "UPDATE docs SET node_count", 1),
    "bulk_load": (METHODS["bulk_load"], "UPDATE docs SET node_count", 1),
    # <item> lands, <price> fails; /shop/item/note is a path the seed lacks.
    "append_subtree": (
        lambda store, new: store.append_subtree(
            1,
            parse_fragment(
                "<item sku='z'><price>3</price><note lang='en'>n</note></item>"
            ),
        ),
        "INSERT INTO",
        2,
    ),
    # One DELETE per relation; the last one fails.
    "delete_subtree": (
        lambda store, new: store.delete_subtree(2),
        "DELETE FROM",
        5,
    ),
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
        "in_transaction": db.connection.in_transaction,
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


class TestLoadMatrix:
    @pytest.mark.parametrize("method", sorted(METHODS))
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

    @pytest.mark.parametrize("method", sorted(FAULTS))
    def test_midload_fault_is_rolled_back(self, store_and_plan, method):
        store, plan = store_and_plan
        if not hasattr(store, method):
            pytest.skip("only the schema-aware store has subtree mutators")
        _, new = documents()
        before = snapshot(store)
        assert not before["in_transaction"]
        mutate, statement, nth = FAULTS[method]
        plan.script("delay", match=statement, times=nth - 1)
        plan.script("error", match=statement)
        with pytest.raises(StorageError, match="disk I/O error"):
            mutate(store, new)
        assert len(plan.injected) == nth
        assert_untouched(store, before)
        assert store.bulk_load(new) == [2, 3]
        assert store.verify_integrity() == []

    @pytest.mark.parametrize("method", sorted(METHODS))
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


# -- process death on either side of the commit -----------------------------------

#: `name` occurs under `person` and under `item`; the loads add it under
#: /site/people/group/person too — a path the summary must learn with the rows.
BASE = (
    "<site><people><person id='p0'><name>Ann</name></person>"
    "<person id='p1'><name>Bob</name></person></people>"
    "<regions><item id='i0'><name>Lamp</name><price>5</price></item>"
    "<item id='i1'><name>Desk</name><price>40</price></item></regions></site>"
)
OTHER = (
    "<site><people><person id='p2'><name>Cy</name></person></people>"
    "<regions><item id='i2'><name>Vase</name><price>9</price></item></regions>"
    "</site>"
)
GROUP = "<group><person id='p3'><name>Dee</name></person></group>"
GROUPED = f"<site><people>{GROUP}</people><regions/></site>"
GROUPED_TOO = (
    "<site><people><group><person id='p4'><name>Eve</name></person></group>"
    "</people><regions><item id='i3'><name>Rug</name><price>70</price></item>"
    "</regions></site>"
)
#: BASE after each subtree / value mutator of CUTS.
BASE_APPENDED = BASE.replace("</people>", GROUP + "</people>")
BASE_PRUNED = BASE.replace(
    "<item id='i0'><name>Lamp</name><price>5</price></item>", ""
)
BASE_RENAMED = BASE.replace("Ann", "Zed")

CUT_QUERIES = [
    "/site/people//name/text()",  # defect (a): 2 rows for 3 at the parent
    "//name/text()",
    "//person/@id",
    "/site/people/person/name",
    "//person[name]",
    "/site/regions/item[price > 8]/name/text()",
    "//item/price/text()",
    "//group//name/text()",
    "//item[name = 'Lamp']/@id",
    "//name/parent::*/@id",
]


def _element_id(xml, tag):
    """Global id of the first ``tag`` element of the first document."""
    return next(
        node.node_id
        for node in parse_document(xml).iter_elements()
        if node.name == tag
    )


_STORED = [("BASE", BASE), ("OTHER", OTHER)]
_GROUPED = ("GROUPED", GROUPED)
_GROUPED_TOO = ("GROUPED_TOO", GROUPED_TOO)

#: name -> (the ``(name, xml)`` documents in the store going in, the
#: mutation, the documents the store holds once it is through).  Every
#: store is bulk-loaded, so its statistics are fresh going in.
CUTS = {
    "first_bulk_load": (
        [],
        lambda store: store.bulk_load(_parsed([_STORED[0], _GROUPED])),
        [_STORED[0], _GROUPED],
    ),
    "load": (
        _STORED,
        lambda store: store.load(*_parsed([_GROUPED])),
        [*_STORED, _GROUPED],
    ),
    "bulk_load": (
        _STORED,
        lambda store: store.bulk_load(_parsed([_GROUPED, _GROUPED_TOO])),
        [*_STORED, _GROUPED, _GROUPED_TOO],
    ),
    "delete_document": (
        _STORED,
        lambda store: store.delete_document(2),
        _STORED[:1],
    ),
    "append_subtree": (
        _STORED,
        lambda store: store.append_subtree(
            _element_id(BASE, "people"), parse_fragment(GROUP)
        ),
        [("BASE", BASE_APPENDED), _STORED[1]],
    ),
    "delete_subtree": (
        _STORED,
        lambda store: store.delete_subtree(_element_id(BASE, "item")),
        [("BASE", BASE_PRUNED), _STORED[1]],
    ),
    "update_text": (
        _STORED,
        lambda store: store.update_text(_element_id(BASE, "name"), "Zed"),
        [("BASE", BASE_RENAMED), _STORED[1]],
    ),
}


def _parsed(named):
    return [parse_document(xml, name=name) for name, xml in named]


def _cut_store(path, going_in):
    """A file store holding ``going_in``, whose schema admits every
    document and fragment of CUTS."""
    db = Database.open(path)
    store = ShreddedStore.create(
        db,
        infer_schema(
            _parsed([*_STORED, _GROUPED, _GROUPED_TOO, ("", BASE_APPENDED)])
        ),
    )
    if going_in:
        store.bulk_load(_parsed(going_in))
        assert not store.statistics_stale
    return store


#: The child: open the store, arm the cut, mutate, die at it.  The
#: *commit point* is the statement that ends the outermost transaction —
#: the savepoint's RELEASE, or a ``commit()`` while one is open.
#: ``before`` dies as that statement is about to run, ``after`` at the
#: next call the store makes on its connection once it has returned.
_CHILD = """
import os, sys
from repro import Database, ShreddedStore
from tests.resilience.test_load_matrix import CUTS

path, name, cut = sys.argv[1:]
store = ShreddedStore.open(Database.open(path))
committed = False

def armed(method):
    original = getattr(Database, method)
    def call(self, *args, **kwargs):
        global committed
        if committed:
            os._exit(9 if cut == "after" else 1)
        commits = self.connection.in_transaction and (
            method == "commit" or str(args[0]).startswith("RELEASE")
        )
        if commits and cut == "before":
            os._exit(9)
        result = original(self, *args, **kwargs)
        committed = commits
        return result
    setattr(Database, method, call)

for method in ("execute", "executemany", "commit"):
    armed(method)
CUTS[name][1](store)
os._exit(0)
"""


def _signature(nodes_or_rows):
    """Values where the query asks for values, a count where it asks
    for nodes (a subtree mutator does not renumber, so ids differ from
    a fresh parse of the same document)."""
    values = [
        None if isinstance(item, ElementNode) else item.value
        for item in nodes_or_rows
    ]
    if all(value is None for value in values):
        return len(values)
    return sorted(values)


class TestCutMatrix:
    @pytest.mark.parametrize("cut", ["before", "after"])
    @pytest.mark.parametrize("name", sorted(CUTS))
    def test_a_death_at_the_commit_leaves_one_consistent_state(
        self, name, cut, tmp_path
    ):
        going_in, _, through = CUTS[name]
        path = str(tmp_path / "store.db")
        store = _cut_store(path, going_in)
        generation = store.generation
        store.db.close()

        root = os.path.abspath(os.path.join(__file__, "..", "..", ".."))
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, path, name, cut],
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join([root, *sys.path]),
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 9, child.stderr[-2000:]

        db = Database.open(path)
        store = ShreddedStore.open(db)
        assert store.verify_integrity() == []
        # Generation, `docs` and rows tell of the same state ...
        expected = through if cut == "after" else going_in
        assert store.generation == generation + (cut == "after")
        assert [
            row[0] for row in db.query("SELECT name FROM docs ORDER BY id")
        ] == [name for name, _ in expected]
        oracles = [NativeEngine(document) for document in _parsed(expected)]
        assert sum(store.relation_counts().values()) == sum(
            oracle.document.element_count() for oracle in oracles
        )
        # ... and so does the summary: exact, or not vouched for (which
        # only a committed subtree / value mutator brings about).
        recomputed = collect_summary(db, store.mapping, (0, 0))
        summary = store.path_summary()
        if summary is None:
            assert not going_in or (
                cut == "after"
                and name in ("append_subtree", "delete_subtree", "update_text")
            )
        else:
            assert summary.stats == recomputed.stats
            assert summary.document_count == recomputed.document_count
            assert summary.relation_counts == recomputed.relation_counts
        # The answers: as reopened, then with statistics collected anew.
        for collected in (False, True):
            if collected:
                store.collect_statistics()
            engine = PPFEngine(store)
            for xpath in CUT_QUERIES:
                wanted = [
                    node for oracle in oracles for node in oracle.execute(xpath)
                ]
                assert _signature(engine.execute(xpath).rows) == _signature(
                    wanted
                ), (xpath, collected)
        db.close()


class TestOneTransaction:
    @pytest.mark.parametrize("name", sorted(CUTS))
    def test_every_mutator_is_one_savepoint(self, name, tmp_path):
        going_in, mutate, _ = CUTS[name]
        store = _cut_store(str(tmp_path / "store.db"), going_in)
        connection = store.db.connection
        seen = []
        connection.set_trace_callback(seen.append)
        mutate(store)
        connection.set_trace_callback(None)
        control = ("BEGIN", "COMMIT", "END", "SAVEPOINT", "RELEASE", "ROLLBACK")
        assert [s for s in seen if s.upper().startswith(control)] == [
            'SAVEPOINT "repro_mutation"',
            'RELEASE "repro_mutation"',
        ]
        assert not connection.in_transaction
        store.db.close()


class TestWrittenOnce:
    def test_one_load_transaction_in_the_tree(self):
        """One ``.savepoint(`` call site in ``repro.storage`` outside the
        facade that defines it — ``_mutation`` — which also holds the one
        mutation ``commit()`` of ``repro.storage`` + ``repro.stats`` (the
        others: two ``create`` classmethods and ``collect_statistics``);
        no import of the serving layer from below it; and no trace of
        the deleted ``chunk_rows`` knob or the per-mutator protocol."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        savepoints, serving_imports, commits = [], [], []
        for path in sorted(
            [*(root / "storage").glob("*.py"), *(root / "stats").glob("*.py")]
        ):
            if path.name in ("database.py", "accel.py"):
                continue
            for function in ast.walk(ast.parse(path.read_text())):
                if isinstance(function, ast.FunctionDef):
                    commits += [
                        function.name
                        for node in ast.walk(function)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "attr", "") == "commit"
                    ]
        assert sorted(commits) == [
            "_mutation", "collect_statistics", "create", "create"
        ]
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
        sources = {
            str(path.relative_to(root)): path.read_text()
            for path in sorted(root.rglob("*.py"))
        }
        for gone in (
            "chunk_rows",
            "_after_load",
            "_mark_documents_stale",
            "_stats_apply_documents",
            "_stats_apply_removal",
        ):
            assert [name for name, text in sources.items() if gone in text] == []
        # What is left of `_bump_generation` (the fleet's registry
        # counter) commits nothing.
        for name, text in sources.items():
            for node in ast.walk(ast.parse(text)):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "_bump_generation"
                ):
                    assert "commit" not in ast.unparse(node), name
