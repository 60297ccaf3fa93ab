"""The repository's own rules over ``src/repro``, read with :mod:`ast`.

``CA001`` **raw sqlite3 connections** — ``sqlite3.connect()`` /
    ``sqlite3.Connection()`` outside the storage facade skip what
    ``Database.open`` sets up (the statement cache, WAL) and the query
    guards, retry and timeouts of every connection not wrapped in it.
``CA002`` **interpolated SQL** — an f-string, ``%``-formatted or
    ``str.format`` string handed to an execute/query method; bind
    parameters instead.
``CA003`` **a mutation outside the mutation transaction** — in a class
    that runs the store's mutation protocol (it defines or enters
    ``self._mutation()``), a public instance method that executes
    INSERT/UPDATE/DELETE must do so inside ``with self._mutation(``:
    that is what bumps the generation and commits it with the rows.

Each rule was kept because its witness bug (EXPERIMENTS.md "PR 25")
passes the rest of tier-1 and breaks something real: a connection
without the open-time settings, a load of ``O'Brien.xml`` that fails
with a syntax error, an ``update_attribute`` that serving caches never
see and that a reopen loses.  Every witness is below, and each rule
must flag it.

Reviewed sites are in :data:`ALLOWED`, keyed by module
and function; the tests fail on a flagged site outside it and, one
test per entry, on an entry that no longer names a flagged site.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from pathlib import Path
from typing import Callable, Iterator

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Methods that take a SQL string as their first argument.
SQL_SINKS = frozenset(
    {"execute", "executemany", "executescript", "query", "query_one",
     "guarded_query"}
)

DML_PREFIXES = ("INSERT", "UPDATE", "DELETE")

#: Reviewed sites: rule -> {(module, function)}.
ALLOWED: dict[str, set[tuple[str, str]]] = {
    # The storage facade opens every connection; the fault-injection
    # harness wraps a raw in-memory one on purpose.
    "CA001": {
        ("repro.storage.database", "Database.memory"),
        ("repro.storage.database", "Database.open"),
        ("repro.resilience.faults", "FaultInjectingDatabase.memory"),
    },
    # Identifiers (relation, column, savepoint names) and integers the
    # code produced itself; SQLite binds neither as a parameter.
    "CA002": {
        ("repro.storage.database", "Database.__init__"),
        ("repro.storage.database", "Database.savepoint"),
        ("repro.storage.loading", "bulk_pragmas"),
        ("repro.storage.schema_aware", "ShreddedStore.delete_document"),
        ("repro.storage.schema_aware", "ShreddedStore.delete_subtree"),
        ("repro.storage.schema_aware", "ShreddedStore.update_text"),
        ("repro.storage.schema_aware", "ShreddedStore.update_attribute"),
    },
    "CA003": set(),
}

#: A finding: the qualified name of the function it is in, and its line.
Finding = tuple[str, int]

Scope = tuple[str, ...]


def _walk(node: ast.AST, scope: Scope = ()) -> Iterator[tuple[Scope, ast.AST]]:
    """Every node below ``node`` with the names of the classes and
    functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk(child, (*scope, child.name))
        else:
            yield from _walk(child, scope)


def _sink_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SQL_SINKS
    )


def _string_like(node: ast.expr) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def _interpolated(node: ast.expr) -> bool:
    """f-string with placeholders, ``"..." % ...`` or ``"...".format(...)``."""
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(part, ast.FormattedValue) for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _string_like(node.left)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and _string_like(node.func.value)
    )


def _enters_mutation(node: ast.AST) -> bool:
    """True for a ``with self._mutation(...)`` statement."""
    return isinstance(node, ast.With) and any(
        isinstance(item.context_expr, ast.Call)
        and isinstance(item.context_expr.func, ast.Attribute)
        and item.context_expr.func.attr == "_mutation"
        for item in node.items
    )


def _dml_outside_mutation(node: ast.AST) -> bool:
    """True if ``node`` issues INSERT/UPDATE/DELETE SQL anywhere but
    under a ``with self._mutation(``."""
    if _enters_mutation(node):
        return False
    if _sink_call(node) and any(
        isinstance(child, ast.Constant)
        and isinstance(child.value, str)
        and child.value.lstrip()[:6].upper().startswith(DML_PREFIXES)
        for child in ast.walk(node)
    ):
        return True
    return any(_dml_outside_mutation(child) for child in ast.iter_child_nodes(node))


def raw_sqlite(tree: ast.AST) -> list[Finding]:
    """CA001: ``sqlite3.connect(...)`` / ``sqlite3.Connection(...)``."""
    return [
        (".".join(scope), node.lineno)
        for scope, node in _walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "sqlite3"
        and node.func.attr in ("connect", "Connection")
    ]


def interpolated_sql(tree: ast.AST) -> list[Finding]:
    """CA002: an interpolated string as a SQL sink's first argument."""
    return [
        (".".join(scope), node.lineno)
        for scope, node in _walk(tree)
        if _sink_call(node) and node.args and _interpolated(node.args[0])
    ]


def mutation_outside_transaction(tree: ast.AST) -> list[Finding]:
    """CA003: a public method of a class on the mutation protocol that
    writes rows outside ``with self._mutation(``."""
    findings = []
    for scope, cls in _walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        if not any(
            m.name == "_mutation" or any(map(_enters_mutation, ast.walk(m)))
            for m in methods
        ):
            continue
        for method in methods:
            static = any(
                isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                for d in method.decorator_list
            )
            if not method.name.startswith("_") and not static and _dml_outside_mutation(method):
                findings.append((".".join((*scope, cls.name, method.name)), method.lineno))
    return findings


RULES: dict[str, Callable[[ast.AST], list[Finding]]] = {
    "CA001": raw_sqlite,
    "CA002": interpolated_sql,
    "CA003": mutation_outside_transaction,
}


def _modules() -> Iterator[tuple[str, ast.AST]]:
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        yield module.removesuffix(".__init__"), ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )


@functools.cache
def _flagged_in_src(rule: str) -> tuple[tuple[str, str, int], ...]:
    """Every site ``rule`` flags under ``src/repro``: (module, function, line)."""
    return tuple(
        (module, function, line)
        for module, tree in _modules()
        for function, line in RULES[rule](tree)
    )


@pytest.mark.parametrize("rule", sorted(RULES))
def test_src_flags_only_reviewed_sites(rule):
    unreviewed = [site for site in _flagged_in_src(rule) if site[:2] not in ALLOWED[rule]]
    assert not unreviewed, f"{rule} at (module, function, line): {unreviewed}"


REVIEWED = sorted((rule, *site) for rule, sites in ALLOWED.items() for site in sites)


@pytest.mark.parametrize(
    "rule, module, function",
    REVIEWED,
    ids=[f"{rule}-{function}" for rule, _, function in REVIEWED],
)
def test_reviewed_site_is_still_flagged(rule, module, function):
    """An allow-list entry must name a site the rule flags, or it is stale."""
    assert (module, function) in {site[:2] for site in _flagged_in_src(rule)}


def _flagged(rule: str, source: str) -> list[str]:
    return [function for function, _ in RULES[rule](ast.parse(textwrap.dedent(source)))]


#: (rule, source, the functions the rule must flag in it).
FLAGGED = {
    "CA001-witness-connect-opens-its-own-file": (
        "CA001",
        """
        def connect(path, *, config=None):
            policy = ResiliencePolicy()
            db = Database(sqlite3.connect(path, check_same_thread=False), policy=policy)
            return PPFEngine(ShreddedStore.open(db), config=config)
        """,
        ["connect"],
    ),
    "CA002-witness-document-name-in-the-docs-insert": (
        "CA002",
        """
        class _DocumentStore:
            def _load_documents(self, documents):
                for doc_id, name, base, count in documents:
                    self.db.execute(
                        f"INSERT INTO docs (id, name, base, node_count) "
                        f"VALUES (?, '{name}', ?, ?)",
                        (doc_id, base, count),
                    )
        """,
        ["_DocumentStore._load_documents"],
    ),
    "CA002-percent-format": (
        "CA002",
        """
        def f(db, table):
            db.query("SELECT * FROM %s" % table)
        """,
        ["f"],
    ),
    "CA002-str-format": (
        "CA002",
        """
        def f(db, table):
            db.query_one("SELECT * FROM {}".format(table))
        """,
        ["f"],
    ),
    "CA003-witness-update-attribute-outside-the-transaction": (
        "CA003",
        """
        class ShreddedStore(_DocumentStore):
            def update_text(self, global_id, value):
                info = self._locate(global_id).info
                with self._mutation():
                    self.db.execute(
                        f"UPDATE {info.table} SET text = ? WHERE id = ?",
                        (str(value), global_id),
                    )

            def update_attribute(self, global_id, name, value):
                info = self._locate(global_id).info
                column, _ = info.attr_column(name)
                self.db.execute(
                    f"UPDATE {info.table} SET {column} = ? WHERE id = ?",
                    (None if value is None else str(value), global_id),
                )
        """,
        ["ShreddedStore.update_attribute"],
    ),
    "CA003-write-before-entering-the-transaction": (
        "CA003",
        """
        class Derived(Base):
            def touch(self, row_id):
                with self._mutation():
                    self.db.execute("UPDATE t SET n = n + 1")

            def purge(self):
                self.db.execute("DELETE FROM t")
                with self._mutation():
                    pass
        """,
        ["Derived.purge"],
    ),
}


@pytest.mark.parametrize(
    "rule, source, functions", FLAGGED.values(), ids=list(FLAGGED)
)
def test_rule_flags(rule, source, functions):
    assert _flagged(rule, source) == functions


#: (rule, source) the rule must pass.
PASSED = {
    "CA001-error-types": (
        "CA001",
        """
        try:
            pass
        except sqlite3.OperationalError:
            pass
        """,
    ),
    "CA002-bind-parameters": (
        "CA002",
        """
        def f(db, value):
            db.execute("SELECT * FROM t WHERE x = ?", (value,))
        """,
    ),
    "CA002-fstring-without-placeholder": (
        "CA002",
        """
        def f(db):
            db.execute(f"SELECT 1")
        """,
    ),
    "CA003-writes-inside-the-transaction-and-classmethod": (
        "CA003",
        """
        class Store:
            def _mutation(self):
                self.generation += 1

            def rename(self, row_id, name):
                with self._mutation() as mutation:
                    if name:
                        self.db.execute(
                            "UPDATE t SET name = ? WHERE id = ?", (name, row_id)
                        )

            @classmethod
            def create(cls, db):
                db.execute("INSERT INTO meta VALUES (1)")
                return cls()
        """,
    ),
    "CA003-class-without-the-protocol": (
        "CA003",
        """
        class Plain:
            def delete_row(self, db, row_id):
                db.execute("DELETE FROM t WHERE id = ?", (row_id,))
        """,
    ),
    "CA003-select-only": (
        "CA003",
        """
        class Store:
            def _mutation(self):
                pass

            def count(self):
                return self.db.query_one("SELECT COUNT(*) FROM t")
        """,
    ),
}


@pytest.mark.parametrize("rule, source", PASSED.values(), ids=list(PASSED))
def test_rule_passes(rule, source):
    assert _flagged(rule, source) == []
