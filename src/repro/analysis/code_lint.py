"""Project-rule enforcement over the Python sources (the ``CodeLinter``).

An :mod:`ast`-based checker for the invariants the resilience and
serving layers rely on but no off-the-shelf linter knows about:

``CA001`` **raw sqlite3 entry points** — ``sqlite3.connect()`` (or any
    other connection-producing ``sqlite3.*`` call) may appear only in
    the storage facade and the fault-injection harness; everything else
    must go through :class:`~repro.storage.database.Database` so query
    guards, retry and timeouts apply.  ``# static-ok: raw-sqlite``
    suppresses one reviewed site (ERROR).
``CA002`` **interpolated SQL** — no f-string, ``%``-formatted or
    ``str.format`` SQL handed to an execute/query method; bind
    parameters instead.  The storage facade itself (which centralizes
    the few identifier-quoting sites) is exempt, and a trailing
    ``# static-ok: sql-interp`` comment suppresses one call site after
    review (ERROR).
``CA003`` **mutation outside the mutation transaction** — in classes
    that run the store's mutation protocol (they define or enter
    ``self._mutation()``), any public instance method that itself
    executes INSERT/UPDATE/DELETE must do so inside ``with
    self._mutation(``: that is what bumps the generation and commits
    it with the rows, or serving-layer caches go stale.
    ``# static-ok: generation-bump`` on the ``def`` line (or a
    decorator line) suppresses (ERROR).

One reviewed call site opts out of one (or several) rules with a
trailing ``# static-ok: <rule>`` comment::

    db.execute(f"DROP INDEX {name}")  # static-ok: sql-interp
    conn = sqlite3.connect(path)  # static-ok: CA001, CA002 -- bootstrap shim

A pragma names rules by alias (``raw-sqlite``, ``sql-interp``,
``generation-bump``) or by literal code (``CA002``); several rules
separate with commas, and anything after the first word of each segment
is a free-form justification.  Line matching is exact: a pragma
suppresses findings *at its own line* plus, for CA003, the ``def`` line
reached through its decorators — a pragma on a ``with`` header never
silences findings raised inside the block.

The linter is wired into the ``analysis`` CI job over ``src/`` and is
available ad hoc via ``repro lint --code <path>``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Union

from repro.analysis.report import Report, Severity

_ANALYZER = "code-lint"

#: The comment marker every suppression pragma carries.
_PRAGMA_MARKER = "static-ok:"

#: Readable aliases for rule codes.  Literal codes always work too.
_PRAGMA_ALIASES: dict[str, str] = {
    "raw-sqlite": "CA001",
    "sql-interp": "CA002",
    "generation-bump": "CA003",
}

_CODE_RE = re.compile(r"^[A-Z]{2}\d{3}$")

#: Files allowed to call ``sqlite3.connect`` directly: the storage
#: facade, and the fault-injection harness that wraps raw connections
#: on purpose.
_RAW_SQLITE_ALLOWED = frozenset({"database.py", "faults.py"})

#: Files exempt from CA002 — the facade quotes identifiers centrally.
_SQL_INTERP_ALLOWED = frozenset({"database.py"})

#: Methods that accept a SQL string as their first argument.
_SQL_SINKS = frozenset(
    {
        "execute",
        "executemany",
        "executescript",
        "query",
        "query_one",
        "guarded_query",
    }
)

_DML_PREFIXES = ("INSERT", "UPDATE", "DELETE")


def _codes_in(comment: str) -> frozenset[str]:
    """Rule codes named by one comment's pragma payload (may be empty)."""
    marker = comment.find(_PRAGMA_MARKER)
    if marker < 0:
        return frozenset()
    payload = comment[marker + len(_PRAGMA_MARKER):]
    codes = set()
    for segment in payload.split(","):
        words = segment.split()
        if not words:
            continue
        token = words[0].strip()
        upper = token.upper()
        if _CODE_RE.match(upper):
            codes.add(upper)
        elif token.lower() in _PRAGMA_ALIASES:
            codes.add(_PRAGMA_ALIASES[token.lower()])
    return frozenset(codes)


class PragmaIndex:
    """Per-module map from rule code to the lines that suppress it."""

    def __init__(self, source: str) -> None:
        self._by_code: dict[str, set[int]] = {}
        for number, line in enumerate(source.splitlines(), start=1):
            if "#" not in line:
                continue
            for code in _codes_in(line.split("#", 1)[1]):
                self._by_code.setdefault(code, set()).add(number)

    def suppresses(self, code: str, *lines: int) -> bool:
        """True when any of ``lines`` carries a pragma for ``code``."""
        suppressed = self._by_code.get(code, set())
        return any(line in suppressed for line in lines)


def _is_interpolated_string(node: ast.expr) -> bool:
    """f-string with placeholders, ``"..." % ...`` or ``"...".format(...)``."""
    if isinstance(node, ast.JoinedStr):
        return any(
            isinstance(part, ast.FormattedValue) for part in node.values
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _is_string_like(node.left)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return _is_string_like(node.func.value)
    return False


def _is_string_like(node: ast.expr) -> bool:
    if isinstance(node, ast.JoinedStr):
        return True
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _has_decorator(func: ast.FunctionDef, *names: str) -> bool:
    for decorator in func.decorator_list:
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Name) and target.id in names:
            return True
        if isinstance(target, ast.Attribute) and target.attr in names:
            return True
    return False


def _enters_mutation(node: ast.AST) -> bool:
    """True for a ``with self._mutation(...)`` statement."""
    return isinstance(node, ast.With) and any(
        isinstance(item.context_expr, ast.Call)
        and isinstance(item.context_expr.func, ast.Attribute)
        and item.context_expr.func.attr == "_mutation"
        for item in node.items
    )


def _dml_outside_mutation(node: ast.AST) -> bool:
    """True if ``node`` itself issues INSERT/UPDATE/DELETE SQL anywhere
    but under a ``with self._mutation(``."""
    if _enters_mutation(node):
        return False
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _SQL_SINKS
        and any(
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and child.value.lstrip()[:6].upper().startswith(_DML_PREFIXES)
            for child in ast.walk(node)
        )
    ):
        return True
    return any(
        _dml_outside_mutation(child) for child in ast.iter_child_nodes(node)
    )


class CodeLinter:
    """Checks the project rules over one or more Python source trees."""

    def lint_source(self, source: str, filename: str) -> Report:
        """Lint one module's source text."""
        report = Report()
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            report.add(
                _ANALYZER,
                "CA000",
                Severity.ERROR,
                f"module does not parse: {exc.msg}",
                f"{filename}:{exc.lineno or 0}",
            )
            return report
        basename = Path(filename).name
        pragmas = PragmaIndex(source)
        self._check_raw_sqlite(tree, basename, filename, pragmas, report)
        self._check_sql_interpolation(
            tree, basename, filename, pragmas, report
        )
        self._check_generation_bumps(tree, filename, pragmas, report)
        return report

    def lint_file(self, path: Union[str, Path]) -> Report:
        """Lint one file."""
        path = Path(path)
        return self.lint_source(path.read_text(encoding="utf-8"), str(path))

    def lint_paths(self, paths: Iterable[Union[str, Path]]) -> Report:
        """Lint files and/or directory trees (``**/*.py``), visiting
        each distinct file once even when the path arguments overlap."""
        report = Report()
        seen: set[Path] = set()
        for entry in paths:
            entry = Path(entry)
            files = (
                sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
            )
            for file in files:
                marker = file.resolve()
                if marker in seen:
                    continue
                seen.add(marker)
                report.extend(self.lint_file(file))
        return report

    # -- CA001 -------------------------------------------------------------------

    def _check_raw_sqlite(
        self,
        tree: ast.AST,
        basename: str,
        filename: str,
        pragmas: PragmaIndex,
        report: Report,
    ) -> None:
        if basename in _RAW_SQLITE_ALLOWED:
            return
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "sqlite3"
                and node.func.attr in ("connect", "Connection")
            ):
                continue
            if pragmas.suppresses("CA001", node.lineno):
                continue
            report.add(
                _ANALYZER,
                "CA001",
                Severity.ERROR,
                f"raw sqlite3.{node.func.attr}() outside the storage "
                "facade bypasses query guards, retry and timeouts",
                f"{filename}:{node.lineno}",
                "resilience layer contract",
            )

    # -- CA002 -------------------------------------------------------------------

    def _check_sql_interpolation(
        self,
        tree: ast.AST,
        basename: str,
        filename: str,
        pragmas: PragmaIndex,
        report: Report,
    ) -> None:
        if basename in _SQL_INTERP_ALLOWED:
            return
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SQL_SINKS
                and node.args
            ):
                continue
            if pragmas.suppresses("CA002", node.lineno):
                continue
            if _is_interpolated_string(node.args[0]):
                report.add(
                    _ANALYZER,
                    "CA002",
                    Severity.ERROR,
                    f"interpolated SQL passed to .{node.func.attr}(); "
                    "use bind parameters, or mark a reviewed "
                    "identifier-quoting site with "
                    "`# static-ok: sql-interp`",
                    f"{filename}:{node.lineno}",
                    "SQL injection hygiene",
                )

    # -- CA003 -------------------------------------------------------------------

    def _check_generation_bumps(
        self,
        tree: ast.AST,
        filename: str,
        pragmas: PragmaIndex,
        report: Report,
    ) -> None:
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            methods = [
                n for n in cls.body if isinstance(n, ast.FunctionDef)
            ]
            if not any(
                m.name == "_mutation" or any(map(_enters_mutation, ast.walk(m)))
                for m in methods
            ):
                continue
            for method in methods:
                if method.name.startswith("_"):
                    continue
                if _has_decorator(method, "classmethod", "staticmethod"):
                    # No instance yet — generation state does not exist.
                    continue
                anchor_lines = (
                    method.lineno,
                    *(d.lineno for d in method.decorator_list),
                )
                if pragmas.suppresses("CA003", *anchor_lines):
                    continue
                if _dml_outside_mutation(method):
                    report.add(
                        _ANALYZER,
                        "CA003",
                        Severity.ERROR,
                        f"{cls.name}.{method.name} mutates the store "
                        "outside `with self._mutation()`; the generation "
                        "is not bumped with the rows and serving caches "
                        "keyed on it go stale",
                        f"{filename}:{method.lineno}",
                        "serving-layer cache invalidation contract",
                    )


def lint_code(paths: Iterable[Union[str, Path]]) -> Report:
    """One-shot convenience wrapper around :class:`CodeLinter`."""
    return CodeLinter().lint_paths(paths)
