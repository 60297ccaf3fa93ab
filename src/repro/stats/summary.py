"""The :class:`PathSummary` value object and its per-path records.

Everything here is immutable, pure-Python math over counts; collection
and persistence against a store live in
:mod:`repro.stats.maintenance`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional


#: Distinct patterns one summary remembers answers for (the size of the
#: storage layer's compiled-regex cache); a stream of never-repeating
#: path patterns must not grow a long-lived summary without bound.
_MATCH_MEMO_LIMIT = 512


@dataclass(frozen=True)
class PathStats:
    """Statistics for one root-to-node path of the `Paths` relation."""

    path: str
    #: Number of element rows carrying this ``path_id``.
    element_count: int
    #: Number of distinct documents containing the path.
    doc_count: int
    #: Number of those rows with a non-NULL stored text value.
    value_count: int

    @property
    def value_ratio(self) -> float:
        """Fraction of elements on this path carrying a text value."""
        if self.element_count <= 0:
            return 0.0
        return self.value_count / self.element_count


@dataclass(frozen=True)
class StatsState:
    """The versioning record persisted next to the per-path counts.

    ``epoch`` increments on every statistics write; ``generation`` is
    the store's mutation counter at the time of that write.  Statistics
    are *stale* exactly when the recorded generation no longer matches
    the store's — the stores then hand out no summary at all, ``repro
    shard info`` / ``repro stats`` say so, and ``collect_statistics``
    / ``ShardedStore.analyze`` refresh them.
    """

    epoch: int
    generation: int
    document_count: int
    relation_counts: Mapping[str, int]

    @property
    def version(self) -> tuple[int, int]:
        """The ``(epoch, generation)`` pair used in cache fingerprints."""
        return (self.epoch, self.generation)


@dataclass(frozen=True)
class PathSummary:
    """Per-path cardinalities of one store, plus relation row counts."""

    #: ``(epoch, generation)`` at collection/refresh time.
    version: tuple[int, int]
    #: Number of loaded documents.
    document_count: int
    #: Row count per mapping relation (table name -> rows).
    relation_counts: Mapping[str, int]
    #: Per-path statistics, keyed by the path string.
    stats: Mapping[str, PathStats] = field(default_factory=dict)
    #: ``matching_paths`` answers by regex text.  The summary never
    #: changes, so an answer stays right for the object's lifetime —
    #: and :meth:`plus` derives its successor's from it.
    _matches: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Last label -> stored paths ending in it, built on first use.
    _by_leaf: dict[str, list[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- totals -------------------------------------------------------------

    @property
    def total_elements(self) -> int:
        """Total element rows across all paths."""
        return sum(s.element_count for s in self.stats.values())

    @property
    def path_count(self) -> int:
        """Number of distinct paths with at least one element."""
        return len(self.stats)

    def relation_count_for(self, table: str) -> Optional[int]:
        """Row count of one mapping relation, if known."""
        return self.relation_counts.get(table)

    # -- arithmetic ---------------------------------------------------------

    def plus(
        self,
        per_path: Mapping[str, tuple[int, int, int]],
        per_relation: Mapping[str, int],
        documents: int = 0,
        version: Optional[tuple[int, int]] = None,
    ) -> "PathSummary":
        """This summary with signed per-path ``(elements, documents,
        values)`` and per-relation row deltas applied.  No count goes
        below zero, and a path whose element count reaches zero is
        dropped.  The successor inherits the :meth:`matching_paths`
        answers this one holds, corrected for the paths the deltas
        added or removed: a regex asked of every summary in a chain of
        mutations scans the path list once, not once per mutation."""
        stats = dict(self.stats)
        added: list[str] = []
        removed: set[str] = set()
        for path, (elements, docs, values) in per_path.items():
            old = stats.get(path)
            if old is not None:
                elements += old.element_count
                docs += old.doc_count
                values += old.value_count
            if elements > 0:
                stats[path] = PathStats(
                    path, elements, max(docs, 0), max(values, 0)
                )
                if old is None:
                    added.append(path)
            elif stats.pop(path, None) is not None:
                removed.add(path)
        relation_counts = dict(self.relation_counts)
        for table, rows in per_relation.items():
            relation_counts[table] = max(
                relation_counts.get(table, 0) + rows, 0
            )
        successor = PathSummary(
            version=self.version if version is None else version,
            document_count=max(self.document_count + documents, 0),
            relation_counts=relation_counts,
            stats=stats,
        )
        # A copy first: a reader thread may be memoizing an answer on
        # this summary while the writer derives the next one.
        matches = dict(self._matches)
        if added or removed:
            for text, matched in matches.items():
                search = re.compile(text).search
                matches[text] = tuple(
                    sorted(
                        [p for p in matched if p not in removed]
                        + [p for p in added if search(p)]
                    )
                )
        successor._matches.update(matches)
        return successor

    # -- per-path lookups ---------------------------------------------------

    def count_for(self, path: str) -> int:
        """Element count of one literal path (0 when absent)."""
        stats = self.stats.get(path)
        return stats.element_count if stats is not None else 0

    def value_ratio(self, path: str) -> float:
        """Value-presence ratio of one path (0.0 when absent)."""
        stats = self.stats.get(path)
        return stats.value_ratio if stats is not None else 0.0

    # -- pattern matching ---------------------------------------------------

    def matching_paths(
        self, pattern: "str | re.Pattern[str]"
    ) -> tuple[str, ...]:
        """Stored paths satisfying a Table 1 regex (``re.search``, the
        exact semantics of the SQL ``regexp_like`` filter), sorted.
        The path list is scanned once per distinct pattern."""
        text = pattern if isinstance(pattern, str) else pattern.pattern
        matched = self._matches.get(text)
        if matched is None:
            search = re.compile(pattern).search
            matched = tuple(sorted(p for p in self.stats if search(p)))
            if len(self._matches) >= _MATCH_MEMO_LIMIT:
                self._matches.clear()
            self._matches[text] = matched
        return matched

    def paths_named(self, names: "frozenset[str]") -> set[str]:
        """Stored paths whose last label is one of ``names``: every
        path a row of those elements can carry."""
        if not self._by_leaf and self.stats:
            for path in self.stats:
                self._by_leaf.setdefault(
                    path.rsplit("/", 1)[-1], []
                ).append(path)
        return {
            path for name in names for path in self._by_leaf.get(name, ())
        }

    def count_matching(self, pattern: "str | re.Pattern[str]") -> int:
        """Total element count over the paths a regex matches."""
        return sum(
            self.count_for(p) for p in self.matching_paths(pattern)
        )

    # -- structure ----------------------------------------------------------

    def child_fanout(self, path: str) -> float:
        """Mean number of children per element of ``path``, derived
        from the path strings themselves (the parent of ``/a/b/c`` is
        ``/a/b``, so no extra bookkeeping is stored)."""
        parent_count = self.count_for(path)
        if parent_count <= 0:
            return 0.0
        prefix = path + "/"
        children = sum(
            s.element_count
            for p, s in self.stats.items()
            if p.startswith(prefix) and "/" not in p[len(prefix):]
        )
        return children / parent_count

    def top_paths(self, k: int = 10) -> list[PathStats]:
        """The ``k`` fattest paths by element count (ties by path)."""
        ranked = sorted(
            self.stats.values(),
            key=lambda s: (-s.element_count, s.path),
        )
        return ranked[:k]
