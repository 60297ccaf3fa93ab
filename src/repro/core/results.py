"""The result path: raw records → document-ordered :class:`QueryResult`.

Every execution path — single store, native fallback, accelerator
baseline, shard fleet — ends here.  XPath results are duplicate-free and
in document order; the translator already puts both properties into the
plan tail (``ORDER BY doc_id, dewey_pos``, paper Section 4.3; ``UNION``
for a split, Section 4.4) and :class:`~repro.core.translator.
TranslationResult` reads both back off the statement, so
:func:`in_document_order` repeats in Python only the step its
caller could not prove: ``ordered`` / ``distinct`` are arguments, never
read off a translation here, because only the caller knows whether it
ran the translation's SQL as one statement or piecewise.
"""

from __future__ import annotations

import itertools
import operator
from typing import (
    Any,
    Iterable,
    Iterator,
    Literal,
    NamedTuple,
    Optional,
    Sequence,
)

#: The closed vocabulary of :attr:`QueryResult.served_by` values.  Every
#: execution path must report one of exactly these strings — ``"sql"``
#: (the translated statement ran on a single store), ``"native"`` (the
#: in-memory evaluator answered, either as explicit baseline or as the
#: degradation ladder's last rung) or ``"shards"`` (scatter-gather over
#: the sharded worker fleet, including the asyncio front door).  The
#: vocabulary is enforced twice: :class:`QueryResult` validates at
#: construction, and the oracle test matrix asserts every engine's
#: results stay inside it.
SERVED_BY: frozenset[str] = frozenset({"sql", "native", "shards"})

#: Static typing twin of :data:`SERVED_BY` (keep the two in sync).
ServedBy = Literal["sql", "native", "shards"]


class ResultRow(NamedTuple):
    """One result element (or projected value).

    A tuple: immutable, hashable, unpacks as ``id, doc_id, dewey_pos,
    value`` and compares equal to the plain 4-tuple."""

    id: int
    doc_id: int
    dewey_pos: bytes
    value: Optional[str] = None


class QueryResult:
    """Document-ordered result of one query.

    **Completeness contract** (sharded serving): a result with
    ``complete=True`` covers every shard/document of the store.  When
    the sharded engine degrades to partial results, ``complete`` is
    ``False`` and :attr:`failed_shards` lists the shard indexes whose
    rows are missing — the rows that *are* present are still correct
    and document-ordered.  Single-store engines always return complete
    results (or raise).
    """

    def __init__(
        self,
        rows: list[ResultRow],
        projection: str,
        served_by: str = "sql",
        complete: bool = True,
        failed_shards: Optional[list[int]] = None,
    ):
        if served_by not in SERVED_BY:
            raise ValueError(
                f"served_by must be one of {sorted(SERVED_BY)}, "
                f"got {served_by!r}"
            )
        self.rows = rows
        #: ``nodes``, ``text`` or ``attribute``.
        self.projection = projection
        #: Which execution path produced the rows: ``"sql"`` (the
        #: translated statement ran on the store), ``"native"`` (the
        #: in-memory evaluator answered after SQL execution timed out or
        #: exhausted its retries) or ``"shards"`` (scatter-gather over
        #: the sharded worker fleet).  Always a member of the closed
        #: :data:`SERVED_BY` vocabulary.
        self.served_by = served_by
        #: ``False`` when one or more shards could not contribute rows
        #: (see :attr:`failed_shards`); always ``True`` for single-store
        #: execution.
        self.complete = complete
        #: Shard indexes missing from a partial result (empty when
        #: :attr:`complete`).
        self.failed_shards: list[int] = list(failed_shards or [])

    @property
    def ids(self) -> list[int]:
        """Global element ids, in document order."""
        return [row.id for row in self.rows]

    @property
    def values(self) -> list[str]:
        """Projected text/attribute values (``text``/``attribute``
        projections only), **excluding** ``None`` entries.

        For engine-served results the two lists are in fact always
        aligned: the translator emits ``value IS NOT NULL`` on every
        value projection (an element without text has no text *node*,
        so it is not a result at all), and the native fallback only
        produces real text/attribute nodes.  The ``None`` filter here
        is therefore a guarantee, not a silent row drop — but rows
        constructed by hand (or future value-producing paths) may carry
        ``None``, and then ``values`` is shorter than :attr:`ids`; use
        :attr:`values_aligned` when positional correspondence with
        ``ids`` must survive that.
        """
        return [row.value for row in self.rows if row.value is not None]

    @property
    def values_aligned(self) -> list[Optional[str]]:
        """Projected values positionally aligned with :attr:`ids`:
        exactly one entry per result row, with an explicit ``None``
        sentinel wherever a row carries no value."""
        return [row.value for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryResult({len(self.rows)} rows, {self.projection!r})"


# What ``ResultRow(...)`` does after binding its arguments; calling it
# directly halves the per-row cost of the comprehensions below.
_new_row = tuple.__new__

#: Sort key of document order: ``(doc_id, dewey_pos)`` of a row.
_document_key = operator.itemgetter(1, 2)


def rows_from_records(
    records: Iterable[Sequence[Any]], wants_value: bool
) -> list[ResultRow]:
    """Wrap SQL records — ``(id, doc_id, dewey_pos)``, plus ``value``
    when ``wants_value`` — into rows, in the order given.

    ``dewey_pos`` is taken as it comes: every store declares the column
    ``BLOB`` and ``sqlite3`` hands BLOBs over as ``bytes``.  A record
    of any other width raises ``ValueError``.
    """
    if wants_value:
        return [
            _new_row(
                ResultRow,
                (row_id, doc_id, dewey, None if value is None else str(value)),
            )
            for row_id, doc_id, dewey, value in records
        ]
    return [
        _new_row(ResultRow, (row_id, doc_id, dewey, None))
        for row_id, doc_id, dewey in records
    ]


def in_document_order(
    rows: list[ResultRow], *, ordered: bool, distinct: bool
) -> list[ResultRow]:
    """``rows`` with one row per element id, sorted by ``(doc_id,
    dewey_pos)`` — skipping whichever step the caller vouches for.

    :param ordered: the rows already arrive in document order (one
        statement ending in ``ORDER BY doc_id, dewey_pos`` produced
        them).
    :param distinct: no element id occurs twice.  The first occurrence
        wins otherwise; the pass keeps the rows' relative order.
    """
    if not distinct:
        unique: dict[int, ResultRow] = {}
        for row in rows:
            unique.setdefault(row[0], row)
        rows = list(unique.values())
    if not ordered:
        rows = sorted(rows, key=_document_key)
    return rows


def merge_document_runs(
    runs: list[tuple[int, list[ResultRow]]],
    *,
    ordered: bool,
    distinct: bool,
) -> list[ResultRow]:
    """Concatenate per-document runs ``(global doc_id, rows)`` gathered
    from several shards into one document-ordered list.

    Shards hold disjoint documents and each answers under the same
    ``ORDER BY``, so ordering the handful of runs by ``doc_id`` orders
    every row; there is nothing to merge row by row.  A ``doc_id`` that
    names two runs (a shard's answer was not grouped by document) voids
    that argument and the rows are sorted instead.
    """
    runs = sorted(runs, key=operator.itemgetter(0))
    disjoint = all(
        before[0] != after[0] for before, after in zip(runs, runs[1:])
    )
    rows = list(itertools.chain.from_iterable(run for _, run in runs))
    return in_document_order(
        rows, ordered=ordered and disjoint, distinct=distinct
    )
