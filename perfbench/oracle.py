"""The result oracle: native-evaluator digests and the per-op check.

A digest is ``[row count, hash of the document-ordered ids and values]``.
The set-up child computes it with ``repro.baselines.native.NativeEngine``
— an evaluator that shares no code with the SQL path — and the run child
recomputes it from each ``QueryResult`` after the clock has stopped.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterable, Sequence

from repro.baselines.native import NativeEngine
from repro.xmltree.nodes import Document

from perfbench.inputs import native_rows


def digest(ids: Sequence[int], values: Iterable[str | None]) -> list:
    """``[count, hex]`` over ids and values in the order given."""
    hasher = hashlib.blake2b(digest_size=12)
    hasher.update(array("q", ids).tobytes())
    for value in values:
        hasher.update(b"\x00" if value is None else value.encode() + b"\x01")
    return [len(ids), hasher.hexdigest()]


def result_digest(result) -> list:
    """Digest of a ``QueryResult`` as returned (no re-sorting: a result
    out of document order must not match)."""
    rows = result.rows
    return digest([row.id for row in rows], [row.value for row in rows])


def native_digests(
    documents: Sequence[Document],
    bases: Sequence[int],
    queries: Sequence[tuple[str, str]],
) -> dict[str, list]:
    """Per query id: the digest of the native result over ``documents``
    concatenated in the order given, document ``i``'s ids offset by
    ``bases[i]`` (the global-id scheme of both store kinds)."""
    natives = [NativeEngine(document) for document in documents]
    out = {}
    for qid, xpath in queries:
        ids: list[int] = []
        values: list[str | None] = []
        for native, base in zip(natives, bases):
            for row_id, value, _ in native_rows(native, xpath, base):
                ids.append(row_id)
                values.append(value)
        out[qid] = digest(ids, values)
    return out


def native_counts(
    document: Document, queries: Sequence[tuple[str, str]]
) -> list[int]:
    """Result sizes of ``queries`` on one document (``ingest_churn``
    sums them over whichever documents are resident)."""
    native = NativeEngine(document)
    return [len(native_rows(native, xpath)) for _, xpath in queries]


def in_document_order(result) -> bool:
    """Rows sorted by (document, Dewey position) with no id twice."""
    rows = result.rows
    keys = [(row.doc_id, row.dewey_pos) for row in rows]
    return keys == sorted(keys) and len({row.id for row in rows}) == len(rows)
