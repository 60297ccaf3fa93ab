"""Document-sharded storage: one logical store over N SQLite files.

Thread fan-out *degrades* throughput on this workload (the committed
``BENCH_PR2.json`` / ``BENCH_PR4.json`` records), so scaling reads means
processes — and processes want independent database files.  A
:class:`ShardedStore` places whole documents across ``N`` sibling
SQLite shard files by hashing the document's load ordinal and name (the paper's Section 4.5
path-partitioned layout makes whole-document placement natural: every
root-to-node path, and therefore every query fragment, stays resolvable
inside a single shard).  All shards share one schema, so a single
translated SQL statement — which filters `Paths` by *string* pattern,
never by shard-local ``path_id`` values — runs unchanged on every
shard.

Layout of a sharded store directory::

    store/
      manifest.json            # shard count, schema, doc registry, generation
      shard-0000.db            # ShreddedStore files (WAL)
      shard-0000.manifest.json # per-shard integrity digest
      ...

The top-level manifest carries the **document registry**: for each
loaded document its ``doc_id``, its element-id ``base`` (assigned in
load order, exactly as a single
:class:`~repro.storage.schema_aware.ShreddedStore` would) and the shard
holding it.  The shard file stores the document under those very ids,
so there is one id space: a shard answers a query with the rows a
single store loaded with the same documents in the same order would
return for those documents, and the scatter-gather merge only
concatenates — which is what lets the chaos tests verify every degraded
answer against the native oracle.  The merge checks that each document
run comes from the shard the registry places it on, so a misplaced or
swapped shard file serves no rows.

Per-shard manifests carry a content digest (document registry plus
relation row counts) recomputed by :meth:`ShardedStore.verify_shard`.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from repro.errors import ShardError, StorageError, StoreIntegrityError
from repro.resilience.policy import ResiliencePolicy
from repro.schema.marking import SchemaMarking
from repro.schema.model import Schema
from repro.stats.summary import PathSummary
from repro.storage.database import Database
from repro.storage.schema_aware import SchemaAwareMapping, ShreddedStore
from repro.xmltree.nodes import Document

#: Manifest format version (bumped on incompatible layout changes; 2:
#: shard files store the registry's ids).
MANIFEST_VERSION = 2

#: Default shard count for :meth:`ShardedStore.create`.
DEFAULT_SHARDS = 4


def shard_of(ordinal: int, name: str, shards: int) -> int:
    """Deterministic hash placement of one document.

    ``ordinal`` is the document's ``doc_id``, ``name`` its document
    name; together they spread repeated names and keep placement
    stable across reopenings.
    """
    return zlib.crc32(f"{ordinal}:{name}".encode()) % shards


def shard_filename(index: int) -> str:
    """Filename of shard ``index`` inside the store directory."""
    return f"shard-{index:04d}.db"


def shard_manifest_filename(index: int) -> str:
    """Filename of shard ``index``'s integrity manifest."""
    return f"shard-{index:04d}.manifest.json"


@dataclass(frozen=True)
class DocEntry:
    """Registry entry of one loaded document; the shard file stores it
    under these ids."""

    #: Document id (one more than the largest registered, 1-based).
    doc_id: int
    name: str
    #: Shard index holding the document's rows.
    shard: int
    #: Element-id base (cumulative node count in load order).
    base: int
    node_count: int

    def to_json(self) -> dict:
        return {
            "doc": self.doc_id,
            "name": self.name,
            "shard": self.shard,
            "base": self.base,
            "nodes": self.node_count,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "DocEntry":
        return cls(
            doc_id=int(payload["doc"]),
            name=str(payload["name"]),
            shard=int(payload["shard"]),
            base=int(payload["base"]),
            node_count=int(payload["nodes"]),
        )


class ShardedStore:
    """N :class:`ShreddedStore` shard files behind one document-hash
    placement layer.

    Writes go through the shard's own (single-process) store object;
    reads are meant to be served by the :class:`~repro.serving.
    supervisor.ShardRuntime` worker fleet via :class:`~repro.serving.
    scatter.ShardedEngine`.  Shard connections open lazily, so a store
    with one corrupt shard file still opens — the healthy shards keep
    serving and the corrupt one surfaces as a per-shard failure.
    """

    def __init__(
        self,
        directory: str,
        schema: Schema,
        shard_count: int,
        entries: dict[int, DocEntry],
        generation: int,
        policy: ResiliencePolicy | None = None,
        fresh: bool = True,
    ):
        self.directory = directory
        self.schema = schema
        #: Shared relational mapping/marking — what the translation
        #: adapter consumes; identical across shards by construction.
        self.mapping = SchemaAwareMapping(schema)
        self.marking = SchemaMarking(schema)
        self.shard_count = shard_count
        self.policy = policy
        #: The registry: ``doc_id -> DocEntry``, in load order.
        self._entries = entries
        self._generation = generation
        self._shards: dict[int, ShreddedStore] = {}
        #: The merged path summary, kept while ``stats_version`` holds.
        self._summary: PathSummary | None = None
        #: In-memory documents loaded through this instance (global
        #: doc_id -> Document); feeds the degraded native fallback.
        self.documents: dict[int, Document] = {}
        # Fallback answers are only trustworthy when every registered
        # document is resident (loaded through this very instance).
        self._documents_resident = fresh and not entries

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        schema: Schema,
        shards: int = DEFAULT_SHARDS,
        policy: ResiliencePolicy | None = None,
    ) -> "ShardedStore":
        """Create a fresh sharded store directory with ``shards`` empty
        shard files.

        :raises StorageError: when the directory already holds a store.
        """
        if shards < 1:
            raise StorageError(f"shard count must be >= 1, got {shards}")
        schema.validate()
        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, "manifest.json")
        if os.path.exists(manifest_path):
            raise StorageError(
                f"{directory!r} already holds a sharded store manifest"
            )
        store = cls(directory, schema, shards, {}, 0, policy=policy)
        for index in range(shards):
            shard = ShreddedStore.create(
                Database.open(store.shard_path(index), policy=policy),
                schema,
            )
            store._shards[index] = shard
            store._write_shard_manifest(index)
        store._write_manifest()
        return store

    @classmethod
    def open(
        cls, directory: str, policy: ResiliencePolicy | None = None
    ) -> "ShardedStore":
        """Reattach to a directory previously built by :meth:`create`.

        Shard databases open lazily; only the manifest is read here, so
        a corrupt shard file does not prevent opening the store.

        :raises StorageError: when the directory has no manifest or the
            manifest version is unknown.
        """
        manifest_path = os.path.join(directory, "manifest.json")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise StorageError(
                f"{directory!r} holds no sharded store manifest; was it "
                f"created by ShardedStore.create()?"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"unreadable sharded store manifest {manifest_path!r}: {exc}"
            ) from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise StorageError(
                f"unsupported sharded store manifest version "
                f"{manifest.get('version')!r}"
            )
        schema = Schema.from_dict(manifest["schema"])
        entries = {
            entry.doc_id: entry
            for entry in map(DocEntry.from_json, manifest["docs"])
        }
        return cls(
            directory,
            schema,
            int(manifest["shards"]),
            entries,
            int(manifest["generation"]),
            policy=policy,
            fresh=False,
        )

    # -- paths and shard access ----------------------------------------------------

    def shard_path(self, index: int) -> str:
        """Filesystem path of shard ``index``'s database file."""
        self._check_shard_index(index)
        return os.path.join(self.directory, shard_filename(index))

    @property
    def shard_paths(self) -> list[str]:
        """Database file paths of all shards, in shard order."""
        return [self.shard_path(index) for index in range(self.shard_count)]

    def shard_store(self, index: int) -> ShreddedStore:
        """The writer-side :class:`ShreddedStore` of shard ``index``
        (opened on first use)."""
        self._check_shard_index(index)
        shard = self._shards.get(index)
        if shard is None:
            shard = ShreddedStore.open(
                Database.open(self.shard_path(index), policy=self.policy)
            )
            self._shards[index] = shard
        return shard

    def _check_shard_index(self, index: int) -> None:
        if not 0 <= index < self.shard_count:
            raise ShardError(
                f"shard index {index} out of range "
                f"(store has {self.shard_count} shard(s))",
                shard=index,
            )

    # -- registry -----------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (persisted in the manifest); the
        sharded result cache keys on it."""
        return self._generation

    def _bump_generation(self) -> None:
        self._generation += 1

    @property
    def doc_entries(self) -> list[DocEntry]:
        """The document registry, in load order."""
        return list(self._entries.values())

    @property
    def registry(self) -> Mapping[int, DocEntry]:
        """The document registry as a read-only ``doc_id -> DocEntry``
        view (the scatter-gather merge checks placements against it)."""
        return MappingProxyType(self._entries)

    def document_count(self) -> int:
        return len(self._entries)

    def to_document_node_id(self, element_id: int) -> tuple[int, int]:
        """Split a global element id into ``(doc_id, node_id)`` — the
        same contract as :meth:`ShreddedStore.to_document_node_id`."""
        for entry in self._entries.values():
            if entry.base < element_id <= entry.base + entry.node_count:
                return entry.doc_id, element_id - entry.base
        raise StorageError(
            f"element id {element_id} belongs to no registered document"
        )

    def total_elements(self) -> int:
        """Total element count across all registered documents."""
        return sum(entry.node_count for entry in self._entries.values())

    def _next_doc_id(self) -> int:
        # Like a single store's rowid: past the largest id in use, so a
        # delete never frees an id a live document still holds.
        return max(self._entries, default=0) + 1

    def _next_base(self) -> int:
        if not self._entries:
            return 0
        last = next(reversed(self._entries.values()))
        return last.base + last.node_count

    # -- loading ------------------------------------------------------------------

    def load(self, document: Document) -> int:
        """Shred ``document`` into its hash-assigned shard.

        :returns: the assigned **global** ``doc_id``.
        """
        return self._load_documents([document], bulk=False)[0]

    def bulk_load(self, documents: Sequence[Document]) -> list[int]:
        """Load many documents, grouped per shard through each shard's
        bulk fast path.  Returns global ``doc_id``s in input order."""
        return self._load_documents(list(documents), bulk=True)

    def _load_documents(
        self, documents: list[Document], bulk: bool
    ) -> list[int]:
        if not documents:
            return []
        entries: list[DocEntry] = []
        by_shard: dict[int, list[tuple[DocEntry, Document]]] = {}
        doc_id = self._next_doc_id()
        base = self._next_base()
        for document in documents:
            shard = shard_of(doc_id, document.name, self.shard_count)
            entry = DocEntry(
                doc_id, document.name, shard, base, document.element_count()
            )
            entries.append(entry)
            by_shard.setdefault(shard, []).append((entry, document))
            doc_id += 1
            base += entry.node_count
        loaded: list[int] = []
        try:
            for shard, placed in sorted(by_shard.items()):
                self.shard_store(shard)._load_documents(
                    [document for _, document in placed],
                    bulk=bulk,
                    ids=[(entry.doc_id, entry.base) for entry, _ in placed],
                )
                loaded.append(shard)
        except BaseException:
            # Each shard commits on its own: take back what the shards
            # before the failing one stored, so no shard keeps rows under
            # ids the registry never took.
            for shard in loaded:
                for entry, _ in by_shard[shard]:
                    self.shard_store(shard).delete_document(entry.doc_id)
            raise
        for entry, document in zip(entries, documents):
            self._entries[entry.doc_id] = entry
            self.documents[entry.doc_id] = document
        self._bump_generation()
        for shard in sorted(by_shard):
            self._write_shard_manifest(shard)
        self._write_manifest()
        return [entry.doc_id for entry in entries]

    def delete_document(self, doc_id: int) -> int:
        """Remove one document's rows from its shard and the registry.

        Later documents keep their global ids/bases, exactly like
        :meth:`ShreddedStore.delete_document` keeps its id space.

        :returns: the number of element rows removed.
        """
        entry = self._entries.get(doc_id)
        if entry is None:
            raise StorageError(f"unknown doc_id {doc_id}")
        removed = self.shard_store(entry.shard).delete_document(doc_id)
        del self._entries[doc_id]
        self.documents.pop(doc_id, None)
        self._documents_resident = False
        self._bump_generation()
        self._write_shard_manifest(entry.shard)
        self._write_manifest()
        return removed

    def analyze(self) -> list["PathSummary"]:
        """Refresh every shard's statistics, then run ``ANALYZE``.

        For each shard this recomputes and persists the path summary
        (the costed optimizer passes' input), cross-checks the summary's
        element total against the shard's stored documents, and finally
        runs SQLite's own ``ANALYZE`` so both planners — ours and
        SQLite's — see fresh statistics.  Call after a large load,
        before serving.

        :returns: the refreshed per-shard summaries, in shard order.
        :raises StoreIntegrityError: when a recomputed summary
            disagrees with the shard's document registry.
        """
        summaries: list[PathSummary] = []
        for index in range(self.shard_count):
            store = self.shard_store(index)
            summary = store.collect_statistics()
            expected = store.total_elements()
            if summary.total_elements != expected:
                raise StoreIntegrityError(
                    f"shard {index} path summary counts "
                    f"{summary.total_elements} element(s) but the shard "
                    f"stores {expected}"
                )
            store.db.execute("ANALYZE")
            store.db.commit()
            summaries.append(summary)
        return summaries

    def statistics_staleness(self) -> list[bool]:
        """Per-shard statistics staleness, in shard order (``True`` when
        a shard has no summary or mutated since its last refresh)."""
        return [
            self.shard_store(index).statistics_stale
            for index in range(self.shard_count)
        ]

    @property
    def stats_version(self) -> tuple[int, int] | None:
        """Store-level statistics version — the merged summary's:
        ``(sum of shard epochs, store generation)``, or ``None`` when
        any shard has no exact summary — never collected, or stale
        (the merged summary is then unavailable too).  An unreadable
        shard counts as "no summary" rather than failing: a corrupt
        shard must surface through the serving ladder, not here."""
        epochs = 0
        for index in range(self.shard_count):
            try:
                version = self.shard_store(index).stats_version
            except StorageError:
                return None
            if version is None:
                return None
            epochs += version[0]
        return (epochs, self._generation)

    def path_summary(self) -> PathSummary | None:
        """Corpus-wide statistics: the per-shard summaries merged
        (path/relation/document counts summed), or ``None`` when any
        shard has no exact summary.  Shards share one schema, so
        summing per-path counts is exact.  Every statistics write
        raises its shard's epoch, so the merge is kept until
        :attr:`stats_version` moves."""
        version = self.stats_version
        if version is None:
            return None
        if self._summary is None or self._summary.version != version:
            self._summary = self._merged_summary(version)
        return self._summary

    def _merged_summary(
        self, version: tuple[int, int]
    ) -> PathSummary | None:
        merged = PathSummary(
            version=version, document_count=0, relation_counts={}
        )
        for index in range(self.shard_count):
            summary = self.shard_store(index).path_summary()
            if summary is None:
                return None
            merged = merged.plus(
                {
                    path: (s.element_count, s.doc_count, s.value_count)
                    for path, s in summary.stats.items()
                },
                summary.relation_counts,
                documents=summary.document_count,
            )
        return merged

    # -- fallback support ---------------------------------------------------------

    def resident_documents(self) -> dict[int, tuple[Document, int]] | None:
        """``global doc_id -> (Document, global base)`` when every
        registered document is resident in memory (loaded through this
        instance); ``None`` otherwise.  Same contract as
        :meth:`ShreddedStore.resident_documents` — the degraded native
        fallback declines rather than serve stale answers."""
        if (
            not self._documents_resident
            or self._entries.keys() != self.documents.keys()
        ):
            return None
        return {
            doc_id: (document, self._entries[doc_id].base)
            for doc_id, document in self.documents.items()
        }

    # -- integrity ----------------------------------------------------------------

    def shard_digest(self, index: int) -> str:
        """Content digest of shard ``index``: the shard's document rows
        plus per-relation row counts, hashed canonically.  Stable across
        WAL checkpoints (unlike a digest of the raw file bytes)."""
        store = self.shard_store(index)
        docs = store.db.query(
            "SELECT id, name, base, node_count FROM docs ORDER BY id"
        )
        payload = json.dumps(
            {
                "docs": [list(row) for row in docs],
                "relations": store.relation_counts(),
            },
            sort_keys=True,
        )
        return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()

    def verify_shard(self, index: int) -> None:
        """Recompute shard ``index``'s digest and compare it with the
        per-shard manifest.

        :raises StoreIntegrityError: on digest mismatch (tampered or
            swapped shard file) or an unreadable shard manifest.
        :raises StorageError: when the shard database itself is
            unreadable (corrupt file).
        """
        manifest_path = os.path.join(
            self.directory, shard_manifest_filename(index)
        )
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreIntegrityError(
                f"shard {index} manifest unreadable: {exc}"
            ) from exc
        recorded = manifest.get("digest")
        try:
            actual = self.shard_digest(index)
        except StorageError:
            raise
        except Exception as exc:
            # A corrupt file can fail in arbitrary ways below sqlite3
            # (decode errors on pragma replies, malformed page errors);
            # normalize them all to the storage hierarchy.
            raise StorageError(
                f"shard {index} database unreadable: {exc}"
            ) from exc
        if recorded != actual:
            raise StoreIntegrityError(
                f"shard {index} digest mismatch: manifest records "
                f"{recorded!r} but the file computes {actual!r}"
            )

    def verify_integrity(self) -> list[str]:
        """Digest-check every shard; returns one message per failing
        shard (empty = healthy)."""
        problems = []
        for index in range(self.shard_count):
            try:
                self.verify_shard(index)
            except (StoreIntegrityError, StorageError) as exc:
                problems.append(f"shard {index}: {exc}")
        return problems

    # -- manifests ----------------------------------------------------------------

    def _write_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "shards": self.shard_count,
            "generation": self._generation,
            "schema": self.schema.to_dict(),
            "docs": [entry.to_json() for entry in self._entries.values()],
        }
        self._write_json(os.path.join(self.directory, "manifest.json"), payload)

    def _write_shard_manifest(self, index: int) -> None:
        store = self.shard_store(index)
        payload = {
            "shard": index,
            "file": shard_filename(index),
            "digest": self.shard_digest(index),
            "documents": store.db.query_one("SELECT COUNT(*) FROM docs")[0],
            "elements": store.total_elements(),
        }
        self._write_json(
            os.path.join(self.directory, shard_manifest_filename(index)),
            payload,
        )

    @staticmethod
    def _write_json(path: str, payload: dict) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close every open shard connection."""
        for shard in self._shards.values():
            shard.db.close()
        self._shards.clear()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[DocEntry]:
        return iter(self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedStore({self.directory!r}, shards={self.shard_count}, "
            f"docs={len(self._entries)}, generation={self._generation})"
        )
