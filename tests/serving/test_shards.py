"""ShardedStore: hash placement, the global-id registry, manifests and
integrity digests — including that sharded global ids are bit-identical
to a single store loaded in the same order (the oracle property the
chaos suite builds on)."""

from __future__ import annotations

import json
import os

import pytest

from repro import (
    Database,
    ShardError,
    ShreddedStore,
    StorageError,
    StoreIntegrityError,
    infer_schema,
    parse_document,
)
from repro.resilience.faults import corrupt_shard_file
from repro.serving.shards import (
    DocEntry,
    ShardedStore,
    shard_filename,
    shard_of,
)


def make_docs(count=6, items=4):
    docs = []
    for i in range(count):
        xml = "<shop>" + "".join(
            f"<item sku='d{i}i{j}'><price>{j}</price></item>"
            for j in range(items)
        ) + "</shop>"
        docs.append(parse_document(xml, name=f"doc{i}.xml"))
    return docs


@pytest.fixture()
def docs():
    return make_docs()


@pytest.fixture()
def schema(docs):
    return infer_schema(docs)


@pytest.fixture()
def store(tmp_path, docs, schema):
    sharded = ShardedStore.create(str(tmp_path / "s"), schema, shards=3)
    sharded.bulk_load(docs)
    yield sharded
    sharded.close()


class TestPlacement:
    def test_shard_of_is_deterministic(self):
        assert shard_of(1, "a.xml", 4) == shard_of(1, "a.xml", 4)

    def test_shard_of_spreads_documents(self):
        shards = {shard_of(i, f"doc{i}.xml", 4) for i in range(32)}
        assert len(shards) == 4

    def test_repeated_names_spread_by_ordinal(self):
        shards = {shard_of(i, "same.xml", 4) for i in range(32)}
        assert len(shards) > 1

    def test_placement_recorded_in_registry(self, store):
        for entry in store.doc_entries:
            assert entry.shard == shard_of(
                entry.doc_id, entry.name, store.shard_count
            )


class TestGlobalIdRegistry:
    def test_global_ids_match_single_store(self, tmp_path, docs, schema):
        """The core oracle property: global doc ids and bases are
        exactly what a single store assigns for the same load order."""
        single = ShreddedStore.create(
            Database.open(str(tmp_path / "single.db")), schema
        )
        single_ids = [single.load(doc) for doc in docs]
        sharded = ShardedStore.create(
            str(tmp_path / "sharded"), schema, shards=3
        )
        sharded_ids = sharded.bulk_load(docs)
        assert sharded_ids == single_ids
        for entry in sharded.doc_entries:
            assert entry.base == single.doc_base(entry.doc_id)
        single.db.close()
        sharded.close()

    def test_bases_are_cumulative_node_counts(self, store, docs):
        expected = 0
        for entry, doc in zip(store.doc_entries, docs):
            assert entry.base == expected
            assert entry.node_count == doc.element_count()
            expected += doc.element_count()

    def test_remap_table_keys(self, store):
        remap = store.remap_table()
        for entry in store.doc_entries:
            assert remap[(entry.shard, entry.local_doc_id)] is entry

    def test_remap_table_is_rebuilt_only_when_the_registry_changes(
        self, store
    ):
        before = store.remap_table()
        assert store.remap_table() is before
        extra = parse_document(
            "<shop><item sku='x'><price>1</price></item></shop>",
            name="extra.xml",
        )
        new_id = store.load(extra)
        remap = store.remap_table()
        assert remap is not before
        entry = store.doc_entries[-1]
        assert entry.doc_id == new_id
        assert remap[(entry.shard, entry.local_doc_id)] is entry
        store.delete_document(new_id)
        assert (entry.shard, entry.local_doc_id) not in store.remap_table()

    def test_to_document_node_id(self, store):
        entry = store.doc_entries[2]
        doc_id, node_id = store.to_document_node_id(entry.base + 3)
        assert (doc_id, node_id) == (entry.doc_id, 3)

    def test_to_document_node_id_rejects_unknown(self, store):
        with pytest.raises(StorageError):
            store.to_document_node_id(10**9)

    def test_incremental_load_continues_id_space(self, store, schema):
        before = store.document_count()
        extra = parse_document(
            "<shop><item sku='x'><price>1</price></item></shop>",
            name="extra.xml",
        )
        new_id = store.load(extra)
        assert new_id == before + 1
        assert store.doc_entries[-1].base == sum(
            e.node_count for e in store.doc_entries[:-1]
        )


class TestManifests:
    def test_open_roundtrip(self, tmp_path, store):
        reopened = ShardedStore.open(store.directory)
        assert reopened.shard_count == store.shard_count
        assert reopened.generation == store.generation
        assert [e.to_json() for e in reopened.doc_entries] == [
            e.to_json() for e in store.doc_entries
        ]
        reopened.close()

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="manifest"):
            ShardedStore.open(str(tmp_path / "nothere"))

    def test_create_refuses_existing(self, store, schema):
        with pytest.raises(StorageError, match="already holds"):
            ShardedStore.create(store.directory, schema, shards=3)

    def test_generation_bumps_on_load_and_delete(self, store, schema):
        before = store.generation
        doc_id = store.load(
            parse_document(
                "<shop><item sku='y'><price>2</price></item></shop>",
                name="y.xml",
            )
        )
        assert store.generation == before + 1
        store.delete_document(doc_id)
        assert store.generation == before + 2

    def test_docentry_json_roundtrip(self):
        entry = DocEntry(3, "a.xml", 1, 2, 100, 40, 17)
        assert DocEntry.from_json(entry.to_json()) == entry


class TestIntegrity:
    def test_fresh_store_verifies_clean(self, store):
        assert store.verify_integrity() == []

    def test_corrupt_shard_detected(self, store):
        store.close()
        reopened = ShardedStore.open(store.directory)
        corrupt_shard_file(reopened.shard_path(0), seed=3)
        problems = reopened.verify_integrity()
        assert len(problems) == 1
        assert problems[0].startswith("shard 0")
        reopened.close()

    def test_swapped_shard_detected(self, store):
        """Two shard files swapped on disk: both digests mismatch."""
        store.close()
        a = os.path.join(store.directory, shard_filename(0))
        b = os.path.join(store.directory, shard_filename(1))
        tmp = a + ".swap"
        os.replace(a, tmp)
        os.replace(b, a)
        os.replace(tmp, b)
        reopened = ShardedStore.open(store.directory)
        problems = reopened.verify_integrity()
        assert len(problems) == 2
        reopened.close()

    def test_tampered_manifest_detected(self, store):
        manifest = os.path.join(store.directory, "shard-0000.manifest.json")
        with open(manifest) as handle:
            payload = json.load(handle)
        payload["digest"] = "sha256:" + "0" * 64
        with open(manifest, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(StoreIntegrityError, match="digest mismatch"):
            store.verify_shard(0)

    def test_corrupt_shard_does_not_block_open(self, store):
        """Lazy shard connections: the healthy shards stay usable."""
        store.close()
        corrupt_shard_file(
            os.path.join(store.directory, shard_filename(0)), seed=5
        )
        reopened = ShardedStore.open(store.directory)
        healthy = [
            i for i in range(reopened.shard_count) if i != 0
        ]
        for index in healthy:
            reopened.verify_shard(index)
        reopened.close()


class TestDeletion:
    def test_delete_document_removes_rows(self, store):
        entry = store.doc_entries[0]
        removed = store.delete_document(entry.doc_id)
        assert removed == entry.node_count
        assert all(
            e.doc_id != entry.doc_id for e in store.doc_entries
        )

    def test_delete_unknown_raises(self, store):
        with pytest.raises(StorageError, match="unknown doc_id"):
            store.delete_document(999)

    def test_later_documents_keep_ids(self, store):
        survivors = [e.doc_id for e in store.doc_entries[1:]]
        store.delete_document(store.doc_entries[0].doc_id)
        assert [e.doc_id for e in store.doc_entries] == survivors


class TestResidency:
    def test_fresh_instance_documents_resident(self, store, docs):
        resident = store.resident_documents()
        assert resident is not None
        assert set(resident) == {e.doc_id for e in store.doc_entries}

    def test_reopened_store_declines_residency(self, store):
        store.close()
        reopened = ShardedStore.open(store.directory)
        assert reopened.resident_documents() is None
        reopened.close()


class TestValidation:
    def test_bad_shard_count(self, tmp_path, schema):
        with pytest.raises(StorageError, match="shard count"):
            ShardedStore.create(str(tmp_path / "x"), schema, shards=0)

    def test_shard_index_out_of_range(self, store):
        with pytest.raises(ShardError):
            store.shard_path(99)
