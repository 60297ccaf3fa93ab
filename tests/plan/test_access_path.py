"""The path summary as access path (``costed-access-strategy``).

With an exact summary every regex filter resolves, at plan time, to the
stored paths it matches — or is dropped when it matches every stored
path of its names — and neither the `Paths` join nor the Python
``regexp_like`` UDF is left to execute; without one — never collected,
or stale — the translation is the paper-shape regex SQL, byte for byte.
"""

from __future__ import annotations

import json
import os
import sqlite3

import pytest

from repro import (
    Database,
    EdgePPFEngine,
    EdgeStore,
    NativeEngine,
    PPFEngine,
    ShreddedStore,
    StorageError,
    infer_schema,
    parse_document,
)
from repro.core.adapters import SchemaAwareAdapter
from repro.core.translator import PPFTranslator
from repro.plan.cost import CardinalityEstimator
from repro.plan.nodes import PathFilterCond, iter_conditions, iter_selects
from repro.plan.passes import DEFAULT_PASS_NAMES
from repro.resilience.faults import FaultInjectingDatabase, FaultPlan
from repro.serving.scatter import ServingConfig, ShardedEngine
from repro.serving.shards import ShardedStore
from repro.workloads import XMarkConfig, generate_xmark
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES, XPATHMARK_QUERIES
from repro.xmltree.nodes import ElementNode

XM25 = [(q.qid, q.xpath) for q in XPATHMARK_QUERIES + XPATHMARK_A_QUERIES]
#: The XM25 queries whose regex filter survives the static passes.
REGEX_QIDS = {"Q3", "Q4", "Q6", "Q7", "Q21", "A2", "A3", "A5"}
#: ... and those among them that are one path filter and nothing else.
PATH_ONLY_QIDS = {"Q3", "Q4", "A2", "A3"}
#: ... and those with a ``//keyword`` step of its own: that regex
#: matches every stored path of its names.
TAUTOLOGY_QIDS = {"Q3", "Q6", "Q7"}

_GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "xm25_statsfree_sql.json"
)


def _store(documents, statistics: bool):
    store = ShreddedStore.create(Database.memory(), infer_schema(documents))
    for document in documents:
        store.load(document)
    if statistics:
        store.collect_statistics()
    return store


def _expected(natives, xpath):
    """``(kind, sorted ids or values)`` summed over ``(native, id base)``
    pairs — the native oracle's answer in the SQL engines' terms."""
    kind, out = "ids", []
    for native, base in natives:
        for node in native.execute(xpath):
            if hasattr(node, "node_id"):
                out.append(base + node.node_id)
            else:  # text()/attribute projection: compare values
                kind = "values"
                out.append(node.value)
    return kind, sorted(out)


def _actual(engine, xpath, kind):
    result = engine.execute(xpath)
    return kind, sorted(result.values if kind == "values" else result.ids)


def _agrees(engine, natives, xpath) -> bool:
    kind, expected = _expected(natives, xpath)
    return _actual(engine, xpath, kind) == (kind, expected)


def _filters(translation) -> list[PathFilterCond]:
    return [
        cond
        for select in iter_selects(translation.plan)
        for cond in iter_conditions(select.where)
        if isinstance(cond, PathFilterCond)
    ]


@pytest.fixture(scope="module")
def fresh_engine(xmark_document):
    return PPFEngine(_store([xmark_document], statistics=True))


class TestXM25:
    def test_udf_leaves_the_sql_and_results_match_native(
        self, fresh_engine, xmark_native
    ):
        for qid, xpath in XM25:
            translation = fresh_engine.translate(xpath)
            if qid in REGEX_QIDS:
                assert "costed-access-strategy" in translation.fired_passes()
            assert "regexp_like" not in translation.sql, qid
            assert translation.path_filter_count() == 0, qid
            assert translation.plan_stats_after["paths_joins"] == 0, qid
            assert _agrees(fresh_engine, [(xmark_native, 0)], xpath), qid

    def test_statistics_free_sql_is_the_parent_commits(self, xmark_document):
        """No summary: the SQL is the paper-shape statement of the
        golden file, for the schema-aware and the Edge mapping alike —
        a regex over the joined `Paths` row, an equality (Table 3) as a
        test of the element's path_id."""
        with open(_GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
        edge = EdgeStore.create(Database.memory())
        edge.load(xmark_document)
        engines = {
            "ppf": PPFEngine(_store([xmark_document], statistics=False)),
            "edge_ppf": EdgePPFEngine(edge),
        }
        for name, engine in engines.items():
            for qid, xpath in XM25:
                assert engine.translate(xpath).sql == golden[name][qid], (
                    name, qid,
                )

    def test_list_is_one_subquery_over_the_unique_index(self, fresh_engine):
        """Q6 carries two filters on one element alias: they intersect
        into one list, probed once per statement."""
        for xpath in ("//listitem//keyword", "//keyword/ancestor::listitem"):
            detail = fresh_engine.query_plan(xpath)
            assert sum("LIST SUBQUERY" in line for line in detail) == 1
            assert any(
                line.startswith(
                    "SEARCH paths USING COVERING INDEX "
                    "sqlite_autoindex_paths_1"
                )
                for line in detail
            ), detail
        filters = _filters(
            fresh_engine.translate("//keyword/ancestor::listitem")
        )
        assert [f.mode for f in filters] == ["in"]
        assert all("/listitem/" in path for path in filters[0].literals)

    def test_filter_matching_every_stored_path_is_dropped(self, fresh_engine):
        """``//keyword``: the list would name every path a keyword row
        can carry, so there is no filter to run."""
        summary = fresh_engine.store.path_summary()
        for qid, xpath in XM25:
            reports = [
                r
                for r in fresh_engine.translate(xpath).pass_reports
                if r.tautologies
            ]
            assert bool(reports) == (qid in TAUTOLOGY_QIDS), qid
        translation = fresh_engine.translate("//keyword")
        assert not _filters(translation)
        assert "WHERE" not in translation.sql
        (report,) = [r for r in translation.pass_reports if r.tautologies]
        (witness,) = report.tautologies
        assert set(witness.matched_paths) == summary.paths_named(
            frozenset({"keyword"})
        )
        assert witness.summary_version == summary.version

    def test_path_only_queries_estimate_exactly(self, fresh_engine):
        """The summary holds the exact per-path counts, so a query that
        is one path filter has q-error 1 by construction."""
        estimator = CardinalityEstimator(fresh_engine.store.path_summary())
        for qid, xpath in XM25:
            if qid not in PATH_ONLY_QIDS:
                continue
            translation = fresh_engine.translate(xpath)
            actual = len(fresh_engine.execute(xpath))
            assert actual > 0
            assert translation.estimated_rows == actual, qid
            assert estimator.estimate_plan(
                translation.plan
            ).total_rows == actual

    def test_toggling_the_pass_changes_sql_not_rows(self, fresh_engine):
        without = PPFEngine(
            fresh_engine.store,
            passes=tuple(
                n for n in DEFAULT_PASS_NAMES if n != "costed-access-strategy"
            ),
        )
        for qid, xpath in XM25:
            if qid in REGEX_QIDS:
                assert "regexp_like" in without.translate(xpath).sql
            assert (
                without.execute(xpath).ids == fresh_engine.execute(xpath).ids
            ), qid


@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_one_statement_serves_shards_with_different_paths(tmp_path):
    """The coordinator translates once from the merged summary; a shard
    that lacks some of the listed paths just matches fewer of them."""
    documents = [
        generate_xmark(XMarkConfig(scale=0.3, seed=seed)) for seed in (5, 6, 7)
    ]
    for index, document in enumerate(documents):
        document.name = f"xmark{index}.xml"
    store = ShardedStore.create(
        str(tmp_path / "shards"), infer_schema(documents), shards=2
    )
    store.bulk_load(documents)
    merged = store.path_summary()
    assert merged is not None
    listed = set(merged.matching_paths("^/(.+/)?keyword$"))
    per_shard = [
        set(store.shard_store(index).path_summary().stats) & listed
        for index in range(2)
    ]
    assert any(shard < listed for shard in per_shard)
    natives = [
        (NativeEngine(document), entry.base)
        for document, entry in zip(documents, store.doc_entries)
    ]
    with ShardedEngine.serve(
        store, config=ServingConfig(deadline=30.0), replicas=1
    ) as engine:
        for qid, xpath in XM25:
            assert "regexp_like" not in engine.translate(xpath).sql, qid
            assert _agrees(engine, natives, xpath), qid
    store.close()


# -- a stale summary is no summary ----------------------------------------------

#: ``k`` may sit under ``r``, ``c`` and ``a``; ``/r/k`` and ``/r/c/a/k``
#: are stored.
_STORED = "<r><k>0</k><c><a><k>1</k></a></c></r>"
_SCHEMA_ONLY = "<r><k>0</k><c><k>0</k></c></r>"


def _k_store(db: Database | None = None) -> ShreddedStore:
    stored = parse_document(_STORED, name="stored.xml")
    schema = infer_schema(
        [stored, parse_document(_SCHEMA_ONLY, name="schema.xml")]
    )
    store = ShreddedStore.create(
        db if db is not None else Database.memory(), schema
    )
    store.bulk_load([stored])  # collects statistics at shred time
    return store


def _only_filter(engine: PPFEngine, xpath: str) -> PathFilterCond:
    (cond,) = _filters(engine.translate(xpath))
    return cond


class TestStaleness:
    XPATH = "/r/c//k"

    def test_non_maintaining_mutation_retires_the_plan(self):
        store = _k_store()
        engine = PPFEngine(store)
        cond = _only_filter(engine, self.XPATH)
        assert (cond.mode, cond.literal) == ("equality", "/r/c/a/k")
        assert len(engine.execute(self.XPATH)) == 1
        fingerprint = engine.translator.fingerprint

        (c_id,) = engine.execute("/r/c").ids
        (new_id,) = store.append_subtree(c_id, ElementNode("k"))

        assert store.statistics_stale
        assert store.path_summary() is None and store.stats_version is None
        assert engine.translator.fingerprint != fingerprint
        assert _only_filter(engine, self.XPATH).mode == "regex"
        assert new_id in engine.execute(self.XPATH).ids

        store.collect_statistics()
        cond = _only_filter(engine, self.XPATH)
        assert cond.mode == "in"
        assert cond.literals == ("/r/c/a/k", "/r/c/k")
        assert new_id in engine.execute(self.XPATH).ids

    def test_load_keeps_the_summary_exact(self):
        """``load`` maintains the counts, so a path the new document
        introduces joins the list and its rows are returned."""
        store = _k_store()
        engine = PPFEngine(store)
        assert len(engine.execute(self.XPATH)) == 1
        store.load(parse_document("<r><c><k>2</k></c></r>", name="new.xml"))
        assert not store.statistics_stale
        cond = _only_filter(engine, self.XPATH)
        assert cond.literals == ("/r/c/a/k", "/r/c/k")
        assert len(engine.execute(self.XPATH)) == 2

    def test_dropped_filter_returns_when_a_load_adds_a_path_it_rejects(self):
        """Only ``/r/c/a/k`` stored: ``/r/c//k`` restricts nothing and
        its filter goes.  A loaded ``/r/k`` is a row the query must not
        return, so the filter has to come back with the new summary."""
        document = parse_document("<r><c><a><k>1</k></a></c></r>", name="d")
        schema = infer_schema(
            [document, parse_document(_SCHEMA_ONLY, name="schema.xml")]
        )
        store = ShreddedStore.create(Database.memory(), schema)
        store.bulk_load([document])
        engine = PPFEngine(store)
        assert not _filters(engine.translate(self.XPATH))
        assert len(engine.execute(self.XPATH)) == 1
        store.load(parse_document("<r><k>2</k></r>", name="new.xml"))
        cond = _only_filter(engine, self.XPATH)
        assert (cond.mode, cond.literal) == ("equality", "/r/c/a/k")
        assert len(engine.execute(self.XPATH)) == 1
        assert len(engine.execute("//k")) == 2

    def test_rolled_back_load_leaves_summary_and_plan_alone(self):
        plan = FaultPlan()
        store = _k_store(FaultInjectingDatabase.memory(plan))
        engine = PPFEngine(store)
        before = engine.translate(self.XPATH)
        version = store.stats_version
        plan.script("error", match="INSERT INTO k", message="disk I/O error")
        with pytest.raises(StorageError, match="disk I/O error"):
            store.load(
                parse_document("<r><c><k>2</k></c></r>", name="new.xml")
            )
        assert store.stats_version == version
        assert not store.statistics_stale
        assert engine.translate(self.XPATH) is before  # still cached
        assert "/r/c/k" not in store.path_index.all_paths()
        assert len(engine.execute(self.XPATH)) == 1

    def test_stale_shard_withholds_the_merged_summary(self, tmp_path):
        stored = [
            parse_document(_STORED, name=f"stored{i}.xml") for i in range(4)
        ]
        schema = infer_schema(
            stored + [parse_document(_SCHEMA_ONLY, name="schema.xml")]
        )
        store = ShardedStore.create(str(tmp_path / "s"), schema, shards=2)
        store.bulk_load(stored)
        assert store.path_summary() is not None
        shard = store.shard_store(0)
        (c_id, *_) = PPFEngine(shard).execute("/r/c").ids
        shard.append_subtree(c_id, ElementNode("k"))
        assert store.statistics_staleness() == [True, False]
        assert store.stats_version is None and store.path_summary() is None
        shard.collect_statistics()
        assert "/r/c/k" in store.path_summary().stats
        store.close()


# -- a mutation retires only the plans it invalidated ---------------------------

#: ``k`` may sit under ``r``, ``c``, ``a``, ``b`` and ``d``: the regex of
#: ``/r/c//k`` accepts three of its five root paths, so the marking
#: neither drops nor pins it and the summary decides.
_PLACES = "<r><k>0</k><c><k>0</k><a><k>0</k></a><b><k>0</k></b></c><d><k>0</k></d></r>"


class TestSurvivingPlans:
    """What a cached plan read from the summary decides whether a
    mutation retires it (``TranslationResult.summary_reads``).  Each
    test fails when ``costed-access-strategy`` stops recording reads —
    the plan then looks valid in every state and is served stale."""

    XPATH = "/r/c//k[. > 0]"
    OTHER = "/r/c//k[. > -1]"  # not liftable: its own exact-string entry
    SHAPED = "/r/c//k[. > 0.5]"  # the template's second string

    def _engine(self, *texts):
        documents = [
            parse_document(text, name=f"d{index}.xml")
            for index, text in enumerate(texts)
        ]
        schema = infer_schema(
            documents + [parse_document(_PLACES, name="schema.xml")]
        )
        store = ShreddedStore.create(Database.memory(), schema)
        self.doc_ids = store.bulk_load(documents)
        self.natives = [
            (NativeEngine(document), store.doc_base(doc_id))
            for document, doc_id in zip(documents, self.doc_ids)
        ]
        return PPFEngine(store)

    def _load(self, engine, text):
        document = parse_document(text, name=f"late{len(self.natives)}.xml")
        doc_id = engine.store.load(document)
        self.natives.append(
            (NativeEngine(document), engine.store.doc_base(doc_id))
        )
        return doc_id

    def _check(self, engine):
        for xpath in (self.XPATH, self.OTHER, self.SHAPED, "//k"):
            assert _agrees(engine, self.natives, xpath), xpath

    def test_a_path_the_resolved_regex_matches_retires_the_plan(self):
        engine = self._engine("<r><k>1</k><c><a><k>2</k></a></c></r>")
        before = engine.translate(self.XPATH)
        (read,) = before.summary_reads
        assert read.listed == {"/r/c/a/k"}
        misses = engine.cache_info().misses
        self._load(engine, "<r><c><b><k>3</k></b></c></r>")
        after = engine.translate(self.XPATH)
        assert after is not before and after.plan is not before.plan
        assert engine.cache_info().misses == misses + 1
        (cond,) = _filters(after)
        assert cond.literals == ("/r/c/a/k", "/r/c/b/k")
        assert len(engine.execute(self.XPATH)) == 2
        self._check(engine)

    def test_a_path_the_dropped_regex_rejects_brings_the_filter_back(self):
        engine = self._engine("<r><c><a><k>2</k></a></c></r>")
        before = engine.translate(self.XPATH)
        assert not _filters(before)
        (read,) = before.summary_reads
        assert read.listed is None and read.names == {"k"}
        self._load(engine, "<r><d><k>4</k></d></r>")
        after = engine.translate(self.XPATH)
        assert after is not before
        (cond,) = _filters(after)
        assert (cond.mode, cond.literal) == ("equality", "/r/c/a/k")
        assert len(engine.execute(self.XPATH)) == 1
        assert len(engine.execute("//k")) == 2
        self._check(engine)

    def test_an_unrelated_path_retires_nothing(self):
        engine = self._engine("<r><k>1</k><c><a><k>2</k></a></c></r>")
        before = engine.translate(self.XPATH)
        inline = engine.translate(self.OTHER)
        assert before.parameters and inline.parameters is None
        info = engine.cache_info()
        self._load(engine, "<r><d><k>4</k></d></r>")
        assert "/r/d/k" in engine.store.path_summary().stats
        assert engine.translate(self.XPATH) is before
        assert engine.translate(self.OTHER) is inline
        assert engine.translate(self.SHAPED).plan is before.plan
        assert engine.cache_info().misses == info.misses
        assert before.held_version == engine.store.stats_version
        assert before.stats_version != before.held_version
        self._check(engine)

    def test_a_listed_path_may_leave_and_come_back(self):
        late = "<r><c><b><k>3</k></b></c></r>"
        engine = self._engine(
            "<r><k>1</k><c><a><k>2</k></a></c></r>", late
        )
        before = engine.translate(self.XPATH)
        (read,) = before.summary_reads
        assert read.listed == {"/r/c/a/k", "/r/c/b/k"}
        self._check(engine)
        misses = engine.cache_info().misses
        engine.store.delete_document(self.doc_ids[1])
        del self.natives[1]
        assert "/r/c/b/k" not in engine.store.path_summary().stats
        assert engine.translate(self.XPATH) is before
        assert len(engine.execute(self.XPATH)) == 1
        self._check(engine)
        self._load(engine, late)
        assert engine.translate(self.XPATH) is before
        assert len(engine.execute(self.XPATH)) == 2
        assert engine.cache_info().misses == misses
        self._check(engine)

    @pytest.mark.parametrize(
        "parent, survives", [("/r/c/a", True), ("/r/c", False)]
    )
    def test_a_stale_summary_serves_no_plan_with_reads(
        self, parent, survives
    ):
        engine = self._engine("<r><k>1</k><c><a><k>2</k></a></c></r>")
        store = engine.store
        before = engine.translate(self.XPATH)
        assert before.summary_reads
        (parent_id,) = engine.execute(parent).ids
        k = ElementNode("k")
        k.append_text("5")
        (new_id,) = store.append_subtree(parent_id, k)
        assert store.path_summary() is None
        assert not engine._holds(before)
        stale = engine.translate(self.XPATH)
        assert stale is not before and not stale.summary_reads
        assert "regexp_like" in stale.sql
        assert new_id in engine.execute(self.XPATH).ids
        store.collect_statistics()
        fresh = engine.translate(self.XPATH)
        assert (fresh is before) == survives
        assert all(
            read.holds(store.path_summary()) for read in fresh.summary_reads
        )
        assert "regexp_like" not in fresh.sql
        assert engine.execute(self.XPATH).ids == PPFEngine(store).execute(
            self.XPATH
        ).ids
        assert new_id in engine.execute(self.XPATH).ids

    def test_explain_tells_a_survivor_from_a_fresh_plan(self):
        engine = self._engine("<r><k>1</k><c><a><k>2</k></a></c></r>")
        planned = engine.explain(self.XPATH).cost_lines()[0]
        assert planned == "planned under statistics epoch 1 at generation 1"
        self._load(engine, "<r><d><k>4</k></d></r>")
        assert engine.explain(self.XPATH).cost_lines()[0] == (
            planned
            + "; its summary reads last held under epoch 2 at generation 2"
        )


class TestMemoisation:
    def test_sharded_merge_is_built_once_per_statistics_version(
        self, tmp_path, monkeypatch
    ):
        documents = [
            parse_document(_STORED, name=f"d{i}.xml") for i in range(4)
        ]
        store = ShardedStore.create(
            str(tmp_path / "s"), infer_schema(documents), shards=2
        )
        store.bulk_load(documents)
        merges = []
        merge = ShardedStore._merged_summary
        monkeypatch.setattr(
            ShardedStore,
            "_merged_summary",
            lambda self, version: merges.append(version)
            or merge(self, version),
        )
        translator = PPFTranslator(SchemaAwareAdapter(store))
        translator.translate("/r/c//k")
        translator.translate("/r//a")
        assert len(merges) == 1
        first = store.path_summary()
        store.analyze()
        assert store.path_summary() is not first
        store.load(parse_document(_STORED, name="late.xml"))
        translator.translate("/r/c//k")
        assert len(merges) == 3
        assert len(set(merges)) == 3
        store.close()

    def test_summary_scans_its_paths_once_per_pattern(self):
        summary = _k_store().path_summary()
        first = summary.matching_paths("^/r/(.+/)?k$")
        assert first == ("/r/c/a/k", "/r/k")
        assert summary.matching_paths("^/r/(.+/)?k$") is first

    def test_successor_inherits_the_answers_corrected_by_the_delta(self):
        """``plus`` hands the memo on: what the delta added is searched,
        what it removed is dropped, and nothing scans the path list."""
        summary = _k_store().path_summary()
        regexes = ("^/r/(.+/)?k$", "^/r/c/(.+/)?k$", "^/r/k$")
        for regex in regexes:
            summary.matching_paths(regex)
        successor = summary.plus(
            {"/r/c/k": (2, 1, 2), "/r/k": (-1, -1, -1)}, {"k": 1}
        )
        assert dict(successor._matches) == {
            "^/r/(.+/)?k$": ("/r/c/a/k", "/r/c/k"),
            "^/r/c/(.+/)?k$": ("/r/c/a/k", "/r/c/k"),
            "^/r/k$": (),
        }
        rescanned = summary.plus({}, {}).plus(
            {"/r/c/k": (2, 1, 2), "/r/k": (-1, -1, -1)}, {"k": 1}
        )
        rescanned._matches.clear()
        for regex in regexes:
            assert rescanned.matching_paths(regex) == successor._matches[regex]
        unchanged = summary.plus({"/r/k": (1, 0, 1)}, {"k": 1})
        assert unchanged._matches == summary._matches


@pytest.mark.skipif(
    not hasattr(sqlite3.Connection, "getlimit"),
    reason="Connection.getlimit/setlimit arrived in Python 3.11",
)
def test_list_past_the_statement_length_limit_keeps_its_regex():
    """The limit is the connection's own ``SQLITE_LIMIT_SQL_LENGTH``; a
    filter whose list has no room under it stays a regex, a smaller one
    in the same store still resolves."""
    wide = "".join(
        f"<branch{i:03d}-{'x' * 60}><leaf>{i}</leaf></branch{i:03d}-{'x' * 60}>"
        for i in range(120)
    )
    document = parse_document(
        f"<root><few><leaf>a</leaf><twig><leaf>b</leaf></twig></few>"
        f"<many>{wide}</many></root>",
        name="wide.xml",
    )
    store = _store([document], statistics=True)
    # Lowered only now: the shredder's own statements are longer.
    store.db.connection.setlimit(sqlite3.SQLITE_LIMIT_SQL_LENGTH, 4000)
    engine = PPFEngine(store)
    native = NativeEngine(document)

    big = engine.translate("/root/many//leaf")
    assert "regexp_like" in big.sql and len(big.sql.encode()) <= 4000
    (report,) = [
        r for r in big.pass_reports if r.name == "costed-access-strategy"
    ]
    assert not report.fired and "statement-length limit" in report.detail

    small = engine.translate("/root/few//leaf")
    assert "regexp_like" not in small.sql
    assert _filters(small)[0].mode == "in"

    for xpath in ("/root/many//leaf", "/root/few//leaf"):
        assert _agrees(engine, [(native, 0)], xpath)
    assert len(engine.execute("/root/many//leaf")) == 120
