"""The optimizer-pass pipeline: toggling, reports, and plan statistics.

Each pass must be independently disableable and semantics-preserving;
the ``explain`` report must say which passes fired; and the Section 4.5
elimination pass must actually remove `Paths` joins on the XPathMark
workload (the acceptance criterion of the logical-plan refactor).
"""

import copy
import itertools

import pytest

from repro import Database, PPFEngine, ShreddedStore, figure1_schema
from repro.core.translator import PPFTranslator
from repro.core.adapters import SchemaAwareAdapter
from repro.errors import TranslationError
from repro.plan import (
    DEFAULT_PASS_NAMES,
    PASSES,
    PassContext,
    PassPipeline,
    StructuralCond,
    iter_selects,
    plan_stats,
    resolve_pass_names,
)
from repro.plan.cost import CardinalityEstimator
from repro.schema.inference import infer_schema
from repro.workloads import (
    DBLP_QUERIES,
    DBLPConfig,
    XMarkConfig,
    generate_dblp,
    generate_xmark,
)
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES, XPATHMARK_QUERIES
from repro.xpath.parser import parse_xpath


@pytest.fixture()
def engine(figure1_store):
    return PPFEngine(figure1_store)


@pytest.fixture(scope="module")
def workloads():
    """``(translator, context, [xpath, ...])`` for XM25 and the DBLP
    queries, each over a small generated store of its workload with
    statistics collected, so the costed passes take part."""
    out = []
    for document, queries in (
        (
            generate_xmark(XMarkConfig(scale=0.05, seed=11)),
            list(XPATHMARK_QUERIES) + list(XPATHMARK_A_QUERIES),
        ),
        (generate_dblp(DBLPConfig(scale=0.05, seed=11)), list(DBLP_QUERIES)),
    ):
        store = ShreddedStore.create(
            Database.memory(), infer_schema([document])
        )
        store.load(document)
        store.collect_statistics()
        adapter = SchemaAwareAdapter(store)
        context = PassContext(
            marking=adapter.marking,
            summary=adapter.path_summary,
            sql_length_limit=adapter.sql_length_limit,
        )
        out.append(
            (PPFTranslator(adapter), context, [q.xpath for q in queries])
        )
    return out


def pass_subsets():
    """Every subset of the default pipeline, in pipeline order (2^7)."""
    return [
        combo
        for size in range(len(DEFAULT_PASS_NAMES) + 1)
        for combo in itertools.combinations(DEFAULT_PASS_NAMES, size)
    ]


def scan_orders(plan):
    """Each select's scans as ``(table, alias)``, select by select."""
    return [
        [(scan.table, scan.alias) for scan in select.scans]
        for select in iter_selects(plan)
    ]


def structural_orientations(plan):
    """``(context, target) -> context scanned first`` for every
    structural join between two scans of one select.  Aliases are
    unique within a plan, so the pair names its select."""
    orientations = {}
    for select in iter_selects(plan):
        position = {scan.alias: i for i, scan in enumerate(select.scans)}
        for part in select.where.parts:
            if (
                isinstance(part, StructuralCond)
                and part.context_alias != part.target_alias
                and part.context_alias in position
                and part.target_alias in position
            ):
                orientations[(part.context_alias, part.target_alias)] = (
                    position[part.context_alias]
                    < position[part.target_alias]
                )
    return orientations


class TestPipelineConfig:
    def test_default_passes_registered(self):
        assert DEFAULT_PASS_NAMES == tuple(PASSES)
        assert "paths-join-elimination" in DEFAULT_PASS_NAMES
        assert "regex-to-equality" in DEFAULT_PASS_NAMES
        assert "prune-distinct-order" in DEFAULT_PASS_NAMES
        assert "dedup-union-branches" in DEFAULT_PASS_NAMES

    def test_unknown_pass_rejected(self):
        with pytest.raises(TranslationError, match="unknown optimizer"):
            PassPipeline(("no-such-pass",))

    def test_resolve_explicit_wins(self):
        assert resolve_pass_names(("regex-to-equality",), True) == (
            "regex-to-equality",
        )
        assert resolve_pass_names((), True) == ()

    def test_resolve_ablation_drops_elimination(self):
        names = resolve_pass_names(None, False)
        assert "paths-join-elimination" not in names
        assert "regex-to-equality" in names

    def test_engine_accepts_explicit_passes(self, figure1_store):
        engine = PPFEngine(figure1_store, passes=())
        assert engine.translator.pass_names == ()
        sql = engine.translate("//F").sql
        # Fully unoptimized: Algorithm 1 literal, DISTINCT intact.
        assert sql.startswith("SELECT DISTINCT")
        assert "paths" in sql


class TestPassEffects:
    def test_each_pass_disableable_independently(self, figure1_store):
        """Removing one pass keeps the others running — and the result
        set never changes."""
        expected = sorted(PPFEngine(figure1_store).execute("//F").ids)
        for dropped in DEFAULT_PASS_NAMES:
            remaining = tuple(
                n for n in DEFAULT_PASS_NAMES if n != dropped
            )
            engine = PPFEngine(figure1_store, passes=remaining)
            assert engine.translator.pass_names == remaining
            assert sorted(engine.execute("//F").ids) == expected

    def test_elimination_drops_paths_join(self, figure1_store):
        with_pass = PPFEngine(figure1_store)
        without = PPFEngine(
            figure1_store,
            passes=tuple(
                n
                for n in DEFAULT_PASS_NAMES
                if n != "paths-join-elimination"
            ),
        )
        assert with_pass.translate("//D").path_filter_count() == 0
        kept = without.translate("//D")
        assert kept.path_filter_count() == 1
        assert "regexp_like(D_paths.path, '^/(.+/)?D$')" in kept.sql
        # An exact path keeps its filter too, as an equality on the
        # element's path_id: nothing to join `Paths` for.
        exact = without.translate("/A/B/C/D")
        assert exact.path_filter_count() == 0
        assert "D.path_id = (SELECT id FROM paths WHERE" in exact.sql
        assert "path_id" not in with_pass.translate("/A/B/C/D").sql

    def test_regex_to_equality(self, figure1_store):
        engine = PPFEngine(figure1_store, passes=("regex-to-equality",))
        sql = engine.translate("/A/B").sql
        assert "= '/A/B'" in sql
        assert "regexp_like" not in sql

    def test_dedup_union_branches(self, figure1_store):
        """Identical union branches collapse to one (same query written
        twice through a union)."""
        engine = PPFEngine(figure1_store)
        merged = engine.translate("//F | //F")
        assert merged.branch_count() == 1
        plain = sorted(engine.execute("//F").ids)
        assert sorted(engine.execute("//F | //F").ids) == plain

    def test_dedup_reports_fired(self, engine):
        report = engine.explain("//F | //F")
        assert "dedup-union-branches" in report.fired

    def test_explain_reports_fired_passes(self, engine):
        report = engine.explain("/A/B/C/D")
        assert "paths-join-elimination" in report.fired
        by_name = {r.name: r for r in report.pass_reports}
        assert set(by_name) == set(DEFAULT_PASS_NAMES)
        assert by_name["paths-join-elimination"].changes >= 1
        assert "Paths join" in by_name["paths-join-elimination"].detail

    def test_plan_stats_shrink(self, engine):
        report = engine.explain("/A/B/C/D")
        assert report.stats_before["paths_joins"] == 1
        assert report.stats_after["paths_joins"] == 0
        assert report.stats_after["scans"] < report.stats_before["scans"]

    def test_plan_stats_keys(self, engine):
        translation = engine.translate("//F")
        stats = plan_stats(translation.plan)
        for key in (
            "branches",
            "scans",
            "paths_joins",
            "path_filters",
            "structural_joins",
            "exists_subplans",
            "conditions",
        ):
            assert key in stats
            assert stats[key] >= 0


#: Two branches that differ only in the path literal of their output.
_SIBLING_PATHS = "/site/regions/namerica/item | /site/regions/samerica/item"


class TestDedupMerge:
    def test_merge_is_one_path_list(self, xmark_store):
        engine = PPFEngine(xmark_store)
        translation = engine.translate(_SIBLING_PATHS)
        assert translation.branch_count() == 1
        (report,) = [
            r
            for r in translation.pass_reports
            if r.name == "dedup-union-branches"
        ]
        assert report.fired and "merged 1 branch(es)" in report.detail
        assert (
            "item.path_id IN (SELECT id FROM paths WHERE path IN "
            "('/site/regions/namerica/item', '/site/regions/samerica/item'))"
        ) in translation.sql
        unmerged = PPFEngine(
            xmark_store,
            passes=tuple(
                n for n in DEFAULT_PASS_NAMES if n != "dedup-union-branches"
            ),
        )
        assert unmerged.translate(_SIBLING_PATHS).branch_count() == 2
        assert engine.execute(_SIBLING_PATHS).ids == unmerged.execute(
            _SIBLING_PATHS
        ).ids

    def test_merged_filter_keeps_every_summary_read(self, xmark_store):
        """Resolved from the summary first, then merged: the plan keeps
        both reads, so it is retired when either list stops holding."""
        xpath = "//namerica/item | //samerica/item"
        engine = PPFEngine(
            xmark_store,
            passes=("costed-access-strategy", "dedup-union-branches"),
        )
        translation = engine.translate(xpath)
        assert translation.branch_count() == 1
        assert {read.listed for read in translation.summary_reads} == {
            frozenset({"/site/regions/namerica/item"}),
            frozenset({"/site/regions/samerica/item"}),
        }
        assert sorted(engine.execute(xpath).ids) == sorted(
            PPFEngine(xmark_store, passes=()).execute(xpath).ids
        )

    def test_list_past_the_statement_length_limit_keeps_the_union(
        self, xmark_store
    ):
        translator = PPFEngine(xmark_store).translator
        pipeline = PassPipeline(DEFAULT_PASS_NAMES)

        def plan(limit):
            context = PassContext(
                marking=xmark_store.marking,
                summary=xmark_store.path_summary(),
                sql_length_limit=limit,
            )
            ast = parse_xpath(_SIBLING_PATHS)
            planned = translator._planner.plan(ast, _SIBLING_PATHS)
            return pipeline.run(planned, context)

        merged, _ = plan(None)
        assert len(merged.branches()) == 1
        # Room for the statement as it is, none for the longer list.
        union_sql = PPFEngine(
            xmark_store,
            passes=tuple(
                n for n in DEFAULT_PASS_NAMES if n != "dedup-union-branches"
            ),
        ).translate(_SIBLING_PATHS).sql
        kept, reports = plan(len(union_sql.encode()))
        assert len(kept.branches()) == 2
        (report,) = [r for r in reports if r.name == "dedup-union-branches"]
        assert not report.fired
        assert "1 merge(s) past the statement-length limit" in report.detail


class TestXPathMarkAcceptance:
    def test_elimination_removes_joins_on_workload(self):
        """Acceptance: over the XPathMark query set the Section 4.5
        pass removes at least one `Paths` join compared to the same
        pipeline with the pass disabled."""
        document = generate_xmark(XMarkConfig(scale=0.5, seed=7))
        store = ShreddedStore.create(
            Database.memory(), infer_schema([document])
        )
        store.load(document)

        optimized = PPFEngine(store)
        literal = PPFEngine(
            store,
            passes=tuple(
                n
                for n in DEFAULT_PASS_NAMES
                if n != "paths-join-elimination"
            ),
        )
        joins = [0, 0]
        for query in XPATHMARK_QUERIES:
            joins[0] += optimized.translate(query.xpath).path_filter_count()
            joins[1] += literal.translate(query.xpath).path_filter_count()
        assert joins[0] < joins[1]
        assert joins[1] - joins[0] >= 1


@pytest.fixture(scope="module")
def xmark_store():
    """An XMark store *with* collected statistics — the costed passes
    only act when a path summary exists."""
    document = generate_xmark(XMarkConfig(scale=0.05, seed=3))
    store = ShreddedStore.create(
        Database.memory(), infer_schema([document])
    )
    store.load(document)
    store.collect_statistics()
    return store


class TestCostedPasses:
    def test_costed_passes_registered(self):
        assert "costed-access-strategy" in DEFAULT_PASS_NAMES
        assert "costed-join-order" in DEFAULT_PASS_NAMES
        assert "costed-union-order" in DEFAULT_PASS_NAMES

    def test_noop_without_statistics(self, figure1_store):
        """On a summary-less store every costed pass must report
        "did not fire" — plans stay byte-identical to the heuristics."""
        engine = PPFEngine(figure1_store)
        report = engine.explain("//F | //E")
        by_name = {r.name: r for r in report.pass_reports}
        for name in (
            "costed-access-strategy",
            "costed-join-order",
            "costed-union-order",
        ):
            assert not by_name[name].fired
        assert engine.translate("//F").estimated_rows is None

    def test_access_strategy_fires_and_preserves_results(
        self, xmark_store
    ):
        costed = PPFEngine(xmark_store)
        heuristic = PPFEngine(
            xmark_store,
            passes=tuple(
                n for n in DEFAULT_PASS_NAMES if n != "costed-access-strategy"
            ),
        )
        translation = costed.translate("//item/name")
        fired = {
            r.name for r in translation.pass_reports if r.fired
        }
        assert "costed-access-strategy" in fired
        assert "regexp_like" not in translation.sql
        assert sorted(costed.execute("//item/name").ids) == sorted(
            heuristic.execute("//item/name").ids
        )

    def test_join_order_fires_with_witness(self, xmark_store):
        """The witness is the plan itself: against the same pipeline
        without the pass, its scans are a permutation, not the same
        order."""
        expression = (
            "/site/open_auctions/open_auction"
            "[bidder/date = interval/start]"
        )
        costed = PPFEngine(xmark_store)
        heuristic = PPFEngine(
            xmark_store,
            passes=tuple(
                n for n in DEFAULT_PASS_NAMES if n != "costed-join-order"
            ),
        )
        translation = costed.translate(expression)
        assert "costed-join-order" in translation.fired_passes()
        after = scan_orders(translation.plan)
        before = scan_orders(heuristic.translate(expression).plan)
        assert after != before
        assert [sorted(scans) for scans in after] == [
            sorted(scans) for scans in before
        ]
        assert sorted(costed.execute(expression).ids) == sorted(
            heuristic.execute(expression).ids
        )

    def test_union_order_fires_largest_first(self, xmark_store):
        expression = "//keyword | //listitem"
        costed = PPFEngine(xmark_store)
        translation = costed.translate(expression)
        assert "costed-union-order" in translation.fired_passes()
        estimator = CardinalityEstimator(xmark_store.path_summary())
        estimates = [
            estimator.select_rows(branch)
            for branch in translation.plan.root.branches
        ]
        assert estimates == sorted(estimates, reverse=True)
        heuristic = PPFEngine(
            xmark_store,
            passes=tuple(
                n for n in DEFAULT_PASS_NAMES if n != "costed-union-order"
            ),
        )
        assert sorted(costed.execute(expression).ids) == sorted(
            heuristic.execute(expression).ids
        )

    def test_translation_carries_estimates(self, xmark_store):
        engine = PPFEngine(xmark_store)
        translation = engine.translate("//item/name")
        assert translation.estimated_rows is not None
        assert translation.estimated_rows > 0
        assert translation.branch_estimates is not None
        assert sum(translation.branch_estimates) == pytest.approx(
            translation.estimated_rows
        )
        assert translation.stats_version == xmark_store.stats_version

    def test_join_order_keeps_every_structural_orientation(self, workloads):
        """CROSS JOIN order is SQLite's nested-loop order, so a
        reorder may move a structural join's probe side only where it
        already was: under every pass subset with ``costed-join-order``,
        each structural pair keeps the relative scan order the same
        subset gives it without the pass.  XM25 and DBLP (whose QD2
        turns into a one-sided probe, 9x slower, when the pass ignores
        orientation)."""
        compared = reordered = 0
        for translator, context, queries in workloads:
            plans = [
                translator._planner.plan(parse_xpath(xpath), xpath)
                for xpath in queries
            ]
            for combo in pass_subsets():
                if "costed-join-order" not in combo:
                    continue
                with_pass = PassPipeline(combo)
                without = PassPipeline(
                    tuple(n for n in combo if n != "costed-join-order")
                )
                for plan in plans:
                    mine, reports = with_pass.run(copy.deepcopy(plan), context)
                    reference, _ = without.run(copy.deepcopy(plan), context)
                    assert structural_orientations(
                        mine
                    ) == structural_orientations(reference), combo
                    reordered += any(
                        r.fired and r.name == "costed-join-order"
                        for r in reports
                    )
                    compared += 1
        assert compared == 64 * 30
        assert reordered > 0


class TestTranslatorFacade:
    def test_translator_builds_no_sql_directly(self):
        """The facade only parses, plans, optimizes and lowers — it
        never constructs SelectStatements itself."""
        import inspect

        import repro.core.translator as translator_module

        source = inspect.getsource(translator_module)
        assert "SelectStatement(" not in source
        assert "UnionStatement(" not in source

    def test_fingerprint_covers_configuration(self, figure1_store):
        adapter = SchemaAwareAdapter(figure1_store)
        default = PPFTranslator(adapter).fingerprint
        ablated = PPFTranslator(
            SchemaAwareAdapter(figure1_store, path_filter_optimization=False)
        ).fingerprint
        explicit = PPFTranslator(adapter, passes=()).fingerprint
        assert len({default, ablated, explicit}) == 3

    def test_result_cache_keyed_on_passes(self, figure1_store):
        """Two engines over one store with different pass sets must not
        share cached rows."""
        cache_engine = PPFEngine(figure1_store)
        key_a = cache_engine._result_key("//F")
        key_b = PPFEngine(figure1_store, passes=())._result_key("//F")
        assert key_a is not None and key_b is not None
        assert key_a != key_b


class TestFoldOnlyAfterFiredPasses:
    """``PassPipeline.run`` folds after a pass only when the pass says
    it fired.  That is sound iff folding a folded plan changes nothing
    and every pass that changes a plan reports so; both are checked
    against the pipeline that folded after every pass, kept here."""

    @staticmethod
    def always_fold(names, plan, context):
        from repro.plan.passes import fold_plan

        fold_plan(plan)
        for name in names:
            PASSES[name](plan, context)
            fold_plan(plan)
        return plan

    def test_fold_plan_is_idempotent_on_every_workload_plan(
        self, workloads
    ):
        from repro.plan.lowering import lower_plan
        from repro.plan.passes import fold_plan
        from repro.sqlgen import render_statement

        def rendered(plan):
            statement = lower_plan(plan)
            return None if statement is None else render_statement(statement)

        checked = 0
        for translator, context, queries in workloads:
            for xpath in queries:
                raw = translator._planner.plan(parse_xpath(xpath), xpath)
                optimized = translator.translate(xpath).plan
                for plan in (raw, optimized):
                    once = fold_plan(copy.deepcopy(plan))
                    twice = fold_plan(copy.deepcopy(once))
                    assert twice == once
                    assert rendered(twice) == rendered(once)
                    checked += 1
        assert checked >= 60

    def test_sql_is_byte_identical_to_folding_after_every_pass(
        self, workloads
    ):
        """XM25 and the DBLP queries under all 2^7 pass subsets."""
        from repro.plan.lowering import lower_plan
        from repro.sqlgen import render_statement

        compared = 0
        for translator, context, queries in workloads:
            plans = [
                translator._planner.plan(parse_xpath(xpath), xpath)
                for xpath in queries
            ]
            for combo in pass_subsets():
                pipeline = PassPipeline(combo)
                for plan in plans:
                    mine, _ = pipeline.run(copy.deepcopy(plan), context)
                    reference = self.always_fold(
                        combo, copy.deepcopy(plan), context
                    )
                    assert mine == reference
                    if mine.root is not None:
                        assert render_statement(
                            lower_plan(mine)
                        ) == render_statement(lower_plan(reference))
                    compared += 1
        assert compared == 128 * 30

    def test_orphan_paths_cleanup_counts_as_fired(self, figure1_store):
        """The one pass that could change a plan without a rewrite of
        its own to report: an orphan `Paths` join removed with no filter
        dropped still leaves a TRUE for the folder."""
        from repro.plan.nodes import PathFilterCond, TrueCond, rewrite_plan

        adapter = SchemaAwareAdapter(figure1_store)
        plan = PPFTranslator(adapter)._planner.plan(
            parse_xpath("//G//G"), "//G//G"
        )
        rewrite_plan(
            plan,
            lambda c: TrueCond() if isinstance(c, PathFilterCond) else c,
        )
        context = PassContext(marking=adapter.marking)
        optimized, reports = PassPipeline(("paths-join-elimination",)).run(
            plan, context
        )
        assert reports[0].fired and reports[0].changes == 0
        assert plan_stats(optimized)["paths_joins"] == 0
        assert not any(
            isinstance(part, TrueCond)
            for branch in optimized.branches()
            for part in branch.where.parts
        )
