"""Unit tests for the path summary and the cardinality estimator on
hand-built summaries (no store involved)."""

import re

import pytest

from repro.plan.cost import (
    EQ_SELECTIVITY,
    NOTNULL_SELECTIVITY,
    RANGE_SELECTIVITY,
    CardinalityEstimator,
)
from repro.plan.nodes import (
    DocEqCond,
    LogicalSelect,
    ParentJoinCond,
    PathFilterCond,
    PathsLinkCond,
    PlanUnion,
    QueryPlan,
    RawCond,
    StructuralCond,
)
from repro.stats.summary import PathStats, PathSummary


def build_summary() -> PathSummary:
    stats = {
        "/site": PathStats("/site", 1, 1, 0),
        "/site/a": PathStats("/site/a", 10, 1, 0),
        "/site/a/v": PathStats("/site/a/v", 40, 1, 30),
        "/site/b": PathStats("/site/b", 5, 1, 0),
    }
    return PathSummary(
        version=(3, 7),
        document_count=2,
        relation_counts={"site": 1, "a": 10, "v": 40, "b": 5},
        stats=stats,
    )


class TestPathSummary:
    def test_totals(self):
        summary = build_summary()
        assert summary.total_elements == 56
        assert summary.path_count == 4
        assert summary.relation_count_for("v") == 40
        assert summary.relation_count_for("missing") is None

    def test_per_path_lookups(self):
        summary = build_summary()
        assert summary.count_for("/site/a/v") == 40
        assert summary.count_for("/nowhere") == 0
        assert summary.value_ratio("/site/a/v") == pytest.approx(0.75)
        assert summary.value_ratio("/site/a") == 0.0
        assert summary.value_ratio("/nowhere") == 0.0

    def test_value_ratio_empty_path(self):
        empty = PathStats("/x", 0, 0, 0)
        assert empty.value_ratio == 0.0

    def test_matching_uses_search_semantics(self):
        # The SQL regexp_like filter uses re.search, not fullmatch; the
        # summary must mirror it so estimates line up with execution.
        summary = build_summary()
        assert sorted(summary.matching_paths(r"^/site/a$")) == ["/site/a"]
        assert sorted(summary.matching_paths(r"^/site/a")) == [
            "/site/a",
            "/site/a/v",
        ]
        assert summary.count_matching(re.compile(r"^/site/a")) == 50
        assert summary.count_matching(r"^/nowhere") == 0

    def test_child_fanout(self):
        summary = build_summary()
        # /site has 10 a-children + 5 b-children over 1 element;
        # /site/a/v (grandchild) must not count.
        assert summary.child_fanout("/site") == pytest.approx(15.0)
        assert summary.child_fanout("/site/a") == pytest.approx(4.0)
        assert summary.child_fanout("/nowhere") == 0.0

    def test_top_paths_ranked_with_path_tiebreak(self):
        summary = build_summary()
        ranked = [s.path for s in summary.top_paths(3)]
        assert ranked == ["/site/a/v", "/site/a", "/site/b"]
        assert len(summary.top_paths(100)) == 4


def _equality(alias: str, paths_alias: str, literal: str) -> PathFilterCond:
    return PathFilterCond(
        alias=alias,
        paths_alias=paths_alias,
        pattern=(),
        anchored=True,
        mode="equality",
        literal=literal,
    )


class TestCardinalityEstimator:
    def test_filter_rows_equality_and_in(self):
        estimator = CardinalityEstimator(build_summary())
        assert estimator.filter_rows(
            _equality("v", "v_paths", "/site/a/v")
        ) == pytest.approx(40.0)
        in_cond = PathFilterCond(
            alias="v",
            paths_alias="v_paths",
            pattern=(),
            anchored=True,
            mode="in",
            literals=("/site/a", "/site/b"),
        )
        assert estimator.filter_rows(in_cond) == pytest.approx(15.0)
        assert estimator.filter_paths(in_cond) == pytest.approx(2.0)
        assert estimator.filter_paths(
            _equality("v", "v_paths", "/site/a/v")
        ) == pytest.approx(1.0)

    def test_scan_rows_uses_exact_path_counts(self):
        estimator = CardinalityEstimator(build_summary())
        select = LogicalSelect(columns=["v.id"])
        scan = select.add_scan("v")
        paths_scan = select.add_scan("paths", "v_paths")
        select.where.add(_equality("v", "v_paths", "/site/a/v"))
        select.where.add(PathsLinkCond("v", "v_paths"))
        assert estimator.scan_rows(select, scan) == pytest.approx(40.0)
        assert estimator.scan_rows(select, paths_scan) == pytest.approx(1.0)

    def test_scan_rows_falls_back_to_relation_counts(self):
        estimator = CardinalityEstimator(build_summary())
        select = LogicalSelect(columns=["a.id"])
        scan = select.add_scan("a")
        assert estimator.scan_rows(select, scan) == pytest.approx(10.0)
        unknown = select.add_scan("zzz")
        assert estimator.scan_rows(select, unknown) == pytest.approx(56.0)

    def test_scan_rows_applies_predicate_selectivities(self):
        estimator = CardinalityEstimator(build_summary())
        select = LogicalSelect(columns=["v.id"])
        scan = select.add_scan("v")
        select.where.add(RawCond("v.text = '3'"))
        assert estimator.scan_rows(select, scan) == pytest.approx(
            40.0 * EQ_SELECTIVITY
        )
        select.where.add(RawCond("v.text IS NOT NULL"))
        assert estimator.scan_rows(select, scan) == pytest.approx(
            40.0 * EQ_SELECTIVITY * NOTNULL_SELECTIVITY
        )
        range_select = LogicalSelect(columns=["v.id"])
        range_scan = range_select.add_scan("v")
        range_select.where.add(RawCond("v.text < '3'"))
        assert estimator.scan_rows(range_select, range_scan) == pytest.approx(
            40.0 * RANGE_SELECTIVITY
        )

    def test_fk_join_not_misread_as_local_predicate(self):
        # A par_id equi-join is a typed edge between two aliases: it
        # never shrinks a single scan, and divides the join by the
        # parent side once (each child row has one parent).
        estimator = CardinalityEstimator(build_summary())
        select = LogicalSelect(columns=["v.id"])
        scan = select.add_scan("v")
        select.add_scan("a")
        select.where.add(ParentJoinCond("v", "a"))
        assert estimator.scan_rows(select, scan) == pytest.approx(40.0)
        assert estimator.select_rows(select) == pytest.approx(40.0)

    def test_select_rows_downward_join(self):
        # a JOIN v via child: 10 * 40 / card(a) = 40.
        estimator = CardinalityEstimator(build_summary())
        select = LogicalSelect(columns=["v.id"])
        select.add_scan("a")
        select.add_scan("v")
        select.where.add(StructuralCond("child", "a", "v"))
        assert estimator.select_rows(select) == pytest.approx(40.0)

    def test_select_rows_doc_eq_skipped_when_already_joined(self):
        estimator = CardinalityEstimator(build_summary())
        select = LogicalSelect(columns=["v.id"])
        select.add_scan("a")
        select.add_scan("v")
        select.where.add(StructuralCond("child", "a", "v"))
        select.where.add(DocEqCond("a", "v"))
        # The structural join already connected the pair; the doc guard
        # must not divide again.
        assert estimator.select_rows(select) == pytest.approx(40.0)

    def test_select_rows_doc_eq_standalone(self):
        estimator = CardinalityEstimator(build_summary())
        select = LogicalSelect(columns=["v.id"])
        select.add_scan("a")
        select.add_scan("v")
        select.where.add(DocEqCond("a", "v"))
        assert estimator.select_rows(select) == pytest.approx(
            10.0 * 40.0 / 2
        )

    def test_estimate_plan_sums_branches(self):
        estimator = CardinalityEstimator(build_summary())
        left = LogicalSelect(columns=["a.id"])
        left.add_scan("a")
        right = LogicalSelect(columns=["b.id"])
        right.add_scan("b")
        plan = QueryPlan(
            root=PlanUnion(branches=[left, right]),
            projection="nodes",
            expression="//a | //b",
        )
        estimate = estimator.estimate_plan(plan)
        assert estimate.branch_rows == (
            pytest.approx(10.0),
            pytest.approx(5.0),
        )
        assert estimate.total_rows == pytest.approx(15.0)

    def test_estimate_plan_empty(self):
        estimator = CardinalityEstimator(build_summary())
        plan = QueryPlan(root=None, projection="nodes", expression="/x")
        estimate = estimator.estimate_plan(plan)
        assert estimate.total_rows == 0.0
        assert estimate.branch_rows == ()
