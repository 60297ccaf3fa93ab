"""Unit tests for the mapping adapters (schema-aware vs Edge).

The Section 4.5 path-filter decisions formerly tested here moved into
the optimizer passes; the equivalent behaviour is asserted through the
translator (plan in, SQL out)."""

import pytest

from repro import Database, EdgeStore, ShreddedStore, figure1_schema
from repro.core.adapters import (
    Candidate,
    EdgeAdapter,
    SchemaAwareAdapter,
)
from repro.core.pathregex import PatternStep
from repro.core.translator import PPFTranslator
from repro.plan.nodes import FalseCond


@pytest.fixture(scope="module")
def schema_adapter():
    store = ShreddedStore.create(Database.memory(), figure1_schema())
    return SchemaAwareAdapter(store)


@pytest.fixture(scope="module")
def edge_adapter():
    return EdgeAdapter(EdgeStore.create(Database.memory()))


class TestSchemaAwareAdapter:
    def test_forward_names_from_root(self, schema_adapter):
        pattern = [PatternStep("child", "A"), PatternStep("child", "B")]
        assert schema_adapter.forward_names(pattern, None, True) == {"B"}

    def test_forward_names_from_context(self, schema_adapter):
        pattern = [PatternStep("child", None)]
        assert schema_adapter.forward_names(
            pattern, frozenset({"B"}), False
        ) == {"C", "G"}

    def test_candidates_one_relation_per_name(self, schema_adapter):
        candidates = schema_adapter.candidates(frozenset({"C", "G"}), None)
        assert sorted(c.table for c in candidates) == ["C", "G"]
        assert all(c.name_filter is None for c in candidates)

    def test_path_filter_unique_path_dropped(self, schema_adapter):
        """U-P labels on their sole path need no `Paths` join at all."""
        result = PPFTranslator(schema_adapter).translate("/A/B/C/D")
        assert result.path_filter_count() == 0

    def test_path_filter_recursive_stays_regex(self, schema_adapter):
        """I-P labels (G is recursive) always keep the regex filter."""
        result = PPFTranslator(schema_adapter).translate("//G")
        assert result.path_filter_count() == 1
        assert "regexp_like" in result.sql

    def test_path_filter_impossible_empty(self, schema_adapter):
        """No root path of F matches /A/F → statically empty."""
        result = PPFTranslator(schema_adapter).translate("/A/F")
        assert result.is_empty

    def test_path_filter_equality_payload(self, schema_adapter):
        """With 4.5 elimination off, an exact pattern still lowers to a
        path equality instead of a regex (Table 3) — a test of the
        element's path_id, so no `Paths` row is joined for it."""
        literal = SchemaAwareAdapter(
            schema_adapter.store, path_filter_optimization=False
        )
        result = PPFTranslator(literal).translate("/A/B")
        assert result.path_filter_count() == 0
        assert (
            "B.path_id = (SELECT id FROM paths WHERE path = '/A/B')"
            in result.sql
        )

    def test_text_expr_only_with_column(self, schema_adapter):
        f = Candidate("F", frozenset({"F"}))
        b = Candidate("B", frozenset({"B"}))
        assert schema_adapter.text_expr(f, "F", False) == "F.text"
        assert (
            schema_adapter.text_expr(f, "F", True)
            == "CAST(F.text AS NUMERIC)"
        )
        assert schema_adapter.text_expr(b, "B", False) is None

    def test_attr_expr(self, schema_adapter):
        d = Candidate("D", frozenset({"D"}))
        assert schema_adapter.attr_expr(d, "D", "x", False) == "D.attr_x"
        assert (
            schema_adapter.attr_expr(d, "D", "x", True)
            == "CAST(D.attr_x AS NUMERIC)"
        )
        assert schema_adapter.attr_expr(d, "D", "nope", True) is None

    def test_attr_condition_missing_is_false(self, schema_adapter):
        d = Candidate("D", frozenset({"D"}))
        condition = schema_adapter.attr_condition(
            d, "D", "nope", "=", "'x'", False, lambda t: t
        )
        assert isinstance(condition, FalseCond)


class TestEdgeAdapter:
    def test_names_are_open(self, edge_adapter):
        assert edge_adapter.forward_names([], None, True) is None
        assert edge_adapter.backward_names([], None) is None

    def test_single_candidate_with_name_filter(self, edge_adapter):
        (candidate,) = edge_adapter.candidates(None, "item")
        assert candidate.table == "edge"
        assert candidate.name_filter == ("item",)
        assert candidate.name_column == "name"

    def test_wildcard_candidate_unfiltered(self, edge_adapter):
        (candidate,) = edge_adapter.candidates(None, None)
        assert candidate.name_filter is None

    def test_path_filter_always_fires(self, edge_adapter):
        """Without a schema the path filter can never be dropped; exact
        patterns still get the cheaper equality form, which needs no
        `Paths` join."""
        translator = PPFTranslator(edge_adapter)
        exact = translator.translate("/A")
        assert exact.path_filter_count() == 0
        assert (
            "edge.path_id = (SELECT id FROM paths WHERE path = '/A')"
            in exact.sql
        )
        fuzzy = translator.translate("//A")
        assert fuzzy.path_filter_count() == 1
        assert "regexp_like" in fuzzy.sql

    def test_text_expr_casts_for_numbers(self, edge_adapter):
        candidate = Candidate("edge", None)
        assert "CAST" in edge_adapter.text_expr(candidate, "e", True)
        assert edge_adapter.text_expr(candidate, "e", False) == "e.text"

    def test_attr_expr_is_scalar_subquery(self, edge_adapter):
        candidate = Candidate("edge", None)
        expr = edge_adapter.attr_expr(candidate, "e", "id", False)
        assert expr.startswith("(SELECT value FROM attrs")
