"""Golden-shape tests mirroring the paper's Tables 3–6 over the Figure 1
schema: which relations appear, which joins are used, when the `Paths`
relation is (not) touched, and how SQL splitting behaves."""

import pytest

from repro import PPFEngine, UnsupportedXPathError
from repro.sqlgen.ast import SelectStatement, UnionStatement


@pytest.fixture()
def engine(figure1_store):
    return PPFEngine(figure1_store)


@pytest.fixture()
def engine_no45(figure1_store):
    return PPFEngine(figure1_store, path_filter_optimization=False)


def tables_of(statement):
    if isinstance(statement, UnionStatement):
        return [sorted(ref.alias for ref in s.tables) for s in statement.branches]
    return [sorted(ref.alias for ref in statement.tables)]


class TestTable3Shapes:
    def test_example1_forward_with_descendant(self, engine):
        """/A[@x=3]/B/C//F — two relations (A, F), one Dewey join, and no
        `Paths` join because F is U-P under Figure 1."""
        result = engine.translate("/A[@x=3]/B/C//F")
        assert tables_of(result.statement) == [["A", "F"]]
        sql = result.sql
        assert "CAST(A.attr_x AS NUMERIC) = 3" in sql
        assert "F.dewey_pos > A.dewey_pos" in sql
        assert "F.doc_id = A.doc_id" in sql
        assert "regexp_like" not in sql
        assert result.path_filter_count() == 0

    def test_example1_without_optimization(self, engine_no45):
        """Algorithm 1 followed literally: every forward PPF filters on
        its path; F gets the full forward-path regex over its joined
        `Paths` row (Table 3, ex. 1), A's equality tests A.path_id."""
        result = engine_no45.translate("/A[@x=3]/B/C//F")
        sql = result.sql
        assert result.path_filter_count() == 1  # F (regex); A is an equality
        assert "regexp_like(F_paths.path, '^/A/B/C/(.+/)?F$')" in sql
        assert "F.path_id = F_paths.id" in sql
        assert "A.path_id = (SELECT id FROM paths WHERE path = '/A')" in sql

    def test_example2_fk_join_for_child(self, engine_no45):
        """/A[@x=3]/B — path *equality* (no metacharacters) plus the
        foreign-key equijoin of Section 4.2 (Table 3, example 2)."""
        result = engine_no45.translate("/A[@x=3]/B")
        sql = result.sql
        assert "B.path_id = (SELECT id FROM paths WHERE path = '/A/B')" in sql
        assert result.path_filter_count() == 0
        assert "B.par_id = A.id" in sql
        assert "dewey_pos >" not in sql.replace("ORDER", "")

    def test_example3_backward_path(self, engine_no45):
        """//F/parent::E/ancestor::B — regex on F's path, Dewey ancestor
        join between B and F (Table 3, example 3; D→E for our schema)."""
        sql = engine_no45.translate("//F/parent::E/ancestor::B").sql
        assert "regexp_like(F_paths.path, " in sql
        assert "/B/" in sql  # the reversed pattern mentions B above E/F
        assert "F.dewey_pos > B.dewey_pos" in sql
        # level pinning: B at least two levels above F
        assert "length(B.dewey_pos) <= length(F.dewey_pos) - 6" in sql

    def test_example3_filter_omitted_when_provable(self, engine):
        """Under Figure 1 F's unique root path already matches the
        backward pattern, so Section 4.5 drops even this filter."""
        sql = engine.translate("//F/parent::E/ancestor::B").sql
        assert "regexp_like" not in sql
        assert "F.dewey_pos > B.dewey_pos" in sql

    def test_fk_join_disabled_uses_dewey(self, figure1_store):
        engine = PPFEngine(
            figure1_store,
            path_filter_optimization=False,
            prefer_fk_joins=False,
        )
        sql = engine.translate("/A[@x=3]/B").sql
        assert "B.par_id = A.id" not in sql
        assert "B.dewey_pos > A.dewey_pos" in sql
        assert "length(B.dewey_pos) = length(A.dewey_pos) + 3" in sql


class TestTable4OrderAxes:
    def test_following_sibling(self, engine):
        """//D[@x=4]/following-sibling::E — Dewey order plus shared
        parent (Table 4, example 1; C's children D and E)."""
        sql = engine.translate("//D[@x=4]/following-sibling::E").sql
        assert "E.dewey_pos > D.dewey_pos" in sql
        assert "E.par_id = D.par_id" in sql
        assert "CAST(D.attr_x AS NUMERIC) = 4" in sql

    def test_preceding(self, engine):
        """//D[@x=4]/preceding::G — the Table 2 row 5 condition."""
        sql = engine.translate("//D[@x=4]/preceding::G").sql
        assert "D.dewey_pos > CAST(G.dewey_pos || X'FF' AS BLOB)" in sql

    def test_order_axis_skips_path_filter_when_schema_aware(self, engine):
        result = engine.translate("//D/following-sibling::E")
        assert result.path_filter_count() == 0

    def test_order_axis_filters_under_algorithm1(self, engine_no45):
        result = engine_no45.translate("//D/following-sibling::E")
        sql = result.sql
        assert "regexp_like(E_paths.path, '^.*/E$')" in sql


class TestTable5Predicates:
    def test_example1_predicate_subselect(self, engine_no45):
        """/A/B[C/*/F=2] — EXISTS sub-select whose regex extends the
        context's anchored path (Table 5, example 1)."""
        sql = engine_no45.translate("/A/B[C/*/F=2]").sql
        assert "EXISTS (SELECT NULL" in sql
        assert "'^/A/B/C/[^/]+/F$'" in sql
        assert "F.dewey_pos > B.dewey_pos" in sql
        assert "CAST(F.text AS NUMERIC) = 2" in sql

    def test_example2_backward_only_predicate(self, engine_no45):
        """//F[parent::E or ancestor::G] — no sub-select at all: two
        regex filters on F's own path, OR-ed (Table 5, example 2)."""
        sql = engine_no45.translate("//F[parent::E or ancestor::G]").sql
        assert "EXISTS" not in sql
        assert sql.count("regexp_like(F_paths.path") >= 2
        assert " OR " in sql

    def test_backward_only_predicate_statically_true(self, engine):
        """With Section 4.5 knowledge, [ancestor::B] on F is provably
        always true under Figure 1 — no filter, no sub-select."""
        result = engine.translate("//F[ancestor::B]")
        sql = result.sql
        assert "EXISTS" not in sql
        assert "regexp_like" not in sql

    def test_backward_only_predicate_statically_false(self, engine):
        """[parent::G] on F can never hold under Figure 1: the whole
        query is statically empty."""
        result = engine.translate("//F[parent::G]")
        assert result.is_empty

    def test_attribute_predicates(self, engine):
        sql = engine.translate("//D[@x]").sql
        assert "D.attr_x IS NOT NULL" in sql

    def test_not_predicate(self, engine):
        sql = engine.translate("/A/B[not(C)]").sql
        assert "NOT " in sql


class TestTable6AndSplitting:
    def test_backbone_wildcard_splits(self, engine):
        """A/B/* resolves to C and G: two UNION branches (Section 4.4)."""
        result = engine.translate("/A/B/*")
        assert result.branch_count() == 2
        # G is I-P (recursive), so its branch keeps the `Paths` filter.
        assert tables_of(result.statement) == [["C"], ["G", "G_paths"]]

    def test_predicate_wildcard_becomes_or_of_exists(self, engine):
        """/A/B[C/*] — the split happens inside the predicate as OR-ed
        sub-selects over D and E (Table 6)."""
        result = engine.translate("/A/B[C/*]")
        assert result.branch_count() == 1
        sql = result.sql
        assert sql.count("EXISTS") == 2
        assert " OR " in sql
        assert "FROM D" in sql and "FROM E" in sql

    def test_deep_wildcard_star_star(self, engine):
        result = engine.translate("//*")
        # one branch per relation
        assert result.branch_count() == len(
            engine.store.mapping.relations
        )

    def test_union_of_paths(self, engine):
        result = engine.translate("/A/B/C | /A/B/G")
        assert result.branch_count() == 2

    def test_empty_translation_for_impossible_path(self, engine):
        result = engine.translate("/A/F")
        assert result.is_empty
        assert result.sql == ""


class TestSection45:
    def test_up_relation_never_joins_paths(self, engine):
        for expression in ("/A/B/C/D", "//D", "/A/B/C//D"):
            assert engine.translate(expression).path_filter_count() == 0

    def test_ip_relation_always_joins_paths(self, engine):
        """An I-P label is never proved redundant: a regex keeps the
        `Paths` join, an exact path tests G.path_id."""
        result = engine.translate("/A/B//G")
        assert result.path_filter_count() == 1
        assert "regexp_like(G_paths.path, " in result.sql
        exact = engine.translate("/A/B/G/G")
        assert exact.path_filter_count() == 0
        assert (
            "G.path_id = (SELECT id FROM paths WHERE path = '/A/B/G/G')"
            in exact.sql
        )

    def test_algorithm1_always_filters(self, engine_no45):
        result = engine_no45.translate("/A/B/C/D")
        assert (
            "D.path_id = (SELECT id FROM paths WHERE path = '/A/B/C/D')"
            in result.sql
        )
        assert engine_no45.translate("//D").path_filter_count() == 1

    def test_projection_and_order(self, engine):
        sql = engine.translate("//F").sql
        # The prune-distinct-order pass drops the DISTINCT: a single
        # F scan cannot produce duplicate element rows.
        assert sql.startswith("SELECT F.id")
        assert "ORDER BY doc_id, dewey_pos" in sql

    def test_distinct_kept_without_prune_pass(self, figure1_store):
        engine = PPFEngine(
            figure1_store,
            passes=("paths-join-elimination", "regex-to-equality"),
        )
        assert engine.translate("//F").sql.startswith("SELECT DISTINCT")


class TestUnsupported:
    @pytest.mark.parametrize(
        "expression",
        [
            "//B[2]",  # positional on a descendant step
            "//F/ancestor::B[1]",  # positional on a backward step
            "/A/B[G][2]",  # positional not first (renumbering)
            "/A/B[position()+1=2]",  # arithmetic over position()
            "/A/B[count(C) = count(D)]",  # count on both sides
            "/following::A",
        ],
    )
    def test_raises_unsupported(self, engine, expression):
        with pytest.raises(UnsupportedXPathError):
            engine.translate(expression)


class TestPositionalPredicates:
    """Extension: [k] / [position() op k] / [last()] on child steps."""

    def test_indexed_child(self, engine, figure1_native):
        for expression in (
            "/A/B[1]",
            "/A/B[2]",
            "/A/B[last()]",
            "/A/B/*[2]",
            "/A/B/C[2]/E/F[1]",
            "/A/B[position()<=1]",
            "/A/B/C[E/F[2]=2]",
        ):
            expected = sorted(
                n.node_id for n in figure1_native.execute(expression)
            )
            got = sorted(engine.execute(expression).ids)
            assert got == expected, expression

    def test_out_of_range_index_is_empty(self, engine):
        assert engine.execute("/A/B[9]").ids == []

    def test_fractional_index_is_empty(self, engine):
        assert engine.execute("/A/B[position()=1.5]").ids == []

    def test_sql_uses_sibling_count(self, engine):
        sql = engine.translate("/A/B[2]").sql
        assert "COUNT(*)" in sql
        assert "par_id IS B.par_id" in sql
