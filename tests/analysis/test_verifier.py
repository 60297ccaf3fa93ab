"""PlanVerifier: clean over real translations, and every seeded bug
(hand-broken plan) produces exactly the expected finding."""

import copy
import dataclasses

import pytest

from repro import Database, ShreddedStore, infer_schema
from repro.analysis import PlanVerifier, Severity, verify_plan
from repro.core.adapters import SchemaAwareAdapter
from repro.core.translator import PPFTranslator
from repro.plan.nodes import AndCond, RawCond, Scan, TrueCond
from repro.plan.passes import PassReport
from repro.workloads import XMarkConfig, generate_xmark


@pytest.fixture(scope="module")
def adapter():
    document = generate_xmark(XMarkConfig(scale=0.05, seed=3))
    store = ShreddedStore.create(Database.memory(), infer_schema([document]))
    store.load(document)
    return SchemaAwareAdapter(store)


@pytest.fixture(scope="module")
def translator(adapter):
    return PPFTranslator(adapter)


@pytest.fixture()
def translated(translator):
    return translator.translate("/site/regions//item[@id]/name")


def _codes(report):
    return [finding.code for finding in report]


class TestCleanPlans:
    def test_real_translation_is_clean(self, translated, verifier):
        report = verifier.verify(translated.plan, translated.pass_reports)
        assert report.ok
        assert len(report) == 0

    def test_value_projection_is_clean(self, translator, verifier):
        translation = translator.translate("//person/name/text()")
        report = verifier.verify(translation.plan, translation.pass_reports)
        assert report.ok

    def test_union_is_clean(self, translator, verifier):
        translation = translator.translate("//bidder | //seller")
        report = verifier.verify(translation.plan, translation.pass_reports)
        assert report.ok

    def test_one_shot_wrapper(self, translated, adapter):
        report = verify_plan(
            translated.plan,
            translated.pass_reports,
            marking=adapter.marking,
        )
        assert report.ok


class TestSeededBugs:
    def test_unbound_alias_caught(self, translated, verifier):
        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        select.scans[0] = dataclasses.replace(
            select.scans[0], alias="zz_renamed"
        )
        report = verifier.verify(plan)
        assert not report.ok
        assert report.by_code("PV001")
        assert all(f.severity is Severity.ERROR for f in report.errors)

    def test_disconnected_join_caught(self, translated, verifier):
        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        assert len(select.scans) >= 2
        select.where = AndCond([TrueCond()])
        report = verifier.verify(plan)
        codes = {finding.code for finding in report.errors}
        assert "PV002" in codes

    def test_unjustified_elimination_caught(self, translated, verifier):
        fake = PassReport(
            "paths-join-elimination", True, 1, "seeded", witnesses=()
        )
        report = verifier.verify(translated.plan, (fake,))
        assert [f.code for f in report.errors] == ["PV004"]

    def test_elimination_without_marking_caught(self, translated):
        unmarked = PlanVerifier(marking=None)
        fake = PassReport(
            "paths-join-elimination", True, 1, "seeded", witnesses=()
        )
        report = unmarked.verify(translated.plan, (fake,))
        assert [f.code for f in report.errors] == ["PV004"]

    def test_tampered_witness_class_caught(self, translator, verifier):
        translation = translator.translate("/site/regions")
        fired = [
            r
            for r in translation.pass_reports
            if r.name == "paths-join-elimination" and r.fired
        ]
        assert fired and fired[0].witnesses
        witness = fired[0].witnesses[0]
        tampered = dataclasses.replace(
            witness,
            classes=tuple((name, "I-P") for name, _ in witness.classes),
        )
        bad_report = dataclasses.replace(
            fired[0], witnesses=(tampered,) + fired[0].witnesses[1:]
        )
        report = verifier.verify(translation.plan, (bad_report,))
        assert report.by_code("PV004")

    def test_genuine_witnesses_pass(self, translator, verifier):
        translation = translator.translate("/site/regions")
        assert any(
            r.fired and r.name == "paths-join-elimination"
            for r in translation.pass_reports
        )
        report = verifier.verify(translation.plan, translation.pass_reports)
        assert report.ok

    def test_missing_order_by_caught(self, translated, verifier):
        plan = copy.deepcopy(translated.plan)
        plan.root.order_by = []
        report = verifier.verify(plan)
        assert report.by_code("PV006")

    def test_order_by_dewey_pos_alone_caught(self, translated, verifier):
        """Ordering within a document is not document order across a
        multi-document store: the clause must be the exact pair."""
        for order_by in (
            ["dewey_pos"],
            ["dewey_pos", "doc_id"],
            ["doc_id", "dewey_pos DESC"],
        ):
            plan = copy.deepcopy(translated.plan)
            plan.root.order_by = order_by
            assert _codes(verifier.verify(plan)) == ["PV006"], order_by

    def test_pruned_distinct_caught(self, translator, verifier):
        # The ancestor join fans out (many keywords share a listitem),
        # so DISTINCT is load-bearing on this plan.
        translation = translator.translate("//keyword/ancestor::listitem")
        plan = copy.deepcopy(translation.plan)
        root = plan.root
        assert root.distinct
        report = verifier.verify(plan)
        assert report.ok  # with DISTINCT intact the plan is fine
        root.distinct = False
        report = verifier.verify(plan)
        assert report.by_code("PV006")

    def test_unknown_axis_caught(self, translated, verifier):
        from repro.plan.nodes import StructuralCond

        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        aliases = [scan.alias for scan in select.scans[:2]]
        select.where = AndCond(
            [
                select.where,
                StructuralCond("sideways", aliases[0], aliases[1]),
            ]
        )
        report = verifier.verify(plan)
        assert report.by_code("PV003")

    def test_paths_scan_in_dewey_comparison_caught(self, translated, verifier):
        from repro.plan.nodes import StructuralCond

        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        paths_aliases = [s.alias for s in select.scans if s.is_paths]
        element_aliases = [s.alias for s in select.scans if not s.is_paths]
        assert paths_aliases and element_aliases
        select.where = AndCond(
            [
                select.where,
                StructuralCond(
                    "descendant", element_aliases[0], paths_aliases[0]
                ),
            ]
        )
        report = verifier.verify(plan)
        assert report.by_code("PV003")

    def test_paths_column_misuse_caught(self, translated, verifier):
        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        paths_alias = next(s.alias for s in select.scans if s.is_paths)
        select.where = AndCond(
            [select.where, RawCond(f"{paths_alias}.dewey_pos IS NOT NULL")]
        )
        report = verifier.verify(plan)
        assert report.by_code("PV003")

    def test_unanchored_pattern_caught(self, translated, verifier):
        from repro.plan.nodes import PathFilterCond, iter_conditions

        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        filters = [
            c
            for c in iter_conditions(select.where)
            if isinstance(c, PathFilterCond)
        ]
        assert filters
        broken = dataclasses.replace(filters[0], pattern=())

        from repro.plan.nodes import rewrite_condition

        select.where = rewrite_condition(
            select.where, lambda c: broken if c is filters[0] else c
        )
        report = verifier.verify(plan)
        assert report.by_code("PV005")

    def test_literal_its_own_regex_rejects_caught(self, translator, verifier):
        """An equality/``in`` filter stands for its regex: a listed path
        the regex does not accept is a wrong answer waiting to happen."""
        from repro.plan.nodes import PathFilterCond, iter_conditions

        plan = copy.deepcopy(translator.translate("//keyword").plan)
        (cond,) = [
            c
            for c in iter_conditions(plan.branches()[0].where)
            if isinstance(c, PathFilterCond)
        ]
        genuine = "/site/regions/asia/item/description/text/keyword"
        cond.set_literal_paths((genuine, genuine + "/bold/keyword"))
        assert verifier.verify(plan).ok
        for strays in [("/site/people/person/name",), (genuine, "/site")]:
            cond.set_literal_paths(strays)
            report = verifier.verify(plan)
            assert [f.code for f in report.errors] == ["PV005"]
            assert "does not accept" in report.errors[0].message

    def test_duplicate_alias_caught(self, translated, verifier):
        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        select.scans.append(
            Scan(select.scans[0].table, select.scans[0].alias)
        )
        report = verifier.verify(plan)
        assert report.by_code("PV001")

    def test_wrong_projection_arity_caught(self, translated, verifier):
        plan = copy.deepcopy(translated.plan)
        select = plan.branches()[0]
        select.columns = select.columns[:2]
        report = verifier.verify(plan)
        assert report.by_code("PV007")

    def test_findings_carry_citations(self, translated, verifier):
        plan = copy.deepcopy(translated.plan)
        plan.root.order_by = []
        report = verifier.verify(plan)
        assert all(f.citation for f in report.findings)


@pytest.fixture(scope="module")
def costed_adapter():
    """An adapter over a store *with* statistics, so the costed passes
    fire and record their witnesses."""
    document = generate_xmark(XMarkConfig(scale=0.05, seed=3))
    store = ShreddedStore.create(Database.memory(), infer_schema([document]))
    store.load(document)
    store.collect_statistics()
    return SchemaAwareAdapter(store)


@pytest.fixture(scope="module")
def costed_translator(costed_adapter):
    return PPFTranslator(costed_adapter)


@pytest.fixture(scope="module")
def verifier(costed_adapter):
    return PlanVerifier(
        marking=costed_adapter.marking, summary=costed_adapter.path_summary
    )


def _path_filters(select):
    from repro.plan.nodes import PathFilterCond, iter_conditions

    return [
        c
        for c in iter_conditions(select.where)
        if isinstance(c, PathFilterCond)
    ]


class TestSummaryAccessPath:
    """PV003 / PV004 over what ``costed-access-strategy`` leaves: a
    resolved filter needs no `Paths` scan, a regex needs scan and link,
    and a dropped tautology re-derives from the summary it cites."""

    def _tautology(self, costed_translator):
        translation = costed_translator.translate("//keyword")
        (report,) = [
            r for r in translation.pass_reports if r.tautologies
        ]
        assert report.name == "costed-access-strategy"
        return translation, report

    def test_tautology_witness_rederives(self, costed_translator, verifier):
        translation, report = self._tautology(costed_translator)
        assert translation.path_filter_count() == 0
        assert not _path_filters(translation.plan.branches()[0])
        (witness,) = report.tautologies
        assert witness.names == ("keyword",)
        assert verifier.verify(
            translation.plan, translation.pass_reports
        ).ok

    def test_witness_missing_a_stored_path_caught(
        self, costed_translator, verifier
    ):
        translation, report = self._tautology(costed_translator)
        (witness,) = report.tautologies
        tampered = dataclasses.replace(
            witness, matched_paths=witness.matched_paths[1:]
        )
        bad = dataclasses.replace(report, tautologies=(tampered,))
        findings = verifier.verify(translation.plan, (bad,))
        assert [f.code for f in findings.errors] == ["PV004"]
        assert "differ from re-derived" in findings.errors[0].message

    def test_tautology_that_restricts_something_caught(
        self, costed_translator, verifier
    ):
        """The witness of a filter that was *not* a tautology: the
        regex of ``//listitem//keyword`` misses keywords outside a
        list."""
        translation, report = self._tautology(costed_translator)
        (witness,) = report.tautologies
        narrower = costed_translator.translate("//listitem//keyword")
        (cond,) = _path_filters(narrower.plan.branches()[0])
        forged = dataclasses.replace(
            witness,
            pattern=cond.pattern,
            anchored=cond.anchored,
            matched_paths=cond.literal_paths(),
        )
        assert len(forged.matched_paths) < len(witness.matched_paths)
        bad = dataclasses.replace(report, tautologies=(forged,))
        findings = verifier.verify(translation.plan, (bad,))
        assert [f.code for f in findings.errors] == ["PV004"]
        assert "restricts something" in findings.errors[0].message

    def test_witness_of_another_summary_version_caught(
        self, costed_translator, costed_adapter
    ):
        translation, _ = self._tautology(costed_translator)
        for summary in (
            None,
            dataclasses.replace(costed_adapter.path_summary, version=(9, 9)),
        ):
            stale = PlanVerifier(
                marking=costed_adapter.marking, summary=summary
            )
            findings = stale.verify(
                translation.plan, translation.pass_reports
            )
            assert [f.code for f in findings.errors] == ["PV004"]
            assert "cites summary version" in findings.errors[0].message

    def test_literal_filter_needs_no_paths_scan(
        self, costed_translator, verifier
    ):
        translation = costed_translator.translate("//listitem//keyword")
        select = translation.plan.branches()[0]
        (cond,) = _path_filters(select)
        assert cond.mode == "in"
        assert not any(scan.is_paths for scan in select.scans)
        assert verifier.verify(
            translation.plan, translation.pass_reports
        ).ok

    def test_literal_filter_on_the_wrong_owner_caught(
        self, costed_translator, verifier
    ):
        """The slip the semi-join form invites: testing the alias the
        regex used to read.  Unbound once the scan has left the plan;
        a `Paths` scan, not an element relation, while another filter
        keeps it."""
        plan = copy.deepcopy(
            costed_translator.translate("//listitem//keyword").plan
        )
        select = plan.branches()[0]
        (cond,) = _path_filters(select)
        cond.alias = cond.paths_alias
        assert _codes(verifier.verify(plan)) == ["PV001"]
        select.add_scan("paths", cond.paths_alias)
        assert "PV003" in _codes(verifier.verify(plan))

    def test_regex_filter_without_scan_or_link_caught(
        self, translator, verifier
    ):
        from repro.plan.nodes import PathsLinkCond

        plan = translator.translate("//listitem//keyword").plan
        select = plan.branches()[0]
        (cond,) = _path_filters(select)
        assert cond.mode == "regex" and verifier.verify(plan).ok
        unlinked = copy.deepcopy(plan)
        branch = unlinked.branches()[0]
        branch.where.parts = [
            part
            for part in branch.where.parts
            if not isinstance(part, PathsLinkCond)
        ]
        report = verifier.verify(unlinked)
        assert "PV003" in _codes(report)
        assert any("no paths link" in f.message for f in report.errors)
        unscanned = copy.deepcopy(plan)
        branch = unscanned.branches()[0]
        branch.scans = [s for s in branch.scans if not s.is_paths]
        assert "PV003" in _codes(verifier.verify(unscanned))


class TestCostedReorders:
    """PV008: every cost-based reorder must carry a witness the
    verifier can re-check against the surviving plan."""

    _JOIN_QUERY = (
        "/site/open_auctions/open_auction[bidder/date = interval/start]"
    )
    _UNION_QUERY = "//keyword | //listitem"

    def _fired(self, translation, name):
        reports = [
            r
            for r in translation.pass_reports
            if r.name == name and r.fired
        ]
        assert reports, f"{name} did not fire on {translation.expression!r}"
        return reports[0]

    def test_genuine_join_order_witness_passes(
        self, costed_translator, verifier
    ):
        translation = costed_translator.translate(self._JOIN_QUERY)
        self._fired(translation, "costed-join-order")
        report = verifier.verify(translation.plan, translation.pass_reports)
        assert report.ok

    def test_genuine_union_order_witness_passes(
        self, costed_translator, verifier
    ):
        translation = costed_translator.translate(self._UNION_QUERY)
        self._fired(translation, "costed-union-order")
        report = verifier.verify(translation.plan, translation.pass_reports)
        assert report.ok

    def test_missing_witnesses_caught(self, costed_translator, verifier):
        translation = costed_translator.translate(self._JOIN_QUERY)
        fired = self._fired(translation, "costed-join-order")
        stripped = dataclasses.replace(fired, reorders=())
        reports = tuple(
            stripped if r is fired else r
            for r in translation.pass_reports
        )
        report = verifier.verify(translation.plan, reports)
        assert report.by_code("PV008")

    def test_witness_not_a_permutation_caught(
        self, costed_translator, verifier
    ):
        translation = costed_translator.translate(self._JOIN_QUERY)
        fired = self._fired(translation, "costed-join-order")
        witness = fired.reorders[0]
        tampered = dataclasses.replace(
            witness, before=witness.before[:-1]
        )
        bad = dataclasses.replace(fired, reorders=(tampered,))
        reports = tuple(
            bad if r is fired else r for r in translation.pass_reports
        )
        report = verifier.verify(translation.plan, reports)
        assert report.by_code("PV008")

    def test_plan_not_matching_witness_caught(
        self, costed_translator, verifier
    ):
        # The witness claims one order; hand the verifier a plan whose
        # scans were shuffled back — the reorder it vouches for is not
        # what the surviving plan executes.
        translation = costed_translator.translate(self._JOIN_QUERY)
        fired = self._fired(translation, "costed-join-order")
        witness = fired.reorders[0]
        aliases = {alias for _, alias in witness.after}
        plan = copy.deepcopy(translation.plan)
        reordered = [
            s
            for s in PlanVerifier._all_selects(plan)
            if {scan.alias for scan in s.scans} == aliases
        ]
        assert reordered
        reordered[0].scans = list(reversed(reordered[0].scans))
        report = verifier.verify(plan, translation.pass_reports)
        assert report.by_code("PV008")

    def test_union_order_estimates_must_be_sorted(
        self, costed_translator, verifier
    ):
        translation = costed_translator.translate(self._UNION_QUERY)
        fired = self._fired(translation, "costed-union-order")
        witness = fired.reorders[0]
        tampered = dataclasses.replace(
            witness, estimates=tuple(reversed(witness.estimates))
        )
        bad = dataclasses.replace(fired, reorders=(tampered,))
        reports = tuple(
            bad if r is fired else r for r in translation.pass_reports
        )
        report = verifier.verify(translation.plan, reports)
        assert report.by_code("PV008")
