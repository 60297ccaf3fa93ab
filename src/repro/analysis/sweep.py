"""Workload sweeps: verify/lint every benchmark query under every
optimizer-pass combination.

This is the acceptance harness behind ``repro verify-plans --workloads``
and the CI ``analysis`` job: all XPathMark (Q- and A-series), XMark-path
and DBLP benchmark queries are translated against small generated
instances of their workloads, under **all 2^n subsets** of the optimizer
pass pipeline, and every resulting plan (plus its pass reports) must
satisfy the :class:`~repro.analysis.verifier.PlanVerifier` invariants.
A pass that is only sound *together with* another pass, or a witness
recorded incorrectly under some pass ordering, shows up here before it
can ship.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from repro.analysis.report import Report, merge_reports
from repro.analysis.verifier import PlanVerifier
from repro.analysis.xpath_lint import XPathLinter
from repro.core.adapters import SchemaAwareAdapter
from repro.core.translator import PPFTranslator
from repro.errors import TranslationError, UnsupportedXPathError
from repro.plan.passes import DEFAULT_PASS_NAMES
from repro.schema.inference import infer_schema
from repro.storage.database import Database
from repro.storage.schema_aware import ShreddedStore
from repro.workloads import (
    DBLP_QUERIES,
    DBLPConfig,
    XMarkConfig,
    XPATHMARK_QUERIES,
    generate_dblp,
    generate_xmark,
)
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES

#: Scale of the generated sweep instances.  The verifier checks plan
#: *structure*, which does not depend on data volume, so the smallest
#: non-degenerate instances keep the 2^n sweep fast.
_SWEEP_SCALE = 0.05
_SWEEP_SEED = 11


def pass_combinations(
    names: Sequence[str] = DEFAULT_PASS_NAMES,
) -> list[tuple[str, ...]]:
    """All subsets of ``names`` in pipeline order (2^n combinations)."""
    combos: list[tuple[str, ...]] = []
    for size in range(len(names) + 1):
        combos.extend(itertools.combinations(names, size))
    return combos


def _build_store(document: object) -> ShreddedStore:
    schema = infer_schema([document])
    store = ShreddedStore.create(Database.memory(), schema)
    store.load(document)
    # Collect statistics so the costed passes participate in the sweep
    # (they no-op on statistics-less stores, which would silently shrink
    # the 2^n combinations to the heuristic subsets).
    store.collect_statistics()
    return store


def sweep_workloads() -> list[tuple[str, ShreddedStore, list[tuple[str, str]]]]:
    """``(workload, store, [(qid, xpath), ...])`` triples for the sweep."""
    xmark = _build_store(
        generate_xmark(XMarkConfig(scale=_SWEEP_SCALE, seed=_SWEEP_SEED))
    )
    dblp = _build_store(
        generate_dblp(DBLPConfig(scale=_SWEEP_SCALE, seed=_SWEEP_SEED))
    )
    xmark_queries = [
        (q.qid, q.xpath)
        for q in list(XPATHMARK_QUERIES) + list(XPATHMARK_A_QUERIES)
    ]
    dblp_queries = [(q.qid, q.xpath) for q in DBLP_QUERIES]
    return [("xmark", xmark, xmark_queries), ("dblp", dblp, dblp_queries)]


def _iter_sweep_reports(
    combos: Sequence[tuple[str, ...]],
) -> Iterator[tuple[Report, bool]]:
    """Per-(combo, query) verifier reports plus a translated? flag."""
    for workload, store, queries in sweep_workloads():
        adapter = SchemaAwareAdapter(store)
        verifier = PlanVerifier(
            marking=adapter.marking, summary=adapter.path_summary
        )
        for combo in combos:
            translator = PPFTranslator(adapter, passes=list(combo))
            for qid, xpath in queries:
                subject = (
                    f"{workload}:{qid} passes=[{', '.join(combo) or '-'}]"
                )
                try:
                    translation = translator.translate(xpath)
                except (UnsupportedXPathError, TranslationError):
                    yield Report(), False
                    continue
                yield (
                    verifier.verify(
                        translation.plan,
                        translation.pass_reports,
                        subject=subject,
                    ),
                    True,
                )


def verify_workloads(
    combos: Optional[Sequence[tuple[str, ...]]] = None,
) -> tuple[Report, int, int]:
    """Run the full sweep.

    :returns: ``(merged report, plans verified, queries skipped)`` —
        skipped counts expressions the translator rejects as
        unsupported (they never produce a plan to verify).
    """
    if combos is None:
        combos = pass_combinations()
    verified = skipped = 0
    reports: list[Report] = []
    for report, translated in _iter_sweep_reports(combos):
        if translated:
            verified += 1
            reports.append(report)
        else:
            skipped += 1
    return merge_reports(reports), verified, skipped


def lint_workloads() -> tuple[Report, int]:
    """Run the :class:`XPathLinter` over every workload query (against
    the XMark/DBLP schema markings), returning ``(report, linted)``."""
    linted = 0
    reports: list[Report] = []
    for _workload, store, queries in sweep_workloads():
        adapter = SchemaAwareAdapter(store)
        linter = XPathLinter(marking=adapter.marking)
        for qid, xpath in queries:
            linted += 1
            report = linter.lint(xpath)
            # Re-key subjects on the query id for readable output.
            reports.append(
                Report(
                    [
                        finding.__class__(
                            finding.analyzer,
                            finding.code,
                            finding.severity,
                            finding.message,
                            f"{qid}: {xpath}",
                            finding.citation,
                        )
                        for finding in report
                    ]
                )
            )
    return merge_reports(reports), linted
