"""Static verification layer: machine-checked paper invariants.

Three analyzers over one :class:`~repro.analysis.report.Report` model:

* :class:`~repro.analysis.verifier.PlanVerifier` — walks translated
  :class:`~repro.plan.nodes.QueryPlan` trees and checks the structural
  invariants the paper's correctness rests on (alias binding, join-graph
  connectivity, Table 2 Dewey typing, Section 4.5 elimination witnesses,
  Table 1 regex anchoring, observable order/uniqueness, projection
  shape).
* :class:`~repro.analysis.xpath_lint.XPathLinter` — pre-translation
  query analysis (unsupported features, PPF fragmentation, path-index-
  defeating predicates, regex-scan-forcing ``//`` steps).
* :class:`~repro.analysis.code_lint.CodeLinter` — ``ast``-based project
  rules over the Python sources (no raw sqlite3 outside the facade, no
  interpolated SQL, no store mutation outside the mutation
  transaction).

The serving stack's thread and event-loop discipline has no analyzer:
each of its invariants is guarded by the tier-1 test that fails on its
bug (DESIGN.md §5).

:mod:`repro.analysis.sweep` drives the verifier over every workload
query under all 2^n optimizer-pass combinations; the engines gate
translations on the verifier when built with ``verify_plans=True``.
"""

from repro.analysis.code_lint import CodeLinter, lint_code
from repro.analysis.report import (
    Finding,
    Report,
    Severity,
    exit_code,
    merge_reports,
)
from repro.analysis.sweep import (
    lint_workloads,
    pass_combinations,
    verify_workloads,
)
from repro.analysis.verifier import PlanVerifier, verify_plan
from repro.analysis.xpath_lint import XPathLinter, lint_xpath

__all__ = [
    "CodeLinter",
    "Finding",
    "PlanVerifier",
    "Report",
    "Severity",
    "XPathLinter",
    "exit_code",
    "lint_code",
    "lint_workloads",
    "lint_xpath",
    "merge_reports",
    "pass_combinations",
    "verify_plan",
    "verify_workloads",
]
