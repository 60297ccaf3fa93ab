"""Static analysis: project rules over the Python sources.

:class:`~repro.analysis.code_lint.CodeLinter` is an ``ast``-based
checker (no raw sqlite3 outside the facade, no interpolated SQL, no
store mutation outside the mutation transaction) reporting through the
:class:`~repro.analysis.report.Report` model.

Neither the translated plans nor the serving stack's threads have an
analyzer: each of their invariants is guarded by the tier-1 test that
fails on its bug (DESIGN.md §5).
"""

from repro.analysis.code_lint import CodeLinter, lint_code
from repro.analysis.report import Finding, Report, Severity, exit_code

__all__ = [
    "CodeLinter",
    "Finding",
    "Report",
    "Severity",
    "exit_code",
    "lint_code",
]
