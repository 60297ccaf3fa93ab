"""Finding/Report model shared by every analyzer in :mod:`repro.analysis`.

A :class:`Finding` is one confirmed observation — an invariant violation
(:attr:`Severity.ERROR`), a scan-heavy or otherwise suspicious shape
(:attr:`Severity.WARNING`), or a neutral note (:attr:`Severity.INFO`) —
tagged with the analyzer that produced it, a stable rule code, and the
paper section or lemma the rule machine-checks.  A :class:`Report` is an
ordered collection of findings with text/JSON rendering and the CLI
exit-code policy (``0`` clean, ``1`` findings) in one place.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class Severity(enum.Enum):
    """How bad a finding is."""

    ERROR = "error"  #: a proven invariant violation; fails CI
    WARNING = "warning"  #: suspicious/expensive shape; fails with ``--fail-on-warn``
    INFO = "info"  #: neutral observation; never fails

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One observation made by an analyzer."""

    analyzer: str  #: ``plan-verifier`` / ``xpath-lint`` / ``code-lint``
    code: str  #: stable rule id, e.g. ``PV002``
    severity: Severity
    message: str
    #: What the finding is about: an XPath expression, a plan label, or
    #: a ``file:line`` location.
    subject: str = ""
    #: Paper section / lemma / table the violated rule formalizes.
    citation: str = ""

    def render(self) -> str:
        """``severity code [subject]: message (citation)`` one-liner."""
        parts = [f"{self.severity.value:<7}", self.code]
        if self.subject:
            parts.append(f"[{self.subject}]")
        line = " ".join(parts) + f": {self.message}"
        if self.citation:
            line += f"  ({self.citation})"
        return line

    def to_dict(self) -> dict[str, str]:
        """JSON-serializable form."""
        return {
            "analyzer": self.analyzer,
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "subject": self.subject,
            "citation": self.citation,
        }


@dataclass
class Report:
    """An ordered collection of findings from one or more analyzers."""

    findings: list[Finding] = field(default_factory=list)

    def add(
        self,
        analyzer: str,
        code: str,
        severity: Severity,
        message: str,
        subject: str = "",
        citation: str = "",
    ) -> Finding:
        """Record and return one finding."""
        finding = Finding(analyzer, code, severity, message, subject, citation)
        self.findings.append(finding)
        return finding

    def extend(self, other: "Report") -> None:
        """Merge another report's findings into this one, dropping
        exact duplicates (same analyzer/code/severity/message/subject/
        citation) — linting the same file through two path arguments
        must not double-report.  Within one analyzer run,
        :meth:`add` stays append-only: two genuinely distinct findings
        never collide because their subjects carry ``file:line``."""
        seen = set(self.findings)
        for finding in other.findings:
            if finding not in seen:
                seen.add(finding)
                self.findings.append(finding)

    # -- selection ---------------------------------------------------------------

    @property
    def errors(self) -> list[Finding]:
        """Findings at :attr:`Severity.ERROR`."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        """Findings at :attr:`Severity.WARNING`."""
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no finding is an error."""
        return not self.errors

    def by_code(self, code: str) -> list[Finding]:
        """Findings carrying rule id ``code``."""
        return [f for f in self.findings if f.code == code]

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    # -- rendering ---------------------------------------------------------------

    def render_text(self, header: Optional[str] = None) -> str:
        """Human-readable listing, errors first, plus a summary line."""
        lines: list[str] = []
        if header:
            lines.append(header)
        for finding in sorted(
            self.findings, key=lambda f: (f.severity.rank, f.code, f.subject)
        ):
            lines.append(finding.render())
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        """``N error(s), M warning(s), K note(s)`` tail line."""
        infos = len(self.findings) - len(self.errors) - len(self.warnings)
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s), {infos} note(s)"
        )

    def to_json(self, **extra: object) -> str:
        """JSON document with the findings and summary counters."""
        payload: dict[str, object] = {
            "findings": [f.to_dict() for f in self.findings],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "total": len(self.findings),
        }
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)


def merge_reports(reports: Iterable[Report]) -> Report:
    """One report holding every finding of ``reports``, in order."""
    merged = Report()
    for report in reports:
        merged.extend(report)
    return merged


def exit_code(report: Report, fail_on_warn: bool = False) -> int:
    """CLI exit-code policy: ``1`` for errors (or, with
    ``fail_on_warn``, warnings), ``0`` otherwise.  Usage errors (exit
    ``2``) are the argument parser's business, not the report's."""
    if report.errors:
        return 1
    if fail_on_warn and report.warnings:
        return 1
    return 0
