"""Finding/Report model of :mod:`repro.analysis`.

A :class:`Finding` is one confirmed rule violation, tagged with the
analyzer that produced it, a stable rule code, and the contract the rule
enforces.  A :class:`Report` is an ordered collection of findings with
text/JSON rendering and the CLI exit-code policy (``0`` clean, ``1``
findings) in one place.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterator


class Severity(enum.Enum):
    """How bad a finding is.  Every rule left reports a proven
    violation, so there is one level; it stays in each finding's JSON
    form for the readers of the CI findings file."""

    ERROR = "error"  #: a proven rule violation; fails CI


@dataclass(frozen=True)
class Finding:
    """One observation made by an analyzer."""

    analyzer: str  #: ``code-lint``
    code: str  #: stable rule id, e.g. ``CA002``
    severity: Severity
    message: str
    #: What the finding is about: a ``file:line`` location.
    subject: str = ""
    #: The contract the violated rule enforces.
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
    def ok(self) -> bool:
        """True when no finding is an error."""
        return not self.errors

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    # -- rendering ---------------------------------------------------------------

    def render_text(self) -> str:
        """Human-readable listing by rule, plus a summary line."""
        lines = [
            finding.render()
            for finding in sorted(self.findings, key=lambda f: (f.code, f.subject))
        ]
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        """``N error(s)`` tail line."""
        return f"{len(self.errors)} error(s)"

    def to_json(self) -> str:
        """JSON document with the findings and summary counters."""
        payload = {
            "findings": [f.to_dict() for f in self.findings],
            "errors": len(self.errors),
            "total": len(self.findings),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def exit_code(report: Report) -> int:
    """CLI exit-code policy: ``1`` for errors, ``0`` otherwise.  Usage
    errors (exit ``2``) are the argument parser's business, not the
    report's."""
    return 1 if report.errors else 0
