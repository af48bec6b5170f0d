"""Structured findings shared by every checker in the package.

A check never raises on a mathematical failure; it returns a report whose
findings carry a short code, a location, and a human-readable detail.  Input
errors (malformed data, mismatched fans) raise ValueError instead.  Work a
check leaves unverified, such as a sampled or size-capped run, is listed in
`skipped`; a skip is not a failure.

Each property is checked once, where data enters: entries and files a caller
passes in, and the input of an operation that needs a valid one, which raises
Rejected carrying the report.  Results derived from checked data are not
checked again; the tests assert the theorems that guarantee them.  Guards on
computed results raise AssertionError explicitly, so they run under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    code: str
    location: str
    detail: str

    def line(self) -> str:
        return f"{self.code}\t{self.location}\t{self.detail}"


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def __bool__(self) -> bool:
        return self.ok

    def add(self, code: str, location: str, detail: str) -> None:
        self.findings.append(Finding(code, location, detail))

    def skip(self, what: str) -> None:
        """Record work this check did not verify; `ok` is unchanged."""
        self.skipped.append(what)

    def extend(self, other: "Report") -> None:
        self.findings.extend(other.findings)
        self.skipped.extend(other.skipped)

    def lines(self) -> list[str]:
        return [f.line() for f in sorted(self.findings, key=lambda f: (f.code, f.location))]

    def summary(self) -> str:
        if self.ok:
            return "SUMMARY: pass"
        return f"SUMMARY: fail ({len(self.findings)} finding{'s' if len(self.findings) != 1 else ''})"

    def render(self) -> str:
        return "\n".join(self.lines() + [self.summary()])

    def require(self, what: str) -> None:
        """Raise Rejected, carrying this report, unless it passes."""
        if not self.ok:
            raise Rejected(what, self)


class Rejected(ValueError):
    """An operation's input failed its check; `report` holds the findings."""

    def __init__(self, what: str, report: Report):
        super().__init__(f"{what}: {report.lines()[0]}")
        self.report = report
