"""Finding model for reprolint: the RPL rule catalog, findings, reports.

A :class:`LintFinding` is one diagnostic — rule code, message, source
span, and the symbol (``Class.method`` or failpoint name) it concerns.
:class:`LintReport` aggregates findings for one run and implements the
CLI exit-code contract shared with ``repro analyze``:

* ``2`` — at least one error-severity finding,
* ``1`` — warnings only, under ``--strict``,
* ``0`` — clean (or warnings without ``--strict``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator

__all__ = [
    "LintFinding",
    "LintReport",
    "LintSeverity",
    "RULE_CATALOG",
]


class LintSeverity(Enum):
    WARNING = "warning"
    ERROR = "error"


#: code -> (default severity, one-line rule summary).  The authoritative
#: prose catalogue lives in ``docs/lint.md``.
RULE_CATALOG: dict[str, tuple[LintSeverity, str]] = {
    # -- RPL0xx: framework/self diagnostics ---------------------------------
    "RPL001": (LintSeverity.ERROR, "source file failed to parse"),
    "RPL002": (LintSeverity.WARNING, "stale baseline entry matches no finding"),
    # -- RPL1xx: lock-order -------------------------------------------------
    "RPL101": (LintSeverity.ERROR, "lock acquisition edge contradicts the declared hierarchy"),
    "RPL102": (LintSeverity.ERROR, "cycle in the lock-acquisition graph"),
    "RPL103": (LintSeverity.WARNING, "lock attribute is not declared in the lock hierarchy"),
    # -- RPL2xx: shared-state guards ----------------------------------------
    "RPL201": (LintSeverity.ERROR, "guarded attribute written outside its lock scope"),
    # -- RPL3xx: failpoint hygiene ------------------------------------------
    "RPL301": (LintSeverity.ERROR, "failpoint registered but never hit"),
    "RPL302": (LintSeverity.ERROR, "failpoint name registered more than once"),
    "RPL303": (LintSeverity.ERROR, "I/O boundary carries no failpoint hit"),
    # -- RPL4xx: observability hygiene --------------------------------------
    "RPL401": (LintSeverity.ERROR, "metric name violates the registry naming convention"),
    "RPL402": (LintSeverity.ERROR, "span opened without a close on all paths"),
    # -- RPL5xx: error taxonomy ---------------------------------------------
    "RPL501": (LintSeverity.ERROR, "untyped exception may escape a public entry point"),
}


@dataclass(frozen=True)
class LintFinding:
    """One reprolint diagnostic, anchored to a source span."""

    rule: str
    message: str
    severity: LintSeverity
    path: str
    line: int
    column: int
    #: the ``Class.method``, attribute, or failpoint name concerned —
    #: part of the baseline key, so findings survive line-number churn
    symbol: str

    @classmethod
    def make(
        cls,
        rule: str,
        message: str,
        *,
        path: str,
        line: int = 0,
        column: int = 0,
        symbol: str = "",
        severity: "LintSeverity | None" = None,
    ) -> "LintFinding":
        if rule not in RULE_CATALOG:
            raise KeyError(f"unknown reprolint rule {rule!r}")
        default, _summary = RULE_CATALOG[rule]
        return cls(
            rule=rule,
            message=message,
            severity=severity if severity is not None else default,
            path=path,
            line=line,
            column=column,
            symbol=symbol,
        )

    def to_text(self) -> str:
        location = f"{self.path}:{self.line}:{self.column}"
        return f"{location}: {self.severity.value} {self.rule}: {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "symbol": self.symbol,
        }


class LintReport:
    """All findings from one ``repro lint`` run."""

    def __init__(
        self,
        findings: Iterable[LintFinding] = (),
        *,
        baselined: int = 0,
        files_checked: int = 0,
    ) -> None:
        self.findings = list(findings)
        #: findings suppressed by the committed baseline this run
        self.baselined = baselined
        self.files_checked = files_checked

    def add(self, finding: LintFinding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[LintFinding]) -> None:
        self.findings.extend(findings)

    def __iter__(self) -> Iterator[LintFinding]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.findings)

    def codes(self) -> set[str]:
        return {finding.rule for finding in self.findings}

    @property
    def has_errors(self) -> bool:
        return any(f.severity is LintSeverity.ERROR for f in self.findings)

    @property
    def is_clean(self) -> bool:
        return not self.findings

    def sorted(self) -> list[LintFinding]:
        return sorted(
            self.findings,
            key=lambda f: (f.path, f.line, f.column, f.rule, f.symbol),
        )

    def exit_code(self, strict: bool = False) -> int:
        """0/1/2 contract shared with ``repro analyze``: errors always
        exit 2; warnings exit 1 only under ``--strict``."""
        if self.has_errors:
            return 2
        if strict and self.findings:
            return 1
        return 0

    def to_text(self) -> str:
        lines = [finding.to_text() for finding in self.sorted()]
        n_err = sum(1 for f in self.findings if f.severity is LintSeverity.ERROR)
        n_warn = len(self.findings) - n_err
        summary = (
            f"{self.files_checked} file(s) checked: "
            f"{n_err} error(s), {n_warn} warning(s)"
        )
        if self.baselined:
            summary += f", {self.baselined} baselined"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.sorted()],
                "baselined": self.baselined,
                "files_checked": self.files_checked,
            },
            indent=2,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LintReport({len(self.findings)} findings, {self.baselined} baselined)"
