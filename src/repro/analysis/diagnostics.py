"""Diagnostic framework for the static analyzer.

Every finding is a :class:`Diagnostic`: a stable ``WIFnnn`` code, a
:class:`Severity`, a message, and (when the construct came from parsed MDX)
a :class:`~repro.mdx.span.SourceSpan`.  A :class:`DiagnosticReport` is an
ordered collection with the exit-code/enforcement queries the evaluator and
the CLI need.

Code ranges
-----------
* ``WIF0xx`` — name resolution and query shape,
* ``WIF1xx`` — perspective (negative scenario) preconditions,
* ``WIF2xx`` — change-relation (positive scenario) preconditions,
* ``WIF3xx`` — cell-level findings (guaranteed-⊥ accesses, shadowing).

``WIF401``–``WIF407`` and ``WIF501``–``WIF502`` belonged to the removed
plan analyzer; they are retired and never reused.

``CODE_CATALOG`` is the single source of truth; ``docs/static_analysis.md``
documents each entry with a minimal triggering example.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.mdx.span import SourceSpan

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticReport",
    "CODE_CATALOG",
]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are guaranteed failures or ⊥-polluted results and
    block execution (unless the escape hatch is used); ``WARNING`` findings
    are suspicious but runnable; ``INFO`` findings are purely advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: code -> (default severity, one-line description)
CODE_CATALOG: dict[str, tuple[Severity, str]] = {
    # -- WIF0xx: name resolution / query shape --------------------------------
    "WIF000": (Severity.ERROR, "query text could not be tokenized or parsed"),
    "WIF001": (Severity.ERROR, "FROM references a cube this warehouse does not answer to"),
    "WIF002": (Severity.ERROR, "unresolvable member or dimension reference"),
    "WIF003": (Severity.ERROR, "member reference is ambiguous across dimensions"),
    "WIF004": (Severity.ERROR, "two axis specifications bind the same axis"),
    "WIF005": (Severity.ERROR, "axis line-up is unsupported (no COLUMNS, or more than two axes)"),
    "WIF006": (Severity.ERROR, "named set is defined in terms of itself"),
    "WIF007": (Severity.ERROR, "unknown Descendants flag"),
    # -- WIF1xx: perspective preconditions ------------------------------------
    "WIF101": (Severity.ERROR, "perspective dimension is not a varying dimension"),
    "WIF102": (Severity.ERROR, "perspective point is not a leaf (moment) of the parameter dimension"),
    "WIF103": (Severity.ERROR, "dynamic semantics over an unordered parameter dimension"),
    "WIF104": (Severity.WARNING, "duplicate perspective points"),
    "WIF105": (Severity.ERROR, "visual and non-visual modes mixed within one scenario"),
    # -- WIF2xx: change-relation preconditions --------------------------------
    "WIF201": (Severity.ERROR, "change tuple references an unknown member, parent, or moment"),
    "WIF202": (Severity.ERROR, "relocate between unrelated instances (member not under old parent at the moment)"),
    "WIF203": (Severity.ERROR, "change tuple reparents under a leaf member"),
    "WIF204": (Severity.ERROR, "change relation is inconsistent (conflicting tuples for one member and moment)"),
    "WIF205": (Severity.ERROR, "change relation is cyclic (member reparented under itself or a descendant)"),
    "WIF206": (Severity.ERROR, "change tuple member does not belong to the clause's dimension"),
    # -- WIF3xx: cell-level findings ------------------------------------------
    "WIF301": (Severity.WARNING, "guaranteed-⊥ access: referenced instance has no validity under the scenario"),
    "WIF302": (Severity.WARNING, "slicer coordinate is shadowed by an axis on the same dimension"),
    "WIF303": (Severity.ERROR, "tuple component does not expand to exactly one member instance"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    message: str
    severity: Severity
    span: SourceSpan | None = None
    #: optional machine-readable anchor (member path, set name, ...)
    subject: str | None = None

    def __post_init__(self) -> None:
        if self.code not in CODE_CATALOG:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @classmethod
    def make(
        cls,
        code: str,
        message: str,
        span: SourceSpan | None = None,
        subject: str | None = None,
        severity: Severity | None = None,
    ) -> "Diagnostic":
        """Build a diagnostic with the catalogue's default severity (or an
        explicit override, used when a finding is only *probably* fatal)."""
        if code not in CODE_CATALOG:
            raise ValueError(f"unknown diagnostic code {code!r}")
        if severity is None:
            severity, _ = CODE_CATALOG[code]
        return cls(code, message, severity, span, subject)

    def to_text(self) -> str:
        """Render in the shared span format: ``WIF002 error (line 2, column 9): ...``."""
        where = f" ({self.span})" if self.span is not None else ""
        return f"{self.code} {self.severity}{where}: {self.message}"

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.span is not None:
            payload["line"] = self.span.line
            payload["column"] = self.span.column
        if self.subject is not None:
            payload["subject"] = self.subject
        return payload


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics plus the enforcement queries."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        message: str,
        span: SourceSpan | None = None,
        subject: str | None = None,
        severity: Severity | None = None,
    ) -> Diagnostic:
        diagnostic = Diagnostic.make(code, message, span, subject, severity)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "DiagnosticReport | Iterable[Diagnostic]") -> None:
        if isinstance(other, DiagnosticReport):
            self.diagnostics.extend(other.diagnostics)
        else:
            self.diagnostics.extend(other)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def has_warnings(self) -> bool:
        return bool(self.warnings)

    @property
    def is_clean(self) -> bool:
        return not self.diagnostics

    def sorted(self) -> "DiagnosticReport":
        """A copy ordered severity-first, then source position."""
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (
                _SEVERITY_ORDER[d.severity],
                d.span.line if d.span else 0,
                d.span.column if d.span else 0,
                d.code,
            ),
        )
        return DiagnosticReport(ordered)

    def exit_code(self, strict: bool = False) -> int:
        """The CLI exit-code contract: 2 = errors, 1 = warnings under
        ``--strict``, 0 = clean (or warnings without ``--strict``)."""
        if self.has_errors:
            return 2
        if strict and self.has_warnings:
            return 1
        return 0

    def to_text(self) -> str:
        if self.is_clean:
            return "no diagnostics"
        return "\n".join(d.to_text() for d in self.diagnostics)

    def to_json(self, **kwargs: object) -> str:
        payload = {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.by_severity(Severity.INFO)),
        }
        return json.dumps(payload, ensure_ascii=False, **kwargs)  # type: ignore[arg-type]
