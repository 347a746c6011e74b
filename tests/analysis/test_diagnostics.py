"""Unit tests for the diagnostic framework itself."""

from __future__ import annotations

import json

import pytest

from repro.analysis import CODE_CATALOG, Diagnostic, DiagnosticReport, Severity
from repro.mdx.span import SourceSpan


def test_catalog_has_at_least_eight_codes_with_defaults():
    assert len(CODE_CATALOG) >= 8
    for code, (severity, description) in CODE_CATALOG.items():
        assert code.startswith("WIF") and len(code) == 6
        assert isinstance(severity, Severity)
        assert description


def test_unknown_code_rejected():
    with pytest.raises(ValueError, match="unknown diagnostic code"):
        Diagnostic.make("WIF999", "nope")


def test_make_uses_catalog_severity_and_allows_override():
    default = Diagnostic.make("WIF002", "m")
    assert default.severity is Severity.ERROR
    demoted = Diagnostic.make("WIF303", "m", severity=Severity.WARNING)
    assert demoted.severity is Severity.WARNING


def test_text_rendering_shares_span_format():
    diag = Diagnostic.make("WIF002", "unknown member", SourceSpan(3, 14))
    assert diag.to_text() == "WIF002 error (line 3, column 14): unknown member"
    assert str(SourceSpan(3, 14)) == "line 3, column 14"


def test_exit_code_contract():
    clean = DiagnosticReport()
    assert clean.exit_code() == 0
    assert clean.exit_code(strict=True) == 0

    warned = DiagnosticReport()
    warned.add("WIF104", "dupes")
    assert warned.exit_code() == 0
    assert warned.exit_code(strict=True) == 1

    failed = DiagnosticReport()
    failed.add("WIF104", "dupes")
    failed.add("WIF002", "unknown")
    assert failed.exit_code() == 2
    assert failed.exit_code(strict=True) == 2


def test_sorted_orders_severity_then_position():
    report = DiagnosticReport()
    report.add("WIF104", "warning late", SourceSpan(9, 1))
    report.add("WIF302", "info", severity=Severity.INFO)
    report.add("WIF002", "error late", SourceSpan(5, 2))
    report.add("WIF002", "error early", SourceSpan(1, 1))
    codes = [d.message for d in report.sorted()]
    assert codes == ["error early", "error late", "warning late", "info"]


def test_json_payload():
    report = DiagnosticReport()
    report.add("WIF002", "unknown member", SourceSpan(2, 9), subject="[Nope]")
    payload = json.loads(report.to_json())
    assert payload["errors"] == 1 and payload["warnings"] == 0
    (entry,) = payload["diagnostics"]
    assert entry == {
        "code": "WIF002",
        "severity": "error",
        "message": "unknown member",
        "line": 2,
        "column": 9,
        "subject": "[Nope]",
    }


def test_report_collection_protocol():
    report = DiagnosticReport()
    assert report.is_clean and len(report) == 0
    report.add("WIF104", "one")
    other = DiagnosticReport()
    other.add("WIF002", "two")
    report.extend(other)
    assert len(report) == 2
    assert report.codes() == {"WIF104", "WIF002"}
    assert report.has_errors and report.has_warnings
    assert "WIF104" in report.to_text() and "two" in report.to_text()
