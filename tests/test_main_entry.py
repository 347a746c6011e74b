"""Smoke test for the package entry point (python -m repro)."""

from __future__ import annotations

import subprocess
import sys


def run_module(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demo_runs():
    completed = run_module()
    assert completed.returncode == 0, completed.stderr
    assert "PTE/Joe" in completed.stdout
    assert "Contractor/Joe" in completed.stdout


def test_version_flag():
    completed = run_module("--version")
    assert completed.returncode == 0
    assert completed.stdout.strip()


CLEAN_QUERY = "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse\n"
WARN_QUERY = (
    "SELECT {[NY]} ON COLUMNS FROM Warehouse WHERE ([MA], [Salary])\n"
)
ERROR_QUERY = "SELECT {[Nobody]} ON COLUMNS FROM Warehouse\n"


class TestAnalyzeCommand:
    """Exit-code contract: 0 = clean, 1 = warnings under --strict,
    2 = errors."""

    def test_clean_query_exits_zero(self, tmp_path):
        path = tmp_path / "clean.mdx"
        path.write_text(CLEAN_QUERY)
        completed = run_module("analyze", str(path))
        assert completed.returncode == 0, completed.stderr
        assert "no diagnostics" in completed.stdout

    def test_error_query_exits_two(self, tmp_path):
        path = tmp_path / "bad.mdx"
        path.write_text(ERROR_QUERY)
        completed = run_module("analyze", str(path))
        assert completed.returncode == 2
        assert "WIF002" in completed.stdout

    def test_warning_query_exit_depends_on_strict(self, tmp_path):
        path = tmp_path / "warn.mdx"
        path.write_text(WARN_QUERY)
        relaxed = run_module("analyze", str(path))
        assert relaxed.returncode == 0
        assert "WIF302" in relaxed.stdout
        strict = run_module("analyze", str(path), "--strict")
        assert strict.returncode == 1

    def test_json_output(self, tmp_path):
        import json

        path = tmp_path / "bad.mdx"
        path.write_text(ERROR_QUERY)
        completed = run_module("analyze", str(path), "--json")
        assert completed.returncode == 2
        payload = json.loads(completed.stdout)
        assert payload["errors"] >= 1
        assert payload["diagnostics"][0]["code"] == "WIF002"
        assert "line" in payload["diagnostics"][0]

    def test_stdin_input(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "-"],
            input="SELECT {oops",
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 2
        assert "WIF000" in completed.stdout

    def test_missing_file_exits_two(self, tmp_path):
        completed = run_module("analyze", str(tmp_path / "absent.mdx"))
        assert completed.returncode == 2
        assert completed.stderr.startswith("repro:")
        # One-line contract: a message, never a traceback.
        assert "Traceback" not in completed.stderr


RESULT_QUERY = (
    "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[Joe]} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])\n"
)


class TestQueryCommand:
    """Exit-code contract: 0 = complete result, 1 = partial (budget
    breached), 2 = errors — one-line stderr messages, never tracebacks."""

    def test_query_runs_and_exits_zero(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path))
        assert completed.returncode == 0, completed.stderr
        assert "FTE/Joe" in completed.stdout

    def test_csv_output(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--csv")
        assert completed.returncode == 0
        assert completed.stdout.splitlines()[0].startswith(",")

    def test_csv_stdout_is_pure(self, tmp_path):
        """No '#' counter comment lines may pollute the CSV stream —
        stdout must pipe straight into a CSV parser."""
        import csv
        import io

        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--csv")
        assert completed.returncode == 0
        assert not any(
            line.startswith("#") for line in completed.stdout.splitlines()
        )
        table = list(csv.reader(io.StringIO(completed.stdout)))
        widths = {len(row) for row in table if row}
        assert len(widths) == 1  # rectangular: header + data rows agree

    def test_stats_go_to_stderr(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--csv", "--stats")
        assert completed.returncode == 0
        assert not any(
            line.startswith("#") for line in completed.stdout.splitlines()
        )
        stats_lines = [
            line
            for line in completed.stderr.splitlines()
            if line.startswith("# ")
        ]
        assert any("cells_evaluated" in line for line in stats_lines)

    def test_profile_renders_to_stderr(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--profile")
        assert completed.returncode == 0, completed.stderr
        assert "FTE/Joe" in completed.stdout  # the grid stays on stdout
        assert "query profile" in completed.stderr
        assert "cells:" in completed.stderr

    def test_profile_json_is_schema_valid(self, tmp_path):
        import json

        from repro.obs import validate_profile

        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--profile", "--json")
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        validate_profile(payload)
        assert payload["cells_evaluated"] > 0
        assert "cells" in payload["phases"]

    def test_slow_ms_dumps_the_log(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--slow-ms", "0")
        assert completed.returncode == 0
        assert "slow-query log:" in completed.stderr
        assert "SELECT" in completed.stderr
        assert "slow-query log:" not in completed.stdout


class TestExplainCommand:
    """Exit-code contract: 0 = explained (even when the analyzer flags
    the query), 2 = errors."""

    def test_explain_exits_zero_without_executing(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("explain", str(path))
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("EXPLAIN")
        assert "estimated scope sizes" in completed.stdout
        assert "FTE/Joe" not in completed.stdout  # no grid is filled

    def test_explain_shows_the_scenario_pipeline(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(
            "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC\n" + RESULT_QUERY
        )
        completed = run_module("explain", str(path))
        assert completed.returncode == 0
        assert "Perspective[Organization:" in completed.stdout

    def test_explain_json(self, tmp_path):
        import json

        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("explain", str(path), "--json")
        assert completed.returncode == 0
        payload = json.loads(completed.stdout)
        assert payload["executable"] is True
        assert payload["scope_estimates"]["grid_cells"] > 0

    def test_unexecutable_query_still_exits_zero(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(ERROR_QUERY)
        completed = run_module("explain", str(path))
        assert completed.returncode == 0
        assert "NOT executable" in completed.stdout

    def test_syntax_error_exits_two(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text("SELECT {oops\n")
        completed = run_module("explain", str(path))
        assert completed.returncode == 2
        assert completed.stderr.startswith("repro:")
        assert "Traceback" not in completed.stderr

    def test_missing_file_exits_two(self, tmp_path):
        completed = run_module("explain", str(tmp_path / "absent.mdx"))
        assert completed.returncode == 2
        assert completed.stderr.startswith("repro:")

    def test_budget_breach_exits_one_with_partial_grid(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--max-cells", "1")
        assert completed.returncode == 1
        assert "[partial:" in completed.stdout
        assert "partial result" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_deadline_flag_on_subcommand(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("query", str(path), "--deadline-ms", "0")
        assert completed.returncode == 1
        assert "partial result" in completed.stderr

    def test_deadline_flag_top_level(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module("--deadline-ms", "0", "query", str(path))
        assert completed.returncode == 1

    def test_query_error_exits_two_one_line(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text("SELECT {[Nobody]} ON COLUMNS FROM Warehouse\n")
        completed = run_module("query", str(path), "--no-analyze")
        assert completed.returncode == 2
        assert completed.stderr.startswith("repro:")
        assert "Traceback" not in completed.stderr

    def test_missing_file_exits_two(self, tmp_path):
        completed = run_module("query", str(tmp_path / "absent.mdx"))
        assert completed.returncode == 2
        assert completed.stderr.startswith("repro:")


class TestFaultFlags:
    def test_faults_flag_injects(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module(
            "--faults", "mdx.cell:after=1", "query", str(path)
        )
        assert completed.returncode == 2
        assert "injected fault" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_bad_faults_spec_exits_two(self):
        completed = run_module("--faults", "nonsense")
        assert completed.returncode == 2
        assert "bad --faults spec" in completed.stderr

    def test_env_activation(self, tmp_path):
        import os

        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        env = dict(os.environ, REPRO_FAULTS="mdx.cell:after=1")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "query", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 2
        assert "injected fault" in completed.stderr

    def test_transient_faults_are_absorbed_by_retries(self, tmp_path):
        path = tmp_path / "q.mdx"
        path.write_text(RESULT_QUERY)
        completed = run_module(
            "--faults", "durability.write:transient=2", "query", str(path)
        )
        # The query path never touches durability.write; the spec must
        # still parse and the command succeed.
        assert completed.returncode == 0


class TestServeBatchLoop:
    """``serve`` and ``serve --shards N`` share one print-and-exit-code
    loop; only how a statement is run differs, so stub runners cover it
    in-process (no pool, no subprocess)."""

    @staticmethod
    def _serve(run, capsys, statements=("q1", "q2")):
        import argparse

        from repro.__main__ import _serve_statements

        code = _serve_statements(
            argparse.Namespace(csv=False), list(statements), lambda text: lambda: run(text)
        )
        return code, capsys.readouterr()

    @staticmethod
    def _result(degradations=()):
        from repro.mdx.result import AxisTuple, MdxResult

        column = AxisTuple((("Time", "Jan"),), ("Jan",))
        return MdxResult([column], [AxisTuple((), ())], [[1.0]], list(degradations))

    def test_complete_results_exit_zero(self, capsys):
        code, out = self._serve(lambda text: self._result(), capsys)
        assert code == 0
        assert out.out.count("-- query") == 2 and out.err == ""

    def test_a_partial_grid_exits_one(self, capsys):
        """``serve --shards N --degrade partial`` printed a grid full of ⊥
        and exited 0: the sharded loop never looked at ``is_partial``."""
        from repro.mdx.budget import Degradation

        lost = Degradation("shard-down", "shard 0: is down", 0, 1)
        code, out = self._serve(
            lambda text: self._result([lost] if text == "q2" else []), capsys
        )
        assert code == 1
        assert out.err == "repro: partial result: shard 0: is down\n"

    def test_a_query_error_exits_two_and_the_batch_goes_on(self, capsys):
        from repro.errors import MdxEvaluationError

        def run(text):
            if text == "q1":
                raise MdxEvaluationError("no such member")
            return self._result()

        code, out = self._serve(run, capsys)
        assert code == 2
        assert out.err == "repro: no such member\n"
        assert "-- query 2/2 --" in out.out and "Jan" in out.out

    def test_a_statement_shed_at_admission_exits_one(self, capsys):
        import argparse

        from repro.__main__ import _serve_statements
        from repro.errors import ServiceOverloadedError

        def submit(text):
            raise ServiceOverloadedError("admission queue is full")

        code = _serve_statements(argparse.Namespace(csv=False), ["q1"], submit)
        assert code == 1
        assert "repro: shed: admission queue is full" in capsys.readouterr().err
