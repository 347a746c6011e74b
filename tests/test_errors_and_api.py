"""Tests for the exception hierarchy and the public package API."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.SchemaError,
        errors.MemberNotFoundError,
        errors.DuplicateMemberError,
        errors.InvalidChangeError,
        errors.ValidityError,
        errors.RuleError,
        errors.FormulaSyntaxError,
        errors.MdxError,
        errors.MdxSyntaxError,
        errors.MdxEvaluationError,
        errors.StorageError,
        errors.QueryError,
    ]

    @pytest.mark.parametrize("cls", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, cls):
        assert issubclass(cls, errors.ReproError)

    def test_member_not_found_carries_context(self):
        error = errors.MemberNotFoundError("Time", "Januember")
        assert error.dimension == "Time"
        assert error.member == "Januember"
        assert "Januember" in str(error)
        assert issubclass(errors.MemberNotFoundError, errors.SchemaError)

    def test_formula_error_position(self):
        error = errors.FormulaSyntaxError("bad token", position=7)
        assert "position 7" in str(error)
        assert error.position == 7

    def test_mdx_syntax_error_location(self):
        error = errors.MdxSyntaxError("oops", line=3, column=14)
        assert "line 3" in str(error)
        assert (error.line, error.column) == (3, 14)

    def test_mdx_errors_are_mdx_error(self):
        assert issubclass(errors.MdxSyntaxError, errors.MdxError)
        assert issubclass(errors.MdxEvaluationError, errors.MdxError)

    def test_catching_base_class_at_api_boundary(self, example):
        from repro import Warehouse

        warehouse = Warehouse(example.schema, example.cube)
        with pytest.raises(errors.ReproError):
            warehouse.query("SELECT {{{{ FROM nowhere")


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_key_symbols(self):
        assert repro.Semantics.FORWARD.value == "forward"
        assert repro.Mode.VISUAL.value == "visual"
        assert callable(repro.apply_scenarios)
        assert repro.MISSING is not None

    def test_core_extensions_exported(self):
        from repro.core import (
            AllocationScenario,
            CompressedPerspectiveCube,
            compress,
        )

        assert callable(compress)
        assert AllocationScenario is not None
        assert CompressedPerspectiveCube is not None

    def test_storage_exports(self):
        from repro.storage import (
            ChunkedCube,
            ChunkGrid,
            ChunkStore,
            compute_group_bys,
            compute_group_bys_budgeted,
        )

        assert callable(compute_group_bys)
        assert callable(compute_group_bys_budgeted)
        assert ChunkedCube and ChunkGrid and ChunkStore

    def test_mdx_exports(self):
        from repro.mdx import execute, parse_query, tokenize

        assert callable(execute)
        assert callable(parse_query)
        assert callable(tokenize)

    def test_bench_exports(self):
        from repro.bench import run_fig11, run_fig12, run_fig13

        assert callable(run_fig11)
        assert callable(run_fig12)
        assert callable(run_fig13)
