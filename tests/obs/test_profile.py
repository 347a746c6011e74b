"""Tests for per-query profiles and their schema (repro.obs.profile)."""

from __future__ import annotations

import pytest

from repro.obs.profile import PHASES, QueryProfile, validate_profile
from repro.obs.trace import Tracer


def _query_span(phase_names=("mdx.parse", "mdx.analyze", "mdx.cells")):
    tracer = Tracer()
    root = tracer.start("mdx.query")
    for name in phase_names:
        tracer.end(tracer.start(name))
    tracer.end(root)
    return root


class TestFromSpan:
    def test_phases_strip_the_mdx_prefix(self):
        profile = QueryProfile.from_span(_query_span())
        assert list(profile.phases) == ["parse", "analyze", "cells"]
        assert all(ms >= 0 for ms in profile.phases.values())
        assert profile.total_ms >= profile.phase_sum_ms

    def test_duplicate_phase_spans_are_summed(self):
        root = _query_span(("mdx.cells", "mdx.cells"))
        profile = QueryProfile.from_span(root)
        assert list(profile.phases) == ["cells"]
        expected = sum(child.duration_ms for child in root.children)
        assert profile.phases["cells"] == pytest.approx(expected)

    def test_counts_come_from_stats(self):
        profile = QueryProfile.from_span(
            _query_span(),
            stats={"cells_evaluated": 7, "cells_skipped": 2},
            degradations=[{"reason": "deadline"}],
            fault_events={"mdx.cell": 1},
        )
        assert profile.cells_evaluated == 7
        assert profile.cells_skipped == 2
        assert profile.degradations == [{"reason": "deadline"}]
        assert profile.fault_events == {"mdx.cell": 1}

    def test_cache_hit_ratio(self):
        untouched = QueryProfile.from_span(_query_span())
        assert untouched.cache_hit_ratio is None
        warm = QueryProfile.from_span(
            _query_span(),
            stats={"scenario_cache_hits": 3, "scenario_cache_misses": 1},
        )
        assert warm.cache_hit_ratio == 0.75


class TestRender:
    def test_render_lists_phases_in_pipeline_order(self):
        profile = QueryProfile.from_span(
            _query_span(("mdx.cells", "mdx.parse", "mdx.custom")),
            stats={"cells_evaluated": 4, "indexed_rollups": 2},
        )
        text = profile.render()
        lines = text.splitlines()
        assert lines[0] == "query profile"
        # taxonomy phases first (pipeline order), then extras, then total
        assert lines[1].split()[0] == "parse"
        assert lines[2].split()[0] == "cells"
        assert lines[3].split()[0] == "custom"
        assert "total" in lines[4]
        assert "cells: 4 evaluated, 0 skipped" in text
        assert "indexed rollups: 2" in text

    def test_render_surfaces_degradations_and_faults(self):
        profile = QueryProfile.from_span(
            _query_span(),
            degradations=[{"reason": "deadline", "detail": "5ms exceeded"}],
            fault_events={"chunk.read": 2},
        )
        text = profile.render()
        assert "degraded: 5ms exceeded" in text
        assert "fault fired: chunk.read x2" in text


class TestSchema:
    def _payload(self):
        return QueryProfile.from_span(
            _query_span(),
            stats={"cells_evaluated": 1},
            degradations=[{"reason": "cell-cap"}],
        ).to_dict()

    def test_valid_profile_passes(self):
        validate_profile(self._payload())  # must not raise

    def test_every_pipeline_phase_is_schema_valid(self):
        payload = QueryProfile.from_span(
            _query_span(tuple(f"mdx.{p}" for p in PHASES))
        ).to_dict()
        validate_profile(payload)
        assert list(payload["phases"]) == list(PHASES)

    def test_missing_required_key_rejected(self):
        payload = self._payload()
        del payload["phases"]
        with pytest.raises(ValueError, match="missing required key 'phases'"):
            validate_profile(payload)

    def test_wrong_type_rejected(self):
        payload = self._payload()
        payload["phases"]["cells"] = "fast"
        with pytest.raises(ValueError, match="expected number"):
            validate_profile(payload)

    def test_negative_count_rejected(self):
        payload = self._payload()
        payload["cells_skipped"] = -1
        with pytest.raises(ValueError, match="minimum"):
            validate_profile(payload)

    def test_boolean_is_not_an_integer(self):
        payload = self._payload()
        payload["cells_evaluated"] = True
        with pytest.raises(ValueError, match="booleans"):
            validate_profile(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="expected object"):
            validate_profile([1, 2, 3])
