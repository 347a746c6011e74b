"""Tests for the tracing core (repro.obs.trace)."""

from __future__ import annotations

import threading

import pytest

from repro.obs.trace import TRACER, Span, Tracer, trace_event, trace_span, tracing


class TestDisabledPath:
    def test_trace_span_returns_shared_null_span(self):
        first = trace_span("a")
        second = trace_span("b", attr=1)
        assert first is second  # the shared no-op instance

    def test_null_span_enters_as_none(self):
        with trace_span("a") as span:
            assert span is None
        assert len(TRACER.finished) == 0

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with trace_span("a"):
                raise RuntimeError("boom")

    def test_trace_event_is_noop(self):
        trace_event("nothing", detail=1)  # must not raise, nothing recorded
        assert len(TRACER.finished) == 0


class TestSpanTree:
    def test_nested_spans_attach_to_parent(self):
        with tracing():
            with trace_span("root") as root:
                with trace_span("child") as child:
                    with trace_span("grandchild"):
                        pass
                assert child.children[0].name == "grandchild"
        assert TRACER.finished[-1] is root
        assert [c.name for c in root.children] == ["child"]

    def test_attrs_events_and_set(self):
        with tracing():
            with trace_span("root", workload="running") as root:
                root.set(cells=4)
                root.event("milestone", at=1)
        assert root.attrs == {"workload": "running", "cells": 4}
        assert root.events == [("milestone", {"at": 1})]

    def test_trace_event_lands_on_current_span(self):
        with tracing():
            with trace_span("root") as root:
                with trace_span("child") as child:
                    trace_event("inner", n=1)
                trace_event("outer")
        assert child.events == [("inner", {"n": 1})]
        assert root.events == [("outer", {})]

    def test_exception_recorded_and_propagated(self):
        with tracing():
            with pytest.raises(ValueError):
                with trace_span("root") as root:
                    raise ValueError("bad")
        assert root.error == "ValueError('bad')"
        assert root.finished

    def test_find_and_iter_spans(self):
        with tracing():
            with trace_span("mdx.query") as root:
                with trace_span("mdx.parse"):
                    pass
                with trace_span("mdx.cells"):
                    with trace_span("scenario.apply"):
                        pass
        assert root.find("scenario.apply").name == "scenario.apply"
        assert root.find("no.such") is None
        names = [span.name for span in root.iter_spans()]
        assert names == ["mdx.query", "mdx.parse", "mdx.cells", "scenario.apply"]

    def test_to_dict_shape(self):
        with tracing():
            with trace_span("root", k="v") as root:
                root.event("e", n=2)
                with trace_span("child"):
                    pass
        payload = root.to_dict()
        assert payload["name"] == "root"
        assert payload["duration_ms"] >= 0
        assert payload["attrs"] == {"k": "v"}
        assert payload["events"] == [{"name": "e", "n": 2}]
        assert [c["name"] for c in payload["children"]] == ["child"]
        assert "error" not in payload

    def test_render_is_indented(self):
        with tracing():
            with trace_span("root") as root:
                with trace_span("child"):
                    pass
        lines = root.render().splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")


class TestTracer:
    def test_durations_are_monotonic(self):
        tracer = Tracer()
        span = tracer.start("work")
        first = span.duration_ms
        tracer.end(span)
        assert span.finished
        assert span.duration_ms >= first >= 0

    def test_leaked_child_is_closed_not_corrupting(self):
        tracer = Tracer()
        root = tracer.start("root")
        leak = tracer.start("leak")  # never explicitly ended
        tracer.end(root)
        assert leak.finished
        assert tracer.current() is None
        assert tracer.finished[-1] is root

    def test_finished_ring_is_bounded(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            tracer.end(tracer.start(f"s{i}"))
        assert [s.name for s in tracer.finished] == ["s2", "s3"]

    def test_take_last_pops_newest(self):
        tracer = Tracer()
        tracer.end(tracer.start("old"))
        tracer.end(tracer.start("new"))
        assert tracer.take_last().name == "new"
        assert tracer.take_last().name == "old"
        assert tracer.take_last() is None

    def test_thread_local_stacks_are_independent(self):
        tracer = Tracer()
        main_root = tracer.start("main-root")

        def worker():
            span = tracer.start("worker-root")
            tracer.end(span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        # The worker's span is a root of its own thread, not a child of
        # the span still open on the main thread.
        assert [s.name for s in tracer.finished] == ["worker-root"]
        assert main_root.children == []
        tracer.end(main_root)
        assert tracer.finished[-1] is main_root

    def test_clear_resets_ring_and_stack(self):
        tracer = Tracer()
        tracer.start("open")
        tracer.end(tracer.start("done"))
        tracer.clear()
        assert len(tracer.finished) == 0
        assert tracer.current() is None


class TestTracingContextManager:
    def test_enables_and_restores(self):
        assert TRACER.enabled is False
        with tracing():
            assert TRACER.enabled is True
            with tracing(False):
                assert TRACER.enabled is False
            assert TRACER.enabled is True
        assert TRACER.enabled is False

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert TRACER.enabled is False

    def test_standalone_span_context_manager(self):
        # A Span built without a tracer still times itself.
        with Span("free") as span:
            pass
        assert span.finished


class TestChildScope:
    """Satellite regression: worker threads adopting the submitter's span.

    The tracer's span stack is thread-local, so a query executed on a
    service worker used to start a *root* span of its own — orphaned from
    the submitting query's trace.  ``child_scope`` pushes the parent onto
    the worker's stack for the duration of the work.
    """

    def test_spans_attach_under_the_adopted_parent(self):
        import threading

        with tracing():
            root = TRACER.start("root")

            def worker() -> None:
                with TRACER.child_scope(root):
                    child = TRACER.start("child")
                    TRACER.end(child)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            TRACER.end(root)
        assert [span.name for span in root.children] == ["child"]

    def test_parent_is_not_finished_by_the_scope(self):
        with tracing():
            root = TRACER.start("root")
            with TRACER.child_scope(root):
                pass
            assert not root.finished
            TRACER.end(root)

    def test_none_parent_is_a_noop(self):
        with tracing():
            with TRACER.child_scope(None) as adopted:
                assert adopted is None
                orphan = TRACER.start("standalone")
                TRACER.end(orphan)
        assert orphan.finished

    def test_leaked_children_are_closed_on_exit(self):
        with tracing():
            root = TRACER.start("root")
            with TRACER.child_scope(root):
                leaked = TRACER.start("leaked")  # never ended by the worker
            assert leaked.finished
            TRACER.end(root)

    def test_service_worker_joins_the_submitters_trace(self, example):
        from repro.service import QueryService
        from repro.warehouse import Warehouse

        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        query = (
            "SELECT {Time.[Jan]} ON COLUMNS, {[Joe]} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        with tracing():
            with trace_span("submitter") as root:
                with QueryService(warehouse, workers=1) as service:
                    service.submit(query).result(timeout=30.0)
        assert root.find("mdx.query") is not None

    def test_submit_span_carries_the_snapshot_fork(self, example):
        """``cube.snapshot`` under ``service.submit``: whether the snapshot
        was a fork and what the writes since the previous one copied; the
        worker hands the tree to the query's profile."""
        from repro.obs.profile import validate_profile
        from repro.olap.missing import MISSING
        from repro.service import QueryService
        from repro.warehouse import Warehouse

        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        query = (
            "SELECT {Time.[Jan]} ON COLUMNS, {[FTE]} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        cube = warehouse.cube
        (first, value), (second, _) = list(cube.leaf_cells())[:2]

        def snapshot_attrs(result):
            submit = result.profile.submit
            assert submit["name"] == "service.submit"
            (snapshot,) = [c for c in submit["children"] if c["name"] == "cube.snapshot"]
            return snapshot["attrs"]

        with tracing(), QueryService(warehouse, workers=1) as service:
            result = service.submit(query).result(timeout=30.0)
            assert snapshot_attrs(result) == {
                "forked": True, "structure_copied": False, "values_copied": False
            }
            assert result.profile.spans["name"] == "mdx.query"
            cube.set_value(first, value + 1.0)  # in place: the value column copied
            result = service.submit(query).result(timeout=30.0)
            assert snapshot_attrs(result) == {
                "forked": True, "structure_copied": False, "values_copied": True
            }
            cube.set_value(second, MISSING)  # structural: the generation too
            result = service.submit(query).result(timeout=30.0)
            assert snapshot_attrs(result)["structure_copied"] is True
            # same version, cached snapshot: nothing was forked for this one
            result = service.submit(query).result(timeout=30.0)
            assert "children" not in result.profile.submit
            # no index is built under the query: the live cube owns it
            assert "rollup_index.build" not in repr(result.profile.spans)
            validate_profile(result.profile.to_dict())
            cube.set_value(first, value)
            text = service.submit(query).result(timeout=30.0).profile.render()
        assert "\n  submit " in text
        assert "cube.snapshot" in text
        assert "forked=True structure_copied=False values_copied=True" in text

