"""Zero-dependency tracing core: spans, a tracer, thread-local context.

A :class:`Span` is one timed region of work (monotonic clock, method
``perf_counter``) with a name, attributes, point events, and child spans.
The process-wide :data:`TRACER` keeps a *thread-local* stack of open
spans, so nested ``with trace_span(...)`` blocks anywhere in the call
tree attach to the right parent without threading a handle through every
signature — exactly how the MDX phases (parse → analyze → scenario →
axes → cells) nest under the ``mdx.query`` root span.

Tracing is **off by default** and the disabled fast path is one module
attribute read plus a shared no-op context manager — cheap enough to
leave :func:`trace_span` calls in hot production code (the same contract
as :func:`repro.faults.inject_io_fault`).  Enable it per block with
:func:`tracing`, or globally with ``TRACER.enabled = True``; finished
*root* spans land in ``TRACER.finished`` (a bounded ring) for later
inspection, and :meth:`Tracer.take_last` pops the most recent one (the
hook :class:`~repro.obs.profile.QueryProfile` is built from).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Span",
    "TRACER",
    "Tracer",
    "trace_event",
    "trace_span",
    "tracing",
]


class Span:
    """One timed region: name, attributes, events, children.

    Spans are context managers bound to their tracer; entering pushes the
    span on the tracer's thread-local stack, exiting finishes it and
    attaches it to its parent (or to ``tracer.finished`` for roots).
    A span's clock covers its own bookkeeping — it starts before the span
    is built and stops after it is filed — so the time between sibling
    spans is the untraced code alone.
    """

    __slots__ = ("name", "attrs", "events", "children", "error", "_t0", "_t1", "_tracer")

    def __init__(self, name: str, attrs: "dict[str, Any] | None" = None, tracer: "Tracer | None" = None) -> None:
        self._t0 = time.perf_counter()
        self.name = name
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.events: list[tuple[str, dict[str, Any]]] = []
        self.children: list[Span] = []
        #: repr of the exception that escaped the span body, if any
        self.error: "str | None" = None
        self._tracer = tracer
        self._t1: "float | None" = None

    # -- lifecycle ----------------------------------------------------------------

    def finish(self) -> None:
        if self._t1 is None:
            self._t1 = time.perf_counter()

    @property
    def finished(self) -> bool:
        return self._t1 is not None

    @property
    def start(self) -> float:
        """When the span opened (``time.perf_counter`` seconds)."""
        return self._t0

    @property
    def end(self) -> "float | None":
        """When the span finished (``time.perf_counter`` seconds), or
        ``None`` while it is open."""
        return self._t1

    @property
    def duration_ms(self) -> float:
        end = self._t1 if self._t1 is not None else time.perf_counter()
        return (end - self._t0) * 1000.0

    # -- annotation ---------------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append((name, attrs))

    # -- structure ----------------------------------------------------------------

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def iter_spans(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.events:
            payload["events"] = [
                {"name": name, **attrs} for name, attrs in self.events
            ]
        if self.error is not None:
            payload["error"] = self.error
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def render(self, indent: int = 0) -> str:
        """Indented one-line-per-span rendering of the subtree."""
        lines = [f"{'  ' * indent}{self.name}  {self.duration_ms:.3f}ms"]
        for name, _attrs in self.events:
            lines.append(f"{'  ' * (indent + 1)}@ {name}")
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    # -- context-manager protocol ---------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is not None:
            self.error = repr(exc)
        if self._tracer is not None:
            self._tracer.end(self)
        else:
            self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_ms:.3f}ms" if self.finished else "open"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans with a thread-local current-span stack."""

    def __init__(self, capacity: int = 64) -> None:
        #: master switch; all trace_span sites no-op while False
        self.enabled = False
        #: finished root spans, newest last (bounded ring)
        self.finished: "deque[Span]" = deque(maxlen=capacity)
        self._local = threading.local()

    # -- stack ---------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span lifecycle -------------------------------------------------------------

    def start(self, name: str, attrs: "dict[str, Any] | None" = None) -> Span:
        """Open a span as a child of the current one and make it current."""
        span = Span(name, attrs, tracer=self)
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        """Finish ``span``, popping it (and anything leaked above it)."""
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.finish()  # leaked child: close it rather than corrupt the stack
        if stack:
            stack[-1].children.append(span)
        else:
            self.finished.append(span)
        span.finish()

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point event to the current span (no-op when disabled
        or outside any span)."""
        if not self.enabled:
            return
        current = self.current()
        if current is not None:
            current.event(name, **attrs)

    @contextmanager
    def child_scope(self, parent: "Span | None") -> "Iterator[Span | None]":
        """Adopt ``parent`` — a span opened on *another* thread — as this
        thread's current span for the duration of the block.

        The current-span stack is thread-local, so without this a service
        worker that evaluates a submitted query starts an orphan root span:
        the submitting query's trace silently loses the whole evaluation.
        A worker instead runs ``with TRACER.child_scope(job.parent_span):``
        and every span it opens attaches under the submitter's root.

        ``parent`` is *not* finished on exit — it still belongs to the
        thread that started it; only spans leaked above it on this thread's
        stack are closed.  ``parent=None`` is a no-op scope, so call sites
        need no branch for the untraced case.  Attaching children from
        several workers concurrently is safe (list append under the GIL),
        as long as the parent is finished only after its workers complete —
        exactly the :class:`~repro.service.QueryService` join contract.
        """
        if parent is None:
            yield None
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield parent
        finally:
            while stack:
                top = stack.pop()
                if top is parent:
                    break
                top.finish()  # leaked child of this scope: close it

    def take_last(self) -> "Span | None":
        """Pop and return the most recently finished root span."""
        if not self.finished:
            return None
        return self.finished.pop()

    def clear(self) -> None:
        self.finished.clear()
        self._local = threading.local()


#: The process-wide tracer used by every instrumented module.
TRACER = Tracer()


def trace_span(name: str, **attrs: Any) -> "Span | _NullSpan":
    """Open a traced region: ``with trace_span("mdx.cells", n=42) as span``.

    When tracing is disabled this returns a shared no-op context manager
    (and the ``as`` target is ``None``), so call sites stay branch-free.
    """
    if not TRACER.enabled:
        return _NULL_SPAN
    return TRACER.start(name, attrs or None)


def trace_event(name: str, **attrs: Any) -> None:
    """Record a point event on the current span; no-op when disabled."""
    if TRACER.enabled:
        TRACER.event(name, **attrs)


@contextmanager
def tracing(enabled: bool = True):
    """Temporarily flip the global tracer on (or off) for one block."""
    previous = TRACER.enabled
    TRACER.enabled = enabled
    try:
        yield TRACER
    finally:
        TRACER.enabled = previous
