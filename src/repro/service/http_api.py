"""HTTP front end for the query service (``repro serve --http``).

A stdlib-only REST surface over any :class:`~repro.service.QueryService`
— in process (no shard) or over a shard pool —
:class:`http.server.ThreadingHTTPServer`, one thread per connection, no
third-party dependencies; each request runs ``QueryService.execute`` on
its connection's thread:

* ``POST /v1/query``   — ``{"query": "...", "analyze": true, "degrade":
  "fallback", "deadline_ms": 5000}`` → the grid as JSON (axis tuples,
  cells with ``null`` for ⊥, stats); a degraded answer carries
  ``"partial": true`` plus structured ``degradations`` records;
* ``POST /v1/explain`` — the evaluation plan as text;
* ``GET  /metrics``    — Prometheus text exposition of the served
  warehouse's registry (``service_*``, ``serve_*``, ``mdx_*``, cache and
  breaker series);
* ``GET  /healthz``    — **liveness**: 200 while the service can answer
  at all (even degraded, with supervisor respawns in flight); 503 only
  once the service is closed.  The body carries the service breaker and
  per-shard supervision state and restart counts (``"shards": []`` in
  process).
* ``GET  /readyz``     — **readiness**: 200 only when the service
  breaker is not open and every shard is live with its breaker closed;
  503 with a ``Retry-After`` hint otherwise.

Typed engine errors map onto status codes the way a gateway expects:
parse/analysis/evaluation errors are the client's fault (400), admission
rejections are backpressure (429 for tenant quota and overload, 503 with
``Retry-After`` for an open circuit breaker or a down shard under the
``fail`` degrade policy), everything infrastructural is a 500 with the
error type in the body.  Per-tenant admission quotas
(:class:`TenantQuotas`) bound concurrent in-flight queries per
``X-Tenant`` header before any engine work happens.

**One segment per response.**  Status line, headers and body leave in a
single ``sendall`` on a ``TCP_NODELAY`` socket.  Written as two sends
with Nagle on, the body waits in the kernel for the client's delayed ACK
of the header segment — a fixed ≈40 ms stall on every keep-alive
response that no engine speed-up can touch.

**Request bodies are untrusted.**  A ``Content-Length`` that is not a
non-negative integer is a 400 and one above :data:`MAX_BODY_BYTES` a 413;
both are answered *without* reading the body, so the reply carries
``Connection: close`` (the unread bytes would otherwise be parsed as the
next request).  A body that is not UTF-8 JSON is a 400 on a connection
that stays usable.
"""

from __future__ import annotations

import json
import math
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from repro.errors import (
    AnalysisError,
    CircuitOpenError,
    MdxError,
    QueryError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ShardDownError,
)
from repro.lint.lockdep import make_lock
from repro.mdx.budget import check_deadline_ms
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import trace_span
from repro.olap.missing import is_missing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import QueryService

__all__ = ["TenantQuotas", "make_server", "serve_http"]

DEFAULT_TENANT = "default"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"
#: largest request body read off the socket; anything longer is a 413
MAX_BODY_BYTES = 1 << 20


class RequestBodyError(QueryError):
    """The request body was refused before any engine work.

    ``status`` is the HTTP answer (400 malformed, 413 too large);
    ``close`` is set when the body was left unread on the socket, so the
    connection cannot carry another request.
    """

    def __init__(self, status: int, message: str, *, close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


class TenantQuotas:
    """Per-tenant admission quotas: at most ``max_inflight`` concurrent
    queries per tenant (overrides per tenant via ``limits``).

    Admission happens before any engine work; a rejected request costs
    one dict probe.  A limit of zero blocks the tenant outright.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        limits: "dict[str, int] | None" = None,
    ) -> None:
        if max_inflight < 0:
            raise ServiceError("max_inflight must be >= 0")
        self.max_inflight = max_inflight
        self.limits = dict(limits or {})
        self._lock = make_lock("TenantQuotas._lock", reentrant=False)
        self._inflight: dict[str, int] = {}

    def limit_for(self, tenant: str) -> int:
        return self.limits.get(tenant, self.max_inflight)

    def acquire(self, tenant: str) -> bool:
        """Reserve one in-flight slot; False = over quota (caller sheds)."""
        limit = self.limit_for(tenant)
        with self._lock:
            current = self._inflight.get(tenant, 0)
            if current >= limit:
                return False
            self._inflight[tenant] = current + 1
            return True

    def release(self, tenant: str) -> None:
        with self._lock:
            current = self._inflight.get(tenant, 0)
            if current <= 1:
                self._inflight.pop(tenant, None)
            else:
                self._inflight[tenant] = current - 1

    def inflight(self, tenant: str) -> int:
        with self._lock:
            return self._inflight.get(tenant, 0)


def _json_cells(cells: "list[list[Any]]") -> "list[list[float | None]]":
    return [
        [None if is_missing(value) else float(value) for value in row]
        for row in cells
    ]


def _json_axis(tuples: "list[Any]") -> "list[dict[str, Any]]":
    return [
        {
            "coordinates": [list(pair) for pair in t.coordinates],
            "labels": list(t.labels),
        }
        for t in tuples
    ]


def _status_for(error: BaseException) -> int:
    if isinstance(error, RequestBodyError):
        return error.status
    if isinstance(error, ServiceOverloadedError):
        return 429
    if isinstance(error, (CircuitOpenError, ShardDownError)):
        return 503
    if isinstance(error, (MdxError, AnalysisError, QueryError)):
        return 400
    return 500


def _retry_after_s(error: BaseException, server: "ReproHTTPServer") -> "float | None":
    """The ``Retry-After`` hint for a 503: the shard's own respawn
    estimate when the error carries one, else the service's."""
    if isinstance(error, ShardDownError):
        return error.retry_after_s
    if isinstance(error, CircuitOpenError):
        return server.service.retry_after_s()
    return None


class _Handler(BaseHTTPRequestHandler):
    """One request; the server instance carries the shared state."""

    server: "ReproHTTPServer"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection (StreamRequestHandler.setup)
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover - manual serving only
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        retry_after_s: "float | None" = None,
        close: bool = False,
    ) -> None:
        """Status line, headers and body as one ``sendall`` (``wfile`` is
        unbuffered: one ``write`` is one ``sendall``)."""
        self.log_request(status)
        head = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if retry_after_s is not None:
            # Retry-After is integer seconds; round up so "0.3s" does
            # not tell the client to hammer immediately.
            head.append(f"Retry-After: {max(1, math.ceil(retry_after_s))}")
        if close:
            head.append("Connection: close")
            self.close_connection = True
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)

    def _send_json(
        self,
        status: int,
        payload: "dict[str, Any]",
        retry_after_s: "float | None" = None,
        close: bool = False,
    ) -> None:
        self._send(
            status,
            json.dumps(payload).encode("utf-8"),
            JSON_CONTENT_TYPE,
            retry_after_s=retry_after_s,
            close=close,
        )

    def _send_error_json(self, error: BaseException) -> None:
        status = _status_for(error)
        self.server.metrics.counter(
            "serve_http_requests_total",
            endpoint=self.path.split("?")[0],
            status=str(status),
        ).inc()
        retry_after = (
            _retry_after_s(error, self.server) if status == 503 else None
        )
        payload: "dict[str, Any]" = {
            "error": type(error).__name__,
            "message": str(error),
        }
        if retry_after is not None:
            payload["retry_after_s"] = retry_after
        self._send_json(
            status,
            payload,
            retry_after_s=retry_after,
            close=isinstance(error, RequestBodyError) and error.close,
        )

    def _count(self, endpoint: str, status: int) -> None:
        self.server.metrics.counter(
            "serve_http_requests_total", endpoint=endpoint, status=str(status)
        ).inc()

    def _read_body(self) -> "dict[str, Any]":
        declared = (self.headers.get("Content-Length") or "0").strip()
        # str.isdigit, not int(): "-5", "+5", "1_0" and "abc" are all refused
        if not (declared.isascii() and declared.isdigit()):
            raise RequestBodyError(
                400,
                "Content-Length must be a non-negative integer, "
                f"not {declared[:32]!r}",
                close=True,
            )
        # Compare digit counts first: int() itself refuses a string of more
        # than 4300 digits, and a header line may carry 64 KiB of them.
        digits = declared.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise RequestBodyError(
                413,
                f"declared request body exceeds the {MAX_BODY_BYTES}-byte limit",
                close=True,
            )
        length = int(digits)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise QueryError("request body must be a JSON object")
        try:
            payload = json.loads(raw)
        except UnicodeDecodeError:
            raise RequestBodyError(400, "request body is not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            raise QueryError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise QueryError("request body must be a JSON object")
        return payload

    def _tenant(self, payload: "dict[str, Any] | None" = None) -> str:
        header = self.headers.get("X-Tenant")
        if header:
            return header
        if payload is not None and isinstance(payload.get("tenant"), str):
            return payload["tenant"]
        return DEFAULT_TENANT

    # -- endpoints ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?")[0]
        if path == "/metrics":
            body = self.server.metrics.to_prometheus().encode("utf-8")
            self._count(path, 200)
            self._send(200, body, PROMETHEUS_CONTENT_TYPE)
            return
        if path == "/healthz":
            # Liveness: the service answers (degraded included); only a
            # closed service is dead.
            health = self.server.service.health()
            status = 200 if health["live"] else 503
            self._count(path, status)
            self._send_json(status, health)
            return
        if path == "/readyz":
            # Readiness: the service breaker not open, every shard live
            # with its breaker closed.
            health = self.server.service.health()
            status = 200 if health["ready"] else 503
            self._count(path, status)
            self._send_json(
                status,
                health,
                retry_after_s=(
                    health["retry_after_s"] if status == 503 else None
                ),
            )
            return
        self._count(path, 404)
        self._send_json(404, {"error": "NotFound", "message": path})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?")[0]
        if path not in ("/v1/query", "/v1/explain"):
            self._count(path, 404)
            self._send_json(404, {"error": "NotFound", "message": path})
            return
        try:
            payload = self._read_body()
            text = payload.get("query")
            if not isinstance(text, str) or not text.strip():
                raise QueryError('request needs a non-empty "query" string')
            # The whole envelope is checked before a quota slot is taken:
            # nothing between acquire and the try/finally may raise.
            degrade = payload.get("degrade")
            policies = self.server.service.DEGRADE_POLICIES
            if degrade is not None and degrade not in policies:
                raise QueryError(
                    f'"degrade" must be one of {", ".join(policies)}; got {degrade!r}'
                )
            analyze = payload.get("analyze", True)
            if not isinstance(analyze, bool):
                raise QueryError('"analyze" must be true or false')
            deadline_ms = check_deadline_ms(payload.get("deadline_ms"))
            tenant = self._tenant(payload)
            if not self.server.quotas.acquire(tenant):
                self.server.metrics.counter(
                    "serve_quota_rejections_total", tenant=tenant
                ).inc()
                raise ServiceOverloadedError(
                    f"tenant {tenant!r} is over its in-flight quota "
                    f"({self.server.quotas.limit_for(tenant)})",
                    reason="tenant-quota",
                )
            try:
                if path == "/v1/explain":
                    plan = self.server.service.explain(text)
                    self._count(path, 200)
                    self._send_json(200, {"explain": plan})
                    return
                result = self.server.service.execute(
                    text,
                    analyze=analyze,
                    degrade=degrade,
                    deadline_ms=deadline_ms,
                )
            finally:
                self.server.quotas.release(tenant)
        except ReproError as exc:
            self._send_error_json(exc)
            return
        self._count(path, 200)
        with trace_span("http.serialize") as span:
            envelope: "dict[str, Any]" = {
                "columns": _json_axis(result.columns),
                "rows": _json_axis(result.rows),
                "cells": _json_cells(result.cells),
                "partial": result.is_partial,
                "stats": dict(result.stats),
            }
            if result.degradations:
                envelope["degradations"] = [
                    d.to_dict() for d in result.degradations
                ]
            body = json.dumps(envelope).encode("utf-8")
            if span is not None:
                span.set(response_bytes=len(body))
            self._send(200, body, JSON_CONTENT_TYPE)


class ReproHTTPServer(ThreadingHTTPServer):
    """The serving socket: threads per connection over one service."""

    daemon_threads = True

    def __init__(
        self,
        address: "tuple[str, int]",
        service: "QueryService",
        quotas: "TenantQuotas | None" = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.quotas = quotas or TenantQuotas()
        self.metrics = service.warehouse.metrics
        self.verbose = verbose


def make_server(
    service: "QueryService",
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quotas: "TenantQuotas | None" = None,
    verbose: bool = False,
) -> ReproHTTPServer:
    """Bind (but do not run) the HTTP server; ``port=0`` picks a free
    port — read it back from ``server.server_address``."""
    return ReproHTTPServer((host, port), service, quotas, verbose)


def serve_http(
    service: "QueryService",
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    quotas: "TenantQuotas | None" = None,
    verbose: bool = False,
    ready: "threading.Event | None" = None,
) -> None:
    """Run the HTTP front end until interrupted (the CLI entry path)."""
    server = make_server(
        service, host, port, quotas=quotas, verbose=verbose
    )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
