"""HTTP front end: endpoint contracts, status mapping, quotas, shedding."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import QueryError, ServiceError, ShardError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.profile import validate_profile
from repro.obs.trace import TRACER, tracing
from repro.olap.missing import is_missing
from repro.service import (
    BreakerState,
    CircuitBreaker,
    ShardedQueryService,
    TenantQuotas,
    make_server,
)
from repro.service.http_api import MAX_BODY_BYTES

QUERY = (
    "SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
    "{[Organization].Members} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])"
)
#: one owned cell per shard: Lisa is shard 0's, Tom shard 1's, and East is
#: above any leaf
OWNED = (
    "SELECT {Time.[Jan]} ON COLUMNS, {[Lisa], [Tom]} ON ROWS "
    "FROM Warehouse WHERE ([East], [Salary])"
)
#: 12 rows x 204 columns = 2,448 cells: a response of several segments
LARGE = (
    "SELECT CrossJoin({Time.Members}, {[Location].Members}) ON COLUMNS, "
    "{[Organization].Members} ON ROWS FROM Warehouse WHERE ([Salary])"
)


@pytest.fixture(scope="module")
def service():
    with ShardedQueryService("running", n_shards=2) as svc:
        yield svc


@pytest.fixture(scope="module")
def base_url(service):
    server = make_server(
        service, port=0, quotas=TenantQuotas(limits={"blocked": 0})
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class _SpySocket:
    """An accepted connection that records what the server does to it."""

    def __init__(self, sock, sends, options):
        self._sock = sock
        self._sends = sends
        self._options = options

    def sendall(self, data):
        self._sends.append(bytes(data))
        return self._sock.sendall(data)

    def setsockopt(self, *args):
        self._options.append(args)
        return self._sock.setsockopt(*args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def spy(service):
    """A second front door over the same service whose accepted sockets
    are wrapped: yields (base_url, sendall payloads, setsockopt calls)."""
    server = make_server(service, port=0)
    sends, options = [], []
    accept = server.get_request

    def get_request():
        sock, address = accept()
        return _SpySocket(sock, sends, options), address

    server.get_request = get_request
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", sends, options
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _raw(base_url, head, body=b""):
    """Send one hand-written request; return (socket, reader) so a test
    can read several responses off the same connection."""
    host, port = base_url.removeprefix("http://").split(":")
    sock = socket.create_connection((host, int(port)), timeout=30)
    sock.sendall(head.encode("latin-1") + body)
    return sock, sock.makefile("rb")


def _read_response(reader):
    """(status, headers, body) of the next response on a raw connection."""
    status = int(reader.readline().split()[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


def _post_head(length, path="/v1/query"):
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    )


def _request(base_url, path, payload=None, headers=None):
    """Return (status, headers, parsed body) without raising on 4xx/5xx."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(base_url + path, data=data)
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status, info, raw = response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        status, info, raw = error.code, error.headers, error.read()
    content_type = info.get("Content-Type", "")
    body = json.loads(raw) if content_type.startswith("application/json") else raw
    return status, info, body


class TestQueryEndpoint:
    def test_grid_matches_local_evaluation(self, service, base_url):
        status, _, body = _request(base_url, "/v1/query", {"query": QUERY})
        assert status == 200
        local = service.warehouse.query(QUERY)
        expected = [
            [None if is_missing(v) else float(v) for v in row]
            for row in local.cells
        ]
        assert body["cells"] == expected
        assert [t["labels"] for t in body["rows"]] == [
            list(t.labels) for t in local.rows
        ]
        assert body["stats"]["sharded"] == 2

    def test_axis_tuples_carry_coordinates(self, base_url):
        _, _, body = _request(base_url, "/v1/query", {"query": QUERY})
        first = body["columns"][0]
        assert first["coordinates"] == [["Time", "Jan"]]

    def test_explain_returns_plan_text(self, base_url):
        status, _, body = _request(base_url, "/v1/explain", {"query": QUERY})
        assert status == 200
        assert body["explain"].startswith("EXPLAIN")
        assert "cube=Warehouse" in body["explain"]

    def test_bad_mdx_is_client_error(self, base_url):
        status, _, body = _request(
            base_url, "/v1/query", {"query": "SELECT nonsense FROM nowhere"}
        )
        assert status == 400
        assert body["error"].endswith("Error")

    def test_unknown_member_is_client_error(self, base_url):
        status, _, body = _request(
            base_url,
            "/v1/query",
            {"query": QUERY.replace("[Organization].Members", "{[Nobody]}")},
        )
        assert status == 400

    def test_missing_query_field_is_client_error(self, base_url):
        status, _, body = _request(base_url, "/v1/query", {"analyze": True})
        assert status == 400
        assert "query" in body["message"]

    def test_invalid_json_body_is_client_error(self, base_url):
        request = urllib.request.Request(
            base_url + "/v1/query", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_paths_are_404(self, base_url):
        for path, payload in (("/v1/nope", {"query": QUERY}), ("/nope", None)):
            status, _, body = _request(base_url, path, payload)
            assert status == 404
            assert body["error"] == "NotFound"


class TestOneSegmentPerResponse:
    """Headers and body written separately on a Nagle socket stall every
    keep-alive response on the client's delayed ACK (≈40 ms): each
    response must be exactly one ``sendall``, on a ``TCP_NODELAY``
    socket."""

    @pytest.mark.parametrize(
        "path, payload, expected",
        [
            ("/v1/query", {"query": QUERY}, 200),
            ("/v1/query", {"query": LARGE}, 200),
            ("/v1/query", {"query": "SELECT nonsense FROM nowhere"}, 400),
            ("/v1/nope", {"query": QUERY}, 404),
            ("/metrics", None, 200),
            ("/healthz", None, 200),
        ],
    )
    def test_exactly_one_sendall(self, spy, path, payload, expected):
        base_url, sends, options = spy
        status, info, _ = _request(base_url, path, payload)
        assert status == expected
        assert len(sends) == 1
        head, _, body = sends[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % expected)
        assert len(body) == int(info["Content-Length"])
        if payload is not None and payload["query"] is LARGE:
            assert sum(len(row) for row in json.loads(body)["cells"]) >= 2000
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in options

    def test_keep_alive_requests_answered_in_order(self, spy):
        base_url, sends, _ = spy
        host, port = base_url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        months = ["Jan", "Feb", "Mar", "Apr"]
        try:
            for i in range(20):
                month = months[i % len(months)]
                text = QUERY.replace(
                    "{Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]}",
                    f"{{Time.[{month}]}}",
                )
                connection.request(
                    "POST", "/v1/query", body=json.dumps({"query": text})
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                assert [c["labels"] for c in body["columns"]] == [[month]]
        finally:
            connection.close()
        assert len(sends) == 20


class TestRequestBodyHardening:
    # "\xb2" (superscript two) passes str.isdigit() yet int() refuses it
    @pytest.mark.parametrize("declared", ["abc", "-5", "+5", "1_0", "\xb2"])
    def test_bad_content_length_is_typed_400_and_closes(self, base_url, declared):
        sock, reader = _raw(base_url, _post_head(declared))
        try:
            status, headers, body = _read_response(reader)
            assert status == 400
            assert json.loads(body)["error"] == "RequestBodyError"
            assert headers["connection"] == "close"
            assert reader.read(1) == b""  # closed cleanly, no stray bytes
        finally:
            reader.close()
            sock.close()

    # 5000 digits is past the 4300 that int() itself accepts; leading zeros
    # must not hide them from the digit count
    @pytest.mark.parametrize(
        "declared", [str(MAX_BODY_BYTES + 1), "9" * 5000, "0" * 5000 + "9" * 5000]
    )
    def test_oversized_body_is_413_before_it_is_read(self, base_url, declared):
        # the body is never sent: an answer proves it was never awaited
        sock, reader = _raw(base_url, _post_head(declared))
        try:
            status, headers, body = _read_response(reader)
            assert status == 413
            assert json.loads(body)["error"] == "RequestBodyError"
            assert headers["connection"] == "close"
            assert reader.read(1) == b""
        finally:
            reader.close()
            sock.close()

    def test_body_at_the_limit_is_read(self, base_url):
        body = json.dumps({"query": QUERY}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        # leading zeros, however many, do not change the length
        sock, reader = _raw(base_url, _post_head("0" * 5000 + str(len(body))), body)
        try:
            assert _read_response(reader)[0] == 200
        finally:
            reader.close()
            sock.close()

    def test_non_utf8_body_is_400_and_connection_stays_usable(self, base_url):
        bad = b'{"query": "\xff\xfe"}'
        sock, reader = _raw(base_url, _post_head(len(bad)), bad)
        try:
            status, headers, body = _read_response(reader)
            assert status == 400
            assert json.loads(body)["error"] == "RequestBodyError"
            assert "connection" not in headers
            good = json.dumps({"query": QUERY}).encode()
            sock.sendall(_post_head(len(good)).encode("ascii") + good)
            status, _, body = _read_response(reader)
            assert status == 200
            assert json.loads(body)["partial"] is False
        finally:
            reader.close()
            sock.close()


class TestObservability:
    def test_query_runs_under_serving_spans(self, service, base_url):
        TRACER.clear()
        with tracing():
            status, _, body = _request(base_url, "/v1/query", {"query": OWNED})
        assert status == 200
        # the handler thread closes http.serialize just after the client
        # has the last byte
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and len(TRACER.finished) < 2:
            time.sleep(0.005)
        roots = {span.name: span for span in TRACER.finished}
        execute = roots["serve.execute"]
        assert [child.name for child in execute.children] == [
            "serve.classify",
            "serve.scatter",
            "serve.gather",
            "serve.merge",
        ]
        assert execute.find("serve.classify").attrs == {
            "owned_cells": 2,
            "local_cells": 0,
        }
        assert execute.find("serve.scatter").attrs["shards"] == 2
        assert roots["http.serialize"].attrs["response_bytes"] == len(
            json.dumps(body)
        )

    def test_sharded_result_carries_a_serving_profile(self, service):
        with tracing():
            result = service.execute(OWNED)
        validate_profile(result.profile.to_dict())
        assert list(result.profile.phases) == [
            "classify",
            "scatter",
            "gather",
            "merge",
        ]
        rendered = result.profile.render()
        assert "owned_cells=2 local_cells=0" in rendered
        assert "shards=2 rpcs=2" in rendered
        assert service.execute(OWNED).profile is None  # tracing off

    def test_metrics_exposition(self, base_url):
        _request(base_url, "/v1/query", {"query": QUERY})
        status, info, body = _request(base_url, "/metrics")
        assert status == 200
        assert info.get("Content-Type") == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert 'serve_http_requests_total{endpoint="/v1/query",status="200"}' in text
        assert "serve_queries_total" in text
        assert "serve_breaker_state" in text

    def test_healthz_is_200_while_shards_live(self, base_url):
        status, _, body = _request(base_url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert len(body["shards"]) == 2


class TestAdmission:
    def test_blocked_tenant_is_shed_with_429(self, base_url):
        status, _, body = _request(
            base_url,
            "/v1/query",
            {"query": QUERY},
            headers={"X-Tenant": "blocked"},
        )
        assert status == 429
        assert body["error"] == "ServiceOverloadedError"

    def test_tenant_from_body_field(self, base_url):
        status, _, _ = _request(
            base_url, "/v1/query", {"query": QUERY, "tenant": "blocked"}
        )
        assert status == 429

    def test_open_breaker_maps_to_503_under_fail_policy(
        self, service, base_url
    ):
        originals = list(service.breakers)
        try:
            for _ in range(service.breakers[0].failure_threshold):
                service.breakers[0].record_failure(ShardError("boom"))
            status, headers, body = _request(
                base_url, "/v1/query", {"query": OWNED, "degrade": "fail"}
            )
            assert status == 503
            assert body["error"] == "CircuitOpenError"
            assert int(headers["Retry-After"]) >= 1
        finally:
            for i, old in enumerate(originals):
                fresh = CircuitBreaker()
                fresh.on_state_change = old.on_state_change
                service.breakers[i] = fresh

    def test_open_breaker_serves_fallback_by_default(self, service, base_url):
        reference_status, _, reference = _request(
            base_url, "/v1/query", {"query": OWNED}
        )
        assert reference_status == 200
        originals = list(service.breakers)
        try:
            for _ in range(service.breakers[0].failure_threshold):
                service.breakers[0].record_failure(ShardError("boom"))
            status, _, body = _request(
                base_url, "/v1/query", {"query": OWNED}
            )
            assert status == 200
            assert body["partial"] is False
            assert body["cells"] == reference["cells"]
        finally:
            for i, old in enumerate(originals):
                fresh = CircuitBreaker()
                fresh.on_state_change = old.on_state_change
                service.breakers[i] = fresh

    def test_open_breaker_partial_policy_returns_bottom_cells(
        self, service, base_url
    ):
        originals = list(service.breakers)
        try:
            for _ in range(service.breakers[0].failure_threshold):
                service.breakers[0].record_failure(ShardError("boom"))
            status, _, body = _request(
                base_url,
                "/v1/query",
                {"query": OWNED, "degrade": "partial"},
            )
            assert status == 200
            assert body["partial"] is True
            assert body["degradations"]
            assert body["degradations"][0]["reason"] == "shard-down"
            assert any(
                cell is None for row in body["cells"] for cell in row
            )
        finally:
            for i, old in enumerate(originals):
                fresh = CircuitBreaker()
                fresh.on_state_change = old.on_state_change
                service.breakers[i] = fresh


    def test_malformed_envelopes_do_not_leak_quota_slots(self, service):
        """A typed 400 raised after ``quotas.acquire`` but outside the
        ``try/finally`` kept the slot: ``max_inflight`` bad bodies and the
        tenant answered 429 forever."""
        quotas = TenantQuotas(max_inflight=2)
        server = make_server(service, port=0, quotas=quotas)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = "http://%s:%d" % server.server_address[:2]
        try:
            for bad in (
                {"degrade": 5},
                {"deadline_ms": "soon"},
                {"degrade": ["fail"]},
                {"degrade": "bogus"},
                {"degrade": ""},
            ):
                status, _, body = _request(url, "/v1/query", {"query": QUERY, **bad})
                assert (status, body["error"]) == (400, "QueryError")
            assert quotas.inflight("default") == 0
            status, _, body = _request(url, "/v1/query", {"query": QUERY})
            assert status == 200 and body["partial"] is False
            assert quotas.inflight("default") == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    @pytest.mark.parametrize("analyze", ["false", [], 0, None])
    def test_a_non_bool_analyze_is_a_typed_400(self, base_url, analyze):
        """``bool(payload["analyze"])`` ran the analyzer for ``"false"``
        and skipped it for ``[]``; only ``true`` and ``false`` are read."""
        status, _, body = _request(
            base_url, "/v1/query", {"query": QUERY, "analyze": analyze}
        )
        assert (status, body["error"]) == (400, "QueryError")
        assert '"analyze"' in body["message"]
        for flag in (True, False):
            status, _, body = _request(
                base_url, "/v1/query", {"query": QUERY, "analyze": flag}
            )
            assert status == 200 and body["partial"] is False

    def test_nan_deadline_is_a_400_not_six_shard_timeouts(self, service, base_url):
        """``json.loads`` accepts NaN; ``Event.wait(nan)`` returns at once,
        so every RPC "timed out" against a healthy shard and six such
        bodies opened both breakers for every tenant."""
        metrics = service.warehouse.metrics
        series = [
            ("serve_hedge_total", {"shard": shard}) for shard in ("0", "1")
        ] + [
            ("serve_shard_retries_total", {"shard": shard, "kind": kind})
            for shard in ("0", "1")
            for kind in ("transient", "respawn")
        ]
        before = [metrics.value(name, **labels) for name, labels in series]
        for _ in range(6):
            status, _, body = _request(
                base_url, "/v1/query", {"query": OWNED, "deadline_ms": float("nan")}
            )
            assert (status, body["error"]) == (400, "QueryError")
        for refused in (True, float("inf"), "5"):
            status, _, _ = _request(
                base_url, "/v1/query", {"query": OWNED, "deadline_ms": refused}
            )
            assert status == 400
        assert [b.state for b in service.breakers] == [BreakerState.CLOSED] * 2
        assert service.health()["ready"]
        assert [metrics.value(name, **labels) for name, labels in series] == before
        status, _, body = _request(
            base_url, "/v1/query", {"query": OWNED, "deadline_ms": 5000}
        )
        assert status == 200 and body["stats"]["fallback_cells"] == 0

    def test_refused_deadline_leaves_the_connection_usable(self, base_url):
        bad = b'{"query": "SELECT 1", "deadline_ms": NaN}'
        good = json.dumps({"query": OWNED}).encode()
        sock, reader = _raw(base_url, _post_head(len(bad)), bad)
        try:
            status, headers, _ = _read_response(reader)
            assert status == 400 and "connection" not in headers
            sock.sendall(_post_head(len(good)).encode("latin-1") + good)
            assert _read_response(reader)[0] == 200
        finally:
            reader.close()
            sock.close()

    def test_execute_refuses_a_non_finite_deadline(self, service):
        for refused in (float("nan"), float("inf"), True, "5"):
            with pytest.raises(QueryError, match="finite number"):
                service.execute(OWNED, deadline_ms=refused)
        assert service.execute(OWNED, deadline_ms=5000).cells


class TestTenantQuotas:
    def test_acquire_release_roundtrip(self):
        quotas = TenantQuotas(max_inflight=2)
        assert quotas.acquire("t") and quotas.acquire("t")
        assert not quotas.acquire("t")
        assert quotas.inflight("t") == 2
        quotas.release("t")
        assert quotas.acquire("t")
        quotas.release("t")
        quotas.release("t")
        assert quotas.inflight("t") == 0

    def test_per_tenant_limits_override_default(self):
        quotas = TenantQuotas(max_inflight=4, limits={"small": 1})
        assert quotas.limit_for("small") == 1
        assert quotas.limit_for("other") == 4
        assert quotas.acquire("small")
        assert not quotas.acquire("small")

    def test_negative_default_rejected(self):
        with pytest.raises(ServiceError):
            TenantQuotas(max_inflight=-1)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def in_process():
    """The front end over a zero-shard service: (service, base URL, the
    service breaker's clock)."""
    from repro.service import QueryService
    from repro.service.shard import build_workload

    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=1, reset_after_ms=100.0, clock=clock)
    with QueryService(build_workload("running"), workers=2, breaker=breaker) as svc:
        server = make_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield svc, "http://%s:%d" % server.server_address[:2], clock
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestInProcessService:
    def test_query_is_the_warehouse_query(self, in_process):
        service, url, _ = in_process
        status, _, body = _request(url, "/v1/query", {"query": QUERY})
        assert status == 200
        local = service.warehouse.query(QUERY)
        assert body["cells"] == [
            [None if is_missing(v) else float(v) for v in row] for row in local.cells
        ]
        assert [t["labels"] for t in body["rows"]] == [list(t.labels) for t in local.rows]
        assert "sharded" not in body["stats"]

    def test_healthz_has_no_shards(self, in_process):
        _, url, _ = in_process
        status, _, body = _request(url, "/healthz")
        assert status == 200
        assert body["shards"] == [] and body["status"] == "ok"

    def test_readyz_follows_the_service_breaker(self, in_process):
        service, url, clock = in_process
        service.breaker.record_failure(ShardError("boom"))
        status, headers, body = _request(url, "/readyz")
        assert status == 503 and int(headers["Retry-After"]) >= 1
        assert body["breaker"] == "open"
        status, _, body = _request(url, "/v1/query", {"query": QUERY})
        assert (status, body["error"]) == (503, "CircuitOpenError")
        clock.now += 0.1  # backoff over: the next query is the probe
        assert _request(url, "/v1/query", {"query": QUERY})[0] == 200
        assert service.breaker.state is BreakerState.CLOSED
        assert _request(url, "/readyz")[0] == 200
