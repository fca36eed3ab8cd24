"""One HTTP front door for the detection service and the fleet aggregator.

One handler, two route tables: each service is a thread-safe facade
plus a ``(method, path)`` table of routes, functions of the facade, the
query and the JSON body.  This module holds the rest once: the handler,
the routes both services share (:data:`COMMON_ROUTES`) and the
SIGTERM-checkpoint serve loop.  Routes look facade methods up on every
request, so wrappers installed on the facade classes after import (the
benchmark's traced ledger) see every call.

Every non-2xx answer is ``{"error", "code", "status"}`` with ``status``
the HTTP status: 400 for a :class:`ServiceError` (a bad body, field,
query value or body framing), 404 ``not_found`` for an unknown
path, 405 ``method_not_allowed`` for any other method token on a known
path, ``bad_request`` with http.server's own 4xx for a garbled request
line, version or header block, and 500 ``internal_error`` only for a bug.
"""

from __future__ import annotations

import json
import signal
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlparse

#: Largest request body the handler reads.
MAX_BODY_BYTES = 16 * 1024 * 1024

Query = dict[str, list[str]]
#: A route answers a JSON object, or ``str`` for Prometheus text.
Route = Callable[[Any, Query, dict[str, Any]], "dict[str, Any] | str"]


class ServiceError(ValueError):
    """A client error the handler maps to a structured 4xx response."""

    def __init__(self, message: str, *, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


def str_param(query: Query, name: str) -> str | None:
    """The first value of a query parameter, or ``None`` when absent."""
    values = query.get(name)
    return values[0] if values else None


def int_param(query: Query, name: str) -> int | None:
    """An integer query parameter, or ``None`` when absent."""
    value = str_param(query, name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise ServiceError(f"query parameter {name!r} must be an integer") from exc


def check_fields(body: dict[str, Any], *names: str) -> None:
    """Refuse a body carrying any field but ``names``."""
    unknown = set(body) - set(names)
    if unknown:
        raise ServiceError(f"unknown fields: {sorted(unknown)}")


def int_field(body: dict[str, Any], name: str) -> int | None:
    """An integer body field, or ``None`` when absent or null."""
    value = body.get(name)
    if value is None:
        return None
    # Strict: JSON true/1.5/"3" are not integers for this API.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"field {name!r} must be an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ServiceError(f"field {name!r} must be an integer")
    return int(value)


def _metrics(facade: Any, query: Query, body: dict[str, Any]) -> Any:
    fmt = str_param(query, "format") or "json"
    if fmt == "prometheus":
        return facade.metrics_prometheus()
    if fmt != "json":
        raise ServiceError(f"format must be 'json' or 'prometheus', got {fmt!r}")
    return facade.metrics()


def _checkpoint(facade: Any, query: Query, body: dict[str, Any]) -> Any:
    check_fields(body)  # the body must be empty JSON
    return facade.checkpoint()


COMMON_ROUTES: dict[tuple[str, str], Route] = {
    ("GET", "/healthz"): lambda facade, query, body: {"ok": True},
    ("GET", "/status"): lambda facade, query, body: facade.status(),
    ("GET", "/scoreboard"): lambda facade, query, body: facade.scoreboard(),
    ("GET", "/metrics"): _metrics,
    ("POST", "/checkpoint"): _checkpoint,
}


class _Handler(BaseHTTPRequestHandler):
    """Routes every request of one server onto its facade; JSON in, JSON
    out (Prometheus text for ``str`` answers)."""

    facade: Any  # set by make_server()
    routes: Mapping[tuple[str, str], Route]

    # Silence per-request stderr logging; the services are often run
    # under pytest or as background processes.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def __getattr__(self, name: str) -> Any:
        # http.server calls ``do_<METHOD>``: every method token lands in
        # the one dispatcher, never in http.server's 501 page.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """http.server's own framing errors, answered in the taxonomy."""
        status = HTTPStatus(code) if code < 500 else HTTPStatus.BAD_REQUEST
        # A request line too garbled to name a version still gets a
        # status line and headers.
        self.request_version = self.protocol_version
        self.close_connection = True
        self._error(status, "bad_request", message or status.phrase)

    def _send(
        self, status: int, payload: dict[str, Any] | str, *headers: tuple[str, str]
    ) -> None:
        if isinstance(payload, str):
            body, content_type = payload.encode("utf-8"), "text/plain; version=0.0.4"
        else:
            body, content_type = json.dumps(payload).encode("utf-8"), "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _error(
        self, status: int, code: str, message: str, *headers: tuple[str, str]
    ) -> None:
        payload = {"error": message, "code": code, "status": int(status)}
        self._send(status, payload, *headers)

    def _read_body(self) -> bytes:
        """The whole body, read before routing so that no answer leaves
        unread bytes behind; a body it cannot frame is refused unread."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if "Transfer-Encoding" in self.headers or not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(
                "a body needs a Content-Length header of 0.."
                f"{MAX_BODY_BYTES} and no Transfer-Encoding"
            )
        return self.rfile.read(length) if length else b""

    def _dispatch(self) -> None:
        try:
            raw = self._read_body()
            try:
                url = urlparse(self.path)
            except ValueError as exc:  # e.g. an unbalanced IPv6 host
                raise ServiceError(f"invalid request target: {exc}") from exc
            route = self.routes.get((self.command, url.path))
            if route is None:
                self._no_route(url.path)
                return
            body = _json_object(raw) if self.command == "POST" else {}
            payload = route(self.facade, parse_qs(url.query), body)
        except ServiceError as exc:
            self._error(400, exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, "internal_error", f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, payload)

    def _no_route(self, path: str) -> None:
        allowed = sorted(method for method, known in self.routes if known == path)
        if not allowed:
            self._error(404, "not_found", f"no route for {self.command} {path}")
        else:
            message = f"{self.command} not allowed on {path}"
            self._error(405, "method_not_allowed", message, ("Allow", ", ".join(allowed)))


def _json_object(raw: bytes) -> dict[str, Any]:
    if not raw:
        return {}
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


def make_server(
    facade: Any, routes: Mapping[tuple[str, str], Route], *, host: str, port: int
) -> ThreadingHTTPServer:
    """A threaded HTTP server answering ``routes`` over ``facade``."""
    handler = type("BoundHandler", (_Handler,), {"facade": facade, "routes": routes})
    return ThreadingHTTPServer((host, port), handler)


def serve(
    server: ThreadingHTTPServer,
    *,
    checkpoint: Callable[[], object] | None,
    install_signals: bool = True,
) -> None:
    """Serve until SIGTERM/SIGINT, running ``checkpoint`` (when given)
    before the server shuts down."""

    def _shutdown(signum: int, frame: Any) -> None:
        if checkpoint is not None:
            checkpoint()
        # shutdown() must come from another thread; serve_forever() is
        # blocking this one via the signal-interrupted frame.
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever()
    finally:
        server.server_close()
