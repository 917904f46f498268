"""Minimal stdlib HTTP/1.1 front for the mapping gateway.

The daemon behind ``repro-match serve``: an ``asyncio.start_server`` loop
that speaks just enough HTTP for a curl / ``urllib`` client —

* ``POST /solve`` — body is the :mod:`repro.service.wire` request JSON;
  answers the :class:`~repro.service.service.MappingResponse` wire form
  with status 200 (ok), 429 (structured quota rejection), 500 (failed
  solve), 400 (malformed request) or 413 (a ``Content-Length`` past
  :data:`MAX_BODY_BYTES`, answered without reading the body);
* ``GET /healthz`` — liveness probe;
* ``GET /stats`` — the service counters (cache, quotas, dispatches).

One request per connection (``Connection: close``): the gateway's
concurrency comes from its per-worker dispatch slots, not from connection
reuse, and the dumbest possible wire loop is the easiest one to trust.
:func:`submit_over_http` is the matching blocking client used by the
``repro-match submit`` CLI and the CI trace replay.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request
from typing import Any

from repro.exceptions import ReproError, ValidationError
from repro.service.service import MappingService
from repro.service.wire import request_from_wire

__all__ = ["start_http_server", "submit_over_http"]

#: Refuse bodies past this size with a 413 (DESIGN §14). The largest
#: well-formed body at the wire caps (n = 128, complete TIG and complete
#: platform) is 0.46 MiB compact and 1.18 MiB with ``indent=2`` for
#: full-precision floats, 1.26 MiB with the longest float reprs.
MAX_BODY_BYTES = 2 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}


def _response_bytes(status: int, payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")  # repro: noqa[run-discipline] HTTP wire encoding, not a result file; the run record is written by MappingService
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, int] | None:
    """``(method, path, content_length)`` of one request, or None on EOF or
    a bad header; the body is left unread."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None
    if content_length < 0:
        return None
    return method, path, content_length


async def _handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: MappingService,
) -> None:
    try:
        head = await _read_head(reader)
        if head is None:
            return
        method, path, length = head
        if length > MAX_BODY_BYTES:
            out = _response_bytes(413, {"error": {
                "kind": "too-large", "max_body_bytes": MAX_BODY_BYTES,
                "message": f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap",
            }})
        elif method == "GET" and path == "/healthz":
            out = _response_bytes(200, {"ok": True})
        elif method == "GET" and path == "/stats":
            out = _response_bytes(200, service.stats())
        elif method == "POST" and path == "/solve":
            body = await reader.readexactly(length) if length else b""
            out = await _handle_solve(service, body)
        else:
            out = _response_bytes(404, {"error": f"no route for {method} {path}"})
        writer.write(out)
        await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _handle_solve(service: MappingService, body: bytes) -> bytes:
    try:
        request = request_from_wire(json.loads(body.decode("utf-8")))
    except (ValidationError, ReproError, ValueError, KeyError, TypeError) as exc:
        return _response_bytes(400, {"error": {"kind": "bad-request", "message": str(exc)}})
    response = await service.submit(request)
    status = {"ok": 200, "rejected": 429}.get(response.status, 500)
    return _response_bytes(status, response.to_wire())


async def start_http_server(
    service: MappingService, host: str = "127.0.0.1", port: int = 8753
) -> asyncio.AbstractServer:
    """Bind the gateway to ``host:port``; caller owns the server lifecycle."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(r, w, service), host, port
    )


def submit_over_http(
    url: str, payload: dict[str, Any], *, timeout: float = 300.0
) -> tuple[int, dict[str, Any]]:
    """Blocking client: POST ``payload`` to ``<url>/solve``.

    Returns ``(http_status, response_payload)``; structured rejections
    (HTTP 429) and failed solves (HTTP 500) come back as payloads, not
    exceptions — only transport problems raise.
    """
    req = urllib.request.Request(
        url.rstrip("/") + "/solve",
        data=json.dumps(payload).encode("utf-8"),  # repro: noqa[run-discipline] POST body wire encoding, not result persistence
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", errors="replace")
        try:
            return exc.code, json.loads(body)
        except json.JSONDecodeError:
            return exc.code, {"error": {"kind": "http-error", "message": body}}
