"""Asyncio HTTP/WebSocket gateway: a fleet serving real traffic.

The front door of the serve plane.  A :class:`FleetGateway` binds any
:class:`~repro.serve.api.Fleet` — in-process engine or multiprocess
fleet alike — behind a small HTTP/1.1 + WebSocket API, hand-rolled on
:mod:`asyncio` streams (the repository has a no-dependencies rule).
All fleet calls run on the event-loop thread, so the gateway serializes
access to the fleet without any locking; the fleet's own batch paths
stay the throughput story, the gateway is the *operability* story —
spawn, deliver, snapshot and scrape over the wire.

Endpoints::

    GET  /healthz            liveness + instance count
    POST /spawn              {"key": k} | {"count": n, "prefix"?: p}
    POST /deliver            {"key": k, "message": m}
                             | {"events": [[k, m], ...]}  (one batch run)
    POST /post               queue one event (mailbox path)
    POST /drain              flush queued traffic
    GET  /state?key=k        current state name + finished flag
    GET  /trace?key=k        state + full action log
    GET  /snapshot           portable fleet snapshot (JSON)
    POST /restore            snapshot JSON -> rebuilt population
    GET  /metrics            Prometheus text: fleet + gateway instruments
    POST /shutdown           stop serving (requires allow_remote_shutdown)
    GET  /ws                 WebSocket: {"op": "deliver"|"post"|"state"|
                             "len", ...} JSON frames

Unknown instances/messages surface as HTTP 400 with the fleet's
canonical :class:`~repro.core.errors.DeploymentError` message — the
error-shape guarantee of the Fleet protocol extends over the wire.

The gateway degrades rather than wedges.  A connection that stalls
mid-request (or idles past the keep-alive window) is answered with
``408`` and closed after ``read_timeout`` seconds; a request whose
``Content-Length`` exceeds ``max_body`` is refused with ``413`` before
the body is read — a slow or hostile client can never hold a reader
coroutine forever.  A request head that cannot be parsed safely is
refused and the connection closed: a ``Content-Length`` that is not a
non-negative integer gets ``400``, a request line or header block larger
than the 64 KiB stream limit gets ``431``.  Requests that land on a
supervised fleet's recovering partition return ``503`` with a
``Retry-After`` header (from
:class:`~repro.serve.recovery.FleetRecoveringError`) instead of an
error: the partition is healing, not gone, and ``/healthz`` reports the
per-worker ``live``/``recovering``/``dead`` states while it does.

Gateway-side instruments (``gateway_requests_total``,
``gateway_errors_total``, ``gateway_request_seconds``,
``gateway_ws_messages_total``) live in their own
:class:`~repro.obs.metrics.MetricsRegistry` and are merged with the
fleet's registry on every ``/metrics`` scrape.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
from math import ceil
from time import perf_counter
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import DeploymentError
from repro.obs.expo import fleet_registry, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.serve.fleet import FleetSnapshot
from repro.serve.recovery import FleetRecoveringError
from repro.serve.store import InstanceSnapshot

__all__ = ["FleetGateway", "snapshot_from_json", "snapshot_to_json"]

_WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Stream buffer limit (asyncio's default): a request line or header
#: block that does not fit is refused with ``431``.
_HEAD_LIMIT = 1 << 16

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def snapshot_to_json(snapshot: FleetSnapshot) -> dict:
    """A fleet snapshot as a JSON-safe dict (the wire form).

    Partial snapshots carry their ``lost`` manifest so the wire form
    stays honest about missing partitions; whole snapshots omit the
    field, keeping the wire form of PR 8 byte-identical.
    """
    wire = {
        "machine": snapshot.machine_name,
        "instances": [
            {"key": inst.key, "state": inst.state, "actions": list(inst.actions)}
            for inst in snapshot.instances
        ],
    }
    if snapshot.lost:
        wire["lost"] = list(snapshot.lost)
    return wire


def snapshot_from_json(payload: dict) -> FleetSnapshot:
    """Rebuild a :class:`FleetSnapshot` from its wire form."""
    try:
        return FleetSnapshot(
            machine_name=payload["machine"],
            instances=tuple(
                InstanceSnapshot(
                    inst["key"], inst["state"], tuple(inst["actions"])
                )
                for inst in payload["instances"]
            ),
            lost=tuple(payload.get("lost", ())),
        )
    except (KeyError, TypeError) as exc:
        raise DeploymentError(f"malformed snapshot payload: {exc}") from exc


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class FleetGateway:
    """Serve one fleet over HTTP and WebSocket."""

    def __init__(
        self,
        fleet,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        allow_remote_shutdown: bool = False,
        read_timeout: float = 30.0,
        max_body: int = 1 << 20,
    ):
        self._fleet = fleet
        self.host = host
        self.port = port  # rebound to the actual port after start()
        self._allow_remote_shutdown = allow_remote_shutdown
        self._read_timeout = read_timeout
        self._max_body = max_body
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "gateway_requests_total", "HTTP requests handled"
        )
        self._errors = self.registry.counter(
            "gateway_errors_total", "HTTP requests answered with an error status"
        )
        self._latency = self.registry.histogram(
            "gateway_request_seconds", "request receipt to response written"
        )
        self._ws_messages = self.registry.counter(
            "gateway_ws_messages_total", "WebSocket messages handled"
        )

    @property
    def fleet(self):
        return self._fleet

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` becomes the bound port."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_HEAD_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and close the server (idempotent)."""
        if self._shutdown is not None:
            self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_shutdown(self) -> None:
        """Start, then serve until ``/shutdown`` or :meth:`stop`."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    def run_blocking(self, announce=None, port_file: Optional[str] = None) -> None:
        """Synchronous entry point for the CLI: serve until shutdown.

        ``announce`` is called with the listening URL once bound;
        ``port_file`` (when given) receives the bound port as text — the
        robust way for a parent process to learn a ``--port 0`` binding.
        """

        async def _main() -> None:
            await self.start()
            if announce is not None:
                announce(f"http://{self.host}:{self.port}")
            if port_file is not None:
                with open(port_file, "w", encoding="utf-8") as handle:
                    handle.write(str(self.port))
            await self.serve_until_shutdown()

        asyncio.run(_main())

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    async with asyncio.timeout(self._read_timeout):
                        request = await self._read_request(reader)
                except TimeoutError:
                    # Stalled mid-request (or idle past the keep-alive
                    # window): answer 408 and reclaim the coroutine.
                    self._requests.add(1)
                    self._errors.add(1)
                    writer.write(
                        self._response(
                            408,
                            b'{"error": "request read timed out"}\n',
                            "application/json",
                            True,
                        )
                    )
                    await writer.drain()
                    break
                except _HttpError as exc:
                    # Unusable head (oversized or unframeable body, head
                    # past the stream limit): the request boundary is
                    # lost, so the connection cannot be resynchronized —
                    # answer, then close it.
                    self._requests.add(1)
                    self._errors.add(1)
                    status, payload, content_type = self._json(
                        exc.status, {"error": exc.message}
                    )
                    writer.write(
                        self._response(status, payload, content_type, True)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                if (
                    target.split("?", 1)[0] == "/ws"
                    and headers.get("upgrade", "").lower() == "websocket"
                ):
                    await self._websocket(headers, reader, writer)
                    break
                started = perf_counter()
                status, payload, content_type, extra = self._route(
                    method, target, body
                )
                self._requests.add(1)
                if status >= 400:
                    self._errors.add(1)
                close = headers.get("connection", "").lower() == "close"
                writer.write(
                    self._response(status, payload, content_type, close, extra)
                )
                await writer.drain()
                self._latency.observe(perf_counter() - started)
                if close:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader):
        try:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                return None
            parts = line.decode("latin-1").split()
            if len(parts) < 2:
                return None
            # The whole header block in one read: it ends at a blank line
            # in the request line's own style (CRLF, or bare LF).  Its
            # first byte is read alone so that a request without headers
            # (the blank line right after the request line) ends at once.
            eol = b"\r\n" if line.endswith(b"\r\n") else b"\n"
            first = await reader.readexactly(1)
            if first == b"\r":
                await reader.readexactly(1)
                block = b""
            elif first == b"\n":
                block = b""
            else:
                block = first + await reader.readuntil(eol + eol)
        except (asyncio.LimitOverrunError, ValueError):
            raise _HttpError(
                431, f"request head exceeds the {_HEAD_LIMIT}-byte limit"
            ) from None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for header in block.decode("latin-1").split("\n"):
            name, _, value = header.partition(":")
            name = name.strip()
            if name:
                headers[name.lower()] = value.strip()
        raw_length = headers.get("content-length")
        if not raw_length:
            length = 0
        elif raw_length.isascii() and raw_length.isdigit():
            length = int(raw_length)
        else:
            raise _HttpError(400, f"invalid Content-Length {raw_length!r}")
        if length > self._max_body:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self._max_body}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _response(
        status: int,
        payload: bytes,
        content_type: str,
        close: bool,
        extra_headers: tuple = (),
    ) -> bytes:
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in extra_headers
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"{extra}"
            "\r\n"
        )
        return head.encode("latin-1") + payload

    @staticmethod
    def _json(status: int, obj) -> tuple[int, bytes, str]:
        return (
            status,
            (json.dumps(obj) + "\n").encode("utf-8"),
            "application/json",
        )

    def _route(self, method: str, target: str, body: bytes):
        """Dispatch one request; returns ``(status, payload, type, headers)``."""
        split = urlsplit(target)
        path = split.path
        query = {
            name: values[0] for name, values in parse_qs(split.query).items()
        }
        try:
            result = self._dispatch(method, path, query, body)
        except _HttpError as exc:
            result = self._json(exc.status, {"error": exc.message})
        except FleetRecoveringError as exc:
            # Transient: the partition is healing, not gone.  Degrade to
            # 503 with a Retry-After hint instead of an error.
            retry_after = max(1, ceil(exc.retry_after))
            status, payload, content_type = self._json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
            )
            return status, payload, content_type, (
                ("Retry-After", str(retry_after)),
            )
        except DeploymentError as exc:
            # The fleet's canonical error shape, carried over the wire.
            result = self._json(400, {"error": str(exc)})
        except Exception as exc:  # never let one request kill the loop
            result = self._json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        return (*result, ())

    @staticmethod
    def _body_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return parsed

    @staticmethod
    def _require(payload: dict, *names: str) -> list:
        missing = [name for name in names if name not in payload]
        if missing:
            raise _HttpError(400, f"missing field(s): {', '.join(missing)}")
        return [payload[name] for name in names]

    def _dispatch(self, method: str, path: str, query: dict, body: bytes):
        fleet = self._fleet
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET /healthz")
            health = {"status": "ok", "instances": len(fleet)}
            # Supervised fleets surface per-worker lifecycle state; the
            # poll doubles as silent-death detection (a SIGKILLed worker
            # starts recovering on the next health check at the latest).
            check = getattr(fleet, "check_workers", None)
            if check is not None:
                states = check()
                health["workers"] = states
                health["pids"] = fleet.worker_pids()
                if any(state == "recovering" for state in states):
                    health["status"] = "recovering"
                elif any(state == "dead" for state in states):
                    health["status"] = "degraded"
            return self._json(200, health)
        if path == "/spawn":
            if method != "POST":
                raise _HttpError(405, "use POST /spawn")
            payload = self._body_json(body)
            if "key" in payload:
                fleet.spawn(payload["key"])
                return self._json(200, {"spawned": [payload["key"]]})
            (count,) = self._require(payload, "count")
            keys = fleet.spawn_many(
                int(count), payload.get("prefix", "session")
            )
            return self._json(200, {"spawned": keys})
        if path == "/deliver":
            if method != "POST":
                raise _HttpError(405, "use POST /deliver")
            payload = self._body_json(body)
            if "events" in payload:
                events = [
                    (event[0], event[1]) for event in payload["events"]
                ]
                fleet.run(events, encoding="events")
                return self._json(200, {"dispatched": len(events)})
            key, message = self._require(payload, "key", "message")
            fired = fleet.deliver(key, message)
            return self._json(200, {"fired": bool(fired)})
        if path == "/post":
            if method != "POST":
                raise _HttpError(405, "use POST /post")
            key, message = self._require(
                self._body_json(body), "key", "message"
            )
            accepted = fleet.post(key, message, source="gateway")
            return self._json(200, {"accepted": bool(accepted)})
        if path == "/drain":
            if method != "POST":
                raise _HttpError(405, "use POST /drain")
            return self._json(200, {"dispatched": fleet.drain_all()})
        if path == "/state":
            key = query.get("key")
            if key is None:
                raise _HttpError(400, "use GET /state?key=...")
            state, finished = fleet.status(key)
            return self._json(
                200, {"key": key, "state": state, "finished": finished}
            )
        if path == "/trace":
            key = query.get("key")
            if key is None:
                raise _HttpError(400, "use GET /trace?key=...")
            trace = fleet.trace(key)
            return self._json(
                200,
                {
                    "key": trace.key,
                    "state": trace.state,
                    "actions": list(trace.actions),
                },
            )
        if path == "/snapshot":
            if method != "GET":
                raise _HttpError(405, "use GET /snapshot")
            partial = query.get("partial", "").lower() in ("1", "true", "yes")
            return self._json(
                200, snapshot_to_json(fleet.snapshot(allow_partial=partial))
            )
        if path == "/restore":
            if method != "POST":
                raise _HttpError(405, "use POST /restore")
            partial = query.get("partial", "").lower() in ("1", "true", "yes")
            snapshot = snapshot_from_json(self._body_json(body))
            fleet.restore(snapshot, allow_partial=partial)
            return self._json(200, {"restored": len(snapshot.instances)})
        if path == "/metrics":
            registry = fleet_registry(fleet)
            registry.merge(self.registry)
            return (
                200,
                render_prometheus(registry).encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if path == "/shutdown":
            if method != "POST":
                raise _HttpError(405, "use POST /shutdown")
            if not self._allow_remote_shutdown:
                raise _HttpError(
                    403, "remote shutdown disabled; start the gateway "
                    "with allow_remote_shutdown=True (--allow-remote-shutdown)"
                )
            self._shutdown.set()
            return self._json(200, {"status": "shutting down"})
        raise _HttpError(404, f"unknown path {path!r}")

    # ------------------------------------------------------------------
    # WebSocket
    # ------------------------------------------------------------------

    async def _websocket(self, headers, reader, writer) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            writer.write(
                self._response(
                    400, b'{"error": "missing Sec-WebSocket-Key"}\n',
                    "application/json", True,
                )
            )
            await writer.drain()
            return
        accept = base64.b64encode(
            hashlib.sha1((key + _WS_MAGIC).encode("latin-1")).digest()
        ).decode("latin-1")
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        while True:
            frame = await self._read_frame(reader)
            if frame is None:
                break
            opcode, payload = frame
            if opcode == 0x8:  # close
                writer.write(b"\x88\x00")
                await writer.drain()
                break
            if opcode == 0x9:  # ping -> pong
                writer.write(self._frame(0xA, payload))
                await writer.drain()
                continue
            if opcode not in (0x1, 0x2):
                continue
            self._ws_messages.add(1)
            reply = self._ws_reply(payload)
            writer.write(self._frame(0x1, reply))
            await writer.drain()

    def _ws_reply(self, payload: bytes) -> bytes:
        try:
            message = json.loads(payload)
            op = message.get("op")
            if op == "deliver":
                result = {
                    "fired": bool(
                        self._fleet.deliver(message["key"], message["message"])
                    )
                }
            elif op == "post":
                result = {
                    "accepted": bool(
                        self._fleet.post(
                            message["key"], message["message"], source="ws"
                        )
                    )
                }
            elif op == "state":
                state, finished = self._fleet.status(message["key"])
                result = {
                    "key": message["key"],
                    "state": state,
                    "finished": finished,
                }
            elif op == "len":
                result = {"instances": len(self._fleet)}
            else:
                result = {"error": f"unknown op {op!r}"}
        except DeploymentError as exc:
            result = {"error": str(exc)}
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            result = {"error": f"malformed frame: {exc}"}
        return json.dumps(result).encode("utf-8")

    @staticmethod
    async def _read_frame(reader):
        try:
            head = await reader.readexactly(2)
        except asyncio.IncompleteReadError:
            return None
        opcode = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        if length == 126:
            length = int.from_bytes(await reader.readexactly(2), "big")
        elif length == 127:
            length = int.from_bytes(await reader.readexactly(8), "big")
        mask = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
        if masked and payload:
            payload = bytes(
                byte ^ mask[i % 4] for i, byte in enumerate(payload)
            )
        return opcode, payload

    @staticmethod
    def _frame(opcode: int, payload: bytes) -> bytes:
        length = len(payload)
        if length < 126:
            head = bytes((0x80 | opcode, length))
        elif length < 1 << 16:
            head = bytes((0x80 | opcode, 126)) + length.to_bytes(2, "big")
        else:
            head = bytes((0x80 | opcode, 127)) + length.to_bytes(8, "big")
        return head + payload
