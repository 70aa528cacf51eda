"""The asyncio HTTP daemon wrapping a :class:`PowerService`.

Endpoints (all JSON; submissions identify their tenant with an
``X-Tenant`` header, defaulting to ``"default"``):

==========================================  ==============================
``GET  /v1/healthz``                        liveness + version
``GET  /v1/status``                         scheduler + stats snapshot
``POST /v1/submit``                         admit one simulation request
``GET  /v1/jobs/<sub>``                     submission state
``GET  /v1/jobs/<sub>/result``              result (409 until terminal)
``GET  /v1/jobs/<sub>/stream``              server-sent telemetry windows
``POST /v1/admin/pause`` / ``resume``       dispatch control
==========================================  ==============================

``POST /v1/submit`` accepts::

    {"request": <SimRequest.to_dict()>, "priority": 0, "wait": false}

With ``"wait": true`` the response is held until the submission
reaches a terminal state and the result is returned inline -- the
mode ``gpusimpow submit --wait`` and the CI cache-hit check use.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Dict, Optional, Set, Tuple

from .core import PowerService
from .protocol import (HTTPRequest, ProtocolError, read_request,
                       start_event_stream, write_event, write_json)

#: How long a ``"wait": true`` submission may block, by default.
DEFAULT_WAIT_TIMEOUT_S = 600.0

#: A request's answer: HTTP status and JSON payload.
Answer = Tuple[int, Dict[str, Any]]

#: Signals a daemon shuts down gracefully on (when the platform's
#: event loop supports handlers for them).
SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class ServiceDaemon:
    """Bind a :class:`PowerService` to a TCP port.

    Each connection is served request after request until the client
    closes it or asks for ``Connection: close`` (see
    :mod:`repro.service.protocol`).
    """

    def __init__(self, service: PowerService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.replayed = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_requested: Optional[asyncio.Event] = None
        #: One handler task per open connection.
        self._connections: Set[asyncio.Task] = set()

    async def start(self) -> None:
        """Replay the journal and start accepting connections."""
        self.replayed = self.service.start()
        self._stop_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close the service (which ends open event
        streams and seals the journal with a final fsync), then close
        every connection still open -- idle keep-alive ones and any
        still held by a ``"wait": true`` submission."""
        if self._server is not None:
            self._server.close()
        self.service.close()
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return (signal-handler safe)."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    def install_signal_handlers(self) -> bool:
        """Route SIGTERM/SIGINT to a graceful :meth:`request_stop`.

        Returns False on platforms/loops without
        ``add_signal_handler`` (e.g. Windows, non-main threads) --
        callers then fall back to ``KeyboardInterrupt`` handling.
        """
        try:
            loop = asyncio.get_running_loop()
            for sig in SHUTDOWN_SIGNALS:
                loop.add_signal_handler(sig, self.request_stop)
        except (NotImplementedError, RuntimeError):
            return False
        return True

    async def serve_forever(self) -> None:
        """Serve until cancelled or :meth:`request_stop` is called.

        The server accepts from :meth:`start` on; call :meth:`stop`
        afterwards to close it and its connections.
        """
        assert self._stop_requested is not None, "call start() first"
        await self._stop_requested.wait()

    # -- connection handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            keep_alive = True
            while keep_alive:
                try:
                    request = await read_request(reader)
                    if request is None:
                        break
                    keep_alive = request.keep_alive
                    answer = await self._route(request, writer)
                    if answer is None:
                        break  # an event stream: the close ends it
                    status, payload = answer
                except ProtocolError as exc:
                    keep_alive = False
                    status, payload = exc.status, {"error": "protocol",
                                                   "message": str(exc)}
                except ConnectionError:
                    raise
                except Exception as exc:
                    keep_alive = False
                    status, payload = 500, {"error": type(exc).__name__,
                                            "message": str(exc)}
                await write_json(writer, status, payload, keep_alive)
        except (ConnectionError, asyncio.CancelledError):
            # The client went away, or stop() cancelled this handler.
            # The cancellation ends here: asyncio 3.11's stream server
            # logs a handler task that ends cancelled as an error.
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: HTTPRequest,
                     writer: asyncio.StreamWriter) -> Optional[Answer]:
        """The ``(status, payload)`` answer to one request, or None
        once an event stream has been written to ``writer``."""
        method, path = request.method, request.path.rstrip("/")
        if path == "/v1/healthz" and method == "GET":
            from .. import __version__
            return 200, {"ok": True, "version": __version__,
                         "paused": self.service.paused}
        if path == "/v1/status" and method == "GET":
            return 200, self.service.status()
        if path == "/v1/submit":
            if method != "POST":
                return 405, {"error": "method-not-allowed"}
            return await self._submit(request)
        if path == "/v1/admin/pause" and method == "POST":
            self.service.pause()
            return 200, {"ok": True, "paused": True}
        if path == "/v1/admin/resume" and method == "POST":
            self.service.resume()
            return 200, {"ok": True, "paused": False}
        if path.startswith("/v1/jobs/"):
            return await self._jobs(request, writer, path)
        return 404, {"error": "not-found",
                     "message": f"no route {method} {path}"}

    async def _submit(self, request: HTTPRequest) -> Answer:
        body = request.json()
        tenant = request.header("x-tenant", "default") or "default"
        status, payload = self.service.submit(body, tenant=tenant)
        wait = bool(body.get("wait")) if isinstance(body, dict) else False
        if wait and status == 202:
            sub_id = payload["submission"]
            timeout = DEFAULT_WAIT_TIMEOUT_S
            if isinstance(body.get("wait_timeout_s"), (int, float)):
                timeout = float(body["wait_timeout_s"])
            finished = await self.service.wait(sub_id, timeout=timeout)
            if not finished:
                return 408, {"error": "wait-timeout",
                             "submission": sub_id, "timeout_s": timeout}
            status, payload = self.service.result(sub_id)
        return status, payload

    async def _jobs(self, request: HTTPRequest,
                    writer: asyncio.StreamWriter,
                    path: str) -> Optional[Answer]:
        parts = path.split("/")  # ['', 'v1', 'jobs', sub, action?]
        if request.method != "GET" or len(parts) not in (4, 5):
            return 404, {"error": "not-found"}
        sub_id = parts[3]
        action = parts[4] if len(parts) == 5 else ""
        if action == "":
            return self.service.describe(sub_id)
        if action == "result":
            return self.service.result(sub_id)
        if action == "stream":
            return await self._stream(sub_id, writer)
        return 404, {"error": "not-found",
                     "message": f"unknown action {action!r}"}

    async def _stream(self, sub_id: str,
                      writer: asyncio.StreamWriter) -> Optional[Answer]:
        queue = self.service.subscribe(sub_id)
        if queue is None:
            return 404, {"error": "not-found",
                         "message": f"unknown submission {sub_id!r}"}
        await start_event_stream(writer)
        while True:
            event = await queue.get()
            if event is None:
                return None
            await write_event(writer, event["event"], event["data"])
