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
from typing import Optional

from .core import PowerService
from .protocol import (HTTPRequest, ProtocolError, read_request,
                       start_event_stream, write_event, write_json)

#: How long a ``"wait": true`` submission may block, by default.
DEFAULT_WAIT_TIMEOUT_S = 600.0

#: Signals a daemon shuts down gracefully on (when the platform's
#: event loop supports handlers for them).
SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class ServiceDaemon:
    """Bind a :class:`PowerService` to a TCP port."""

    def __init__(self, service: PowerService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.replayed = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_requested: Optional[asyncio.Event] = None

    async def start(self) -> None:
        """Replay the journal and start accepting connections."""
        self.replayed = self.service.start()
        self._stop_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, then close the service (which ends open
        event streams and seals the journal with a final fsync)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.service.close()

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

    def remove_signal_handlers(self) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        for sig in SHUTDOWN_SIGNALS:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

    async def serve_forever(self) -> None:
        """Serve until cancelled or :meth:`request_stop` is called."""
        assert self._server is not None, "call start() first"
        assert self._stop_requested is not None
        stop = asyncio.ensure_future(self._stop_requested.wait())
        async with self._server:
            serve = asyncio.ensure_future(self._server.serve_forever())
            try:
                await asyncio.wait({stop, serve},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                for task in (stop, serve):
                    if not task.done():
                        task.cancel()
                        try:
                            await task
                        except asyncio.CancelledError:
                            pass

    # -- connection handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is not None:
                    await self._route(request, writer)
            except ProtocolError as exc:
                await write_json(writer, exc.status,
                                 {"error": "protocol",
                                  "message": str(exc)})
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                await write_json(writer, 500,
                                 {"error": type(exc).__name__,
                                  "message": str(exc)})
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: HTTPRequest,
                     writer: asyncio.StreamWriter) -> None:
        method, path = request.method, request.path.rstrip("/")
        if path == "/v1/healthz" and method == "GET":
            from .. import __version__
            await write_json(writer, 200,
                             {"ok": True, "version": __version__,
                              "paused": self.service.paused})
            return
        if path == "/v1/status" and method == "GET":
            await write_json(writer, 200, self.service.status())
            return
        if path == "/v1/submit":
            if method != "POST":
                await write_json(writer, 405,
                                 {"error": "method-not-allowed"})
                return
            await self._submit(request, writer)
            return
        if path == "/v1/admin/pause" and method == "POST":
            self.service.pause()
            await write_json(writer, 200, {"ok": True, "paused": True})
            return
        if path == "/v1/admin/resume" and method == "POST":
            self.service.resume()
            await write_json(writer, 200, {"ok": True, "paused": False})
            return
        if path.startswith("/v1/jobs/"):
            await self._jobs(request, writer, path)
            return
        await write_json(writer, 404,
                         {"error": "not-found",
                          "message": f"no route {method} {path}"})

    async def _submit(self, request: HTTPRequest,
                      writer: asyncio.StreamWriter) -> None:
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
                await write_json(writer, 408,
                                 {"error": "wait-timeout",
                                  "submission": sub_id,
                                  "timeout_s": timeout})
                return
            status, payload = self.service.result(sub_id)
        await write_json(writer, status, payload)

    async def _jobs(self, request: HTTPRequest,
                    writer: asyncio.StreamWriter, path: str) -> None:
        parts = path.split("/")  # ['', 'v1', 'jobs', sub, action?]
        if request.method != "GET" or len(parts) not in (4, 5):
            await write_json(writer, 404, {"error": "not-found"})
            return
        sub_id = parts[3]
        action = parts[4] if len(parts) == 5 else ""
        if action == "":
            status, payload = self.service.describe(sub_id)
            await write_json(writer, status, payload)
            return
        if action == "result":
            status, payload = self.service.result(sub_id)
            await write_json(writer, status, payload)
            return
        if action == "stream":
            await self._stream(sub_id, writer)
            return
        await write_json(writer, 404,
                         {"error": "not-found",
                          "message": f"unknown action {action!r}"})

    async def _stream(self, sub_id: str,
                      writer: asyncio.StreamWriter) -> None:
        queue = self.service.subscribe(sub_id)
        if queue is None:
            await write_json(writer, 404,
                             {"error": "not-found",
                              "message": f"unknown submission "
                                         f"{sub_id!r}"})
            return
        await start_event_stream(writer)
        while True:
            event = await queue.get()
            if event is None:
                break
            await write_event(writer, event["event"], event["data"])

