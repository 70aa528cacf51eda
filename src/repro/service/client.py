"""Synchronous HTTP client for the power-estimation service.

What ``gpusimpow submit`` and the test/CI harness use: plain
:mod:`http.client` over the daemon's ``/v1`` endpoints, no
dependencies.  Calls keep their connection alive: each thread that
uses a client sends all its calls over one connection of its own, so
a client may be shared between threads.  A reused connection the
daemon has meanwhile closed is reopened and the call sent once more --
only when the failure came before any byte of the answer.  An event
:meth:`~ServiceClient.stream` opens a connection of its own.  Failing
to reach the daemon raises :class:`OSError` (e.g.
:class:`ConnectionRefusedError`).

The client measures wall-clock ``elapsed_s`` per submit -- the CI
cache-hit check asserts a second identical submission answers
materially faster than the first.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import weakref
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from ..request import SimRequest


class ServiceError(Exception):
    """A non-2xx service response; carries status and payload."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        message = payload.get("message") or payload.get("error") \
            or f"HTTP {status}"
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.payload = payload


def _service_error(response: http.client.HTTPResponse,
                   raw: bytes) -> ServiceError:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError:
        payload = {"error": "http",
                   "message": f"HTTP {response.status} {response.reason}"}
    return ServiceError(response.status, payload)


def _close_all(connections: List[http.client.HTTPConnection]) -> None:
    for conn in list(connections):
        conn.close()
    connections.clear()


class ServiceClient:
    """Talk to one daemon at ``base_url`` as one tenant.

    :meth:`close` (or leaving a ``with`` block, or dropping the client)
    closes the kept-alive connections.
    """

    def __init__(self, base_url: str, tenant: str = "default",
                 timeout_s: float = 630.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout_s = timeout_s
        split = urlsplit(self.base_url)
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port
        self._prefix = split.path
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._connections)

    def close(self) -> None:
        """Close every connection this client holds open."""
        _close_all(self._connections)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------------

    def _open(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self._host, self._port,
                                          timeout=self.timeout_s)

    def _connection(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection, and whether an earlier call left
        it open (a fresh or reopened one is not)."""
        conn = getattr(self._local, "conn", None)
        if conn is None or conn not in self._connections:
            conn = self._local.conn = self._open()
            self._connections.append(conn)
        return conn, conn.sock is not None

    def _call(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = None
        headers = {"X-Tenant": self.tenant}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        while True:
            conn, reused = self._connection()
            answered = False
            try:
                conn.request(method, self._prefix + path, body=data,
                             headers=headers)
                # Wait for the answer's first byte without consuming it.
                answered = bool(conn.sock.recv(1, socket.MSG_PEEK))
                response = conn.getresponse()
                raw = response.read()
            except ConnectionError:
                conn.close()
                # The daemon closed this kept-alive connection while it
                # sat idle, so the call failed before any byte of the
                # answer: send it once more, on a new connection.
                if reused and not answered:
                    continue
                raise
            except BaseException:
                conn.close()
                raise
            break
        if not 200 <= response.status < 300:
            raise _service_error(response, raw)
        return json.loads(raw.decode("utf-8"))

    # -- endpoints ------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/healthz")

    def status(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/status")

    def submit(self, request: Union[SimRequest, Dict[str, Any]],
               priority: int = 0, wait: bool = False,
               wait_timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Submit one simulation request.

        ``request`` is a :class:`~repro.request.SimRequest` or its
        ``to_dict`` form.  The response dict gains a client-measured
        ``elapsed_s`` field.
        """
        if isinstance(request, SimRequest):
            request = request.to_dict()
        body: Dict[str, Any] = {"request": request,
                                "priority": int(priority)}
        if wait:
            body["wait"] = True
            if wait_timeout_s is not None:
                body["wait_timeout_s"] = float(wait_timeout_s)
        started = time.perf_counter()
        payload = self._call("POST", "/v1/submit", body)
        payload["elapsed_s"] = time.perf_counter() - started
        return payload

    def submission(self, sub_id: str) -> Dict[str, Any]:
        return self._call("GET", f"/v1/jobs/{sub_id}")

    def result(self, sub_id: str) -> Dict[str, Any]:
        return self._call("GET", f"/v1/jobs/{sub_id}/result")

    def wait(self, sub_id: str, timeout_s: float = 600.0,
             poll_s: float = 0.1) -> Dict[str, Any]:
        """Poll until ``sub_id`` is terminal; returns the result call."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                return self.result(sub_id)
            except ServiceError as exc:
                if exc.status != 409 or time.monotonic() >= deadline:
                    raise
            time.sleep(poll_s)

    def stream(self, sub_id: str) -> Iterator[Dict[str, Any]]:
        """Yield ``{"event": ..., "data": ...}`` frames until terminal."""
        conn = self._open()
        try:
            conn.request("GET", self._prefix + f"/v1/jobs/{sub_id}/stream",
                         headers={"X-Tenant": self.tenant})
            with conn.getresponse() as resp:
                if resp.status != 200:
                    raise _service_error(resp, resp.read())
                event: Dict[str, Any] = {}
                for raw in resp:
                    line = raw.decode("utf-8").rstrip("\n")
                    if not line:
                        if "event" in event:
                            yield event
                            if event["event"] in ("result", "error"):
                                return
                        event = {}
                    elif line.startswith("event: "):
                        event["event"] = line[len("event: "):]
                    elif line.startswith("data: "):
                        event["data"] = json.loads(line[len("data: "):])
        finally:
            conn.close()

    def pause(self) -> Dict[str, Any]:
        return self._call("POST", "/v1/admin/pause")

    def resume(self) -> Dict[str, Any]:
        return self._call("POST", "/v1/admin/resume")
