"""Power estimation as a service.

The paper's framing -- one chip's power scaled to a fleet's power bill
-- only matters at query volume: a deployed GPUSimPow answers "what
does this kernel cost?" continuously, not once per CLI invocation.
This package wraps the simulator core in a long-lived daemon speaking
HTTP/JSON, built on the stdlib ``asyncio`` stack only:

* :mod:`repro.service.core` -- :class:`PowerService`, the event-loop
  scheduler: lint admission control, per-tenant quotas, priority
  queues, identical-digest dedup, content-addressed cache hits,
  telemetry streaming and journal-backed crash recovery;
* :mod:`repro.service.daemon` -- :class:`ServiceDaemon`, the asyncio
  HTTP server exposing the ``/v1`` endpoints;
* :mod:`repro.service.journal` -- :class:`Journal`, the append-only
  submission log a restarted daemon replays;
* :mod:`repro.service.client` -- :class:`ServiceClient`, a synchronous
  ``http.client`` client keeping one connection alive per thread (what
  ``gpusimpow submit`` uses);
* :mod:`repro.service.protocol` -- minimal HTTP/1.1 framing over
  asyncio streams, with keep-alive connections.

Every submission body is a :class:`repro.request.SimRequest` in its
``to_dict`` form -- the same canonical object the facade, the runner
and the result cache speak, so a request that crossed HTTP has the
same content-addressed digest as one built in-process.

Quickstart::

    $ gpusimpow serve --port 8591 &
    $ gpusimpow submit --url http://127.0.0.1:8591 \\
          --kernel vectorAdd --gpu GT240 --wait
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".client": ("ServiceClient", "ServiceError"),
    ".core": ("PowerService", "ServiceStats"),
    ".daemon": ("ServiceDaemon",),
    ".journal": ("Journal",),
})
