"""Warm worker pool: reusable simulation worker processes.

A process per job attempt would pay a fork + interpreter warmup each
time; for sweeps of many small jobs that overhead erases the parallel
speedup (measured ~0.97x on the Table IV suite with one-shot workers).

A :class:`WarmPool` keeps worker processes alive between jobs *and*
between :func:`~repro.runner.run_jobs` calls: each worker loops
recv(payload) -> execute -> send(result) until told to stop.  The
fault-tolerant engine (:mod:`repro.runner.engine`) owns supervision --
it watches each worker's pipe and process sentinel, and a worker that
crashes (an injected ``kill`` fault included), times out or is
abandoned is discarded (killed) instead of recycled, so every failure
mode stays observable.

Workers are daemonic, so an exiting parent never leaks them; an idle
warm worker costs one sleeping process.
"""

from __future__ import annotations

from typing import List, Optional


def _pool_worker_main(conn) -> None:
    """Worker body: serve job payloads until ``None`` or EOF."""
    from .engine import _execute_job
    try:
        while True:
            payload = conn.recv()
            if payload is None:
                break
            conn.send(_execute_job(payload))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class PoolWorker:
    """One warm worker process and its duplex pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_pool_worker_main, args=(child,),
                                daemon=True)
        self.proc.start()
        child.close()

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def submit(self, payload) -> None:
        """Send one job payload (exactly one response will follow)."""
        self.conn.send(payload)

    def stop(self) -> None:
        """Ask the worker to exit cleanly and wait for it."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        try:
            self.conn.close()
        except OSError:
            pass

    def kill(self) -> None:
        """Terminate the worker immediately (crash/timeout cleanup)."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        try:
            self.conn.close()
        except OSError:
            pass


class WarmPool:
    """A recycling store of :class:`PoolWorker` processes.

    ``acquire`` hands out an idle worker (spawning one when none is
    available), ``release`` returns a worker that finished cleanly,
    ``discard`` destroys one that did not.  The pool never caps how
    many workers exist at once -- the engine's scheduling already
    bounds concurrency -- but idle workers accumulate up to
    ``max_idle`` and excess ones are stopped on release.
    """

    def __init__(self, max_idle: int = 16) -> None:
        self.max_idle = max_idle
        self._idle: List[PoolWorker] = []
        self.spawned = 0
        self.recycled = 0

    def acquire(self, ctx) -> PoolWorker:
        """An idle live worker, or a freshly spawned one.

        Raises ``OSError`` when a needed spawn fails (the engine treats
        that as pool meltdown and degrades to serial execution).
        """
        while self._idle:
            worker = self._idle.pop()
            if worker.alive:
                self.recycled += 1
                return worker
            worker.kill()
        worker = PoolWorker(ctx)
        self.spawned += 1
        return worker

    def release(self, worker: PoolWorker) -> None:
        """Return a worker whose last job completed cleanly."""
        if not worker.alive:
            worker.kill()
            return
        if len(self._idle) >= self.max_idle:
            worker.stop()
            return
        self._idle.append(worker)

    def discard(self, worker: PoolWorker) -> None:
        """Destroy a worker after a crash, timeout or abandonment."""
        worker.kill()

    @property
    def idle_workers(self) -> int:
        return len(self._idle)

    def shutdown(self) -> None:
        """Stop every idle worker (in-flight ones belong to the engine)."""
        while self._idle:
            self._idle.pop().stop()


#: The process-wide pool shared by every ``run_jobs`` call.
_shared: Optional[WarmPool] = None


def shared_pool() -> WarmPool:
    """The process-wide warm pool (created on first use)."""
    global _shared
    if _shared is None:
        _shared = WarmPool()
    return _shared


def shutdown_shared_pool() -> None:
    """Stop all idle shared workers (tests, interpreter teardown)."""
    global _shared
    if _shared is not None:
        _shared.shutdown()
        _shared = None
