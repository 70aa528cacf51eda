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
warm worker costs one sleeping process.  Two things make that hold for
any parent: a worker drops its copy of the parent's end of its pipe,
so a parent that dies without cleanup reaches it as EOF; and it
restores the default SIGTERM/SIGINT handling, because a worker forked
from an asyncio daemon would otherwise inherit the loop's handlers,
which only write to the parent's wakeup fd -- ``terminate()`` at the
parent's exit would then be ignored and the exit would hang.  It also
lets go of every other inherited socket (the daemon's listener, its
client connections), so a connection the daemon closes reaches its
client as EOF.

The pool is thread-safe: the service daemon drives it from several
executor threads at once.  One lock guards the idle list and the
counters; forking a new worker happens outside it, so a slow spawn
never blocks another thread's recycle.  Spawns take a lock of their
own, so a worker forked by one thread never inherits the child ends
of a sibling's pipes mid-spawn (which would hide that sibling's death
from its pipe and sentinel).
"""

from __future__ import annotations

import os
import signal
import stat
import threading
from typing import List, Optional


def _release_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at ``/dev/null``.

    Not a close: the parent's socket objects, copied here, still name
    the numbers, and their finalizers would close whatever reused a
    freed one.  The standard streams stay, whatever they are.
    """
    try:
        fds = [int(fd) for fd in os.listdir("/dev/fd")]
    except OSError:  # no descriptor listing on this platform
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            try:
                if fd > 2 and fd not in (keep, null) \
                        and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:  # the listing's own, since-closed descriptor
                pass
    finally:
        os.close(null)


def _pool_worker_main(conn, parent_end) -> None:
    """Worker body: serve job payloads until ``None`` or EOF."""
    parent_end.close()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _release_inherited_sockets(conn.fileno())
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


#: Serialises worker forks across threads (see the module docstring).
_spawn_lock = threading.Lock()


class PoolWorker:
    """One warm worker process and its duplex pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_pool_worker_main,
                                args=(child, self.conn), daemon=True)
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
        self._lock = threading.Lock()
        self.spawned = 0
        self.recycled = 0

    def acquire(self, ctx) -> PoolWorker:
        """An idle live worker, or a freshly spawned one.

        Raises ``OSError`` when a needed spawn fails (the engine treats
        that as pool meltdown and degrades to serial execution).
        """
        while True:
            with self._lock:
                if not self._idle:
                    break
                worker = self._idle.pop()
                if worker.alive:
                    self.recycled += 1
                    return worker
            worker.kill()
        with _spawn_lock:
            worker = PoolWorker(ctx)
        with self._lock:
            self.spawned += 1
        return worker

    def release(self, worker: PoolWorker) -> None:
        """Return a worker whose last job completed cleanly."""
        alive = worker.alive
        with self._lock:
            if alive and len(self._idle) < self.max_idle:
                self._idle.append(worker)
                return
        if alive:
            worker.stop()
        else:
            worker.kill()

    def discard(self, worker: PoolWorker) -> None:
        """Destroy a worker after a crash, timeout or abandonment."""
        worker.kill()

    @property
    def idle_workers(self) -> int:
        return len(self._idle)

    def shutdown(self) -> None:
        """Stop every idle worker (in-flight ones belong to the engine)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()


#: The process-wide pool shared by every ``run_jobs`` call.
_shared: Optional[WarmPool] = None
_shared_lock = threading.Lock()


def shared_pool() -> WarmPool:
    """The process-wide warm pool (created on first use)."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = WarmPool()
        return _shared


def shutdown_shared_pool() -> None:
    """Stop all idle shared workers (tests, interpreter teardown)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()
