"""The warm worker pool: thread safety and worker lifetime.

The service daemon drives the process-wide :class:`WarmPool` from two
executor threads at once, so ``acquire``/``release``/``shutdown`` and
the first :func:`shared_pool` call race for real.  The stress tests
use a fake process context (cheap objects with the same interface as
``multiprocessing``'s) and a tiny GIL switch interval, so thousands of
hand-offs interleave in a fraction of a second.  The first
``shared_pool`` call is widened with a slow constructor, so two
creators would overlap every time.  One test runs two real pooled
``run_jobs`` calls side by side; the lifetime tests fork real workers,
among them workers forked while the parent holds a listening socket
and a client connection, as the service daemon does.
"""

import asyncio
import os
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runner import SimJob, run_jobs
from repro.runner import pool as pool_module
from repro.runner.engine import _pool_context
from repro.runner.pool import (PoolWorker, WarmPool, shared_pool,
                               shutdown_shared_pool)
from repro.sim import gt240
from tests.conftest import build_vecadd_launch

THREADS = 8


class _FakeConn:
    def send(self, payload):
        pass

    def close(self):
        pass


class _FakeProcess:
    def __init__(self, target=None, args=(), daemon=None):
        self.running = False

    def start(self):
        self.running = True

    def is_alive(self):
        return self.running

    def join(self, timeout=None):
        self.running = False

    def kill(self):
        self.running = False


class _FakeContext:
    """Stands in for a ``multiprocessing`` context: no real fork."""

    def Pipe(self, duplex=True):
        return _FakeConn(), _FakeConn()

    def Process(self, target, args, daemon):
        return _FakeProcess(target, args, daemon)


@pytest.fixture()
def fast_switching():
    """Switch threads every microsecond to widen every race window."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _run_threads(fn, n=THREADS):
    """Run ``fn(i)`` on ``n`` threads released together; re-raise."""
    barrier = threading.Barrier(n)

    def body(i):
        barrier.wait(timeout=30)
        return fn(i)

    with ThreadPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(body, i) for i in range(n)]
        return [f.result(timeout=120) for f in futures]


class TestWarmPoolThreads:
    def test_concurrent_acquire_release(self, fast_switching):
        pool = WarmPool(max_idle=4)
        ctx = _FakeContext()
        rounds = 500
        held = set()
        guard = threading.Lock()
        double_handouts = []

        def churn(_):
            for _ in range(rounds):
                worker = pool.acquire(ctx)
                with guard:
                    if id(worker) in held:
                        double_handouts.append(worker)
                    held.add(id(worker))
                with guard:
                    held.discard(id(worker))
                pool.release(worker)

        _run_threads(churn)
        assert double_handouts == []
        assert pool.spawned + pool.recycled == THREADS * rounds
        assert pool.idle_workers <= pool.max_idle
        pool.shutdown()
        assert pool.idle_workers == 0

    def test_dead_idle_workers_are_never_handed_out(self, fast_switching):
        pool = WarmPool()
        ctx = _FakeContext()

        def churn(_):
            for _ in range(200):
                worker = pool.acquire(ctx)
                assert worker.alive
                worker.proc.running = False  # dies while idle
                pool.release(worker)

        _run_threads(churn)
        assert pool.recycled == 0
        assert pool.spawned == THREADS * 200

    def test_concurrent_shutdown(self, fast_switching):
        pool = WarmPool()
        ctx = _FakeContext()
        workers = [pool.acquire(ctx) for _ in range(THREADS * 4)]
        for worker in workers:
            pool.release(worker)
        _run_threads(lambda _: pool.shutdown())
        assert pool.idle_workers == 0
        assert not any(w.alive for w in workers)

    def test_first_shared_pool_is_one_pool(self, monkeypatch):
        class SlowPool(WarmPool):
            def __init__(self):
                time.sleep(0.01)  # a wide window for a second creator
                super().__init__()

        monkeypatch.setattr(pool_module, "WarmPool", SlowPool)
        for _ in range(5):
            shutdown_shared_pool()
            pools = _run_threads(lambda _: shared_pool())
            assert len({id(p) for p in pools}) == 1
            assert shared_pool() is pools[0]
        shutdown_shared_pool()


def test_concurrent_pooled_run_jobs_match_serial():
    """Two threads each run a pooled batch on the shared pool at once;
    both return the bytes a serial run gives."""
    launches = [build_vecadd_launch(n=64 * (i + 1), block=64)[0]
                for i in range(4)]
    jobs = [SimJob(config=gt240(), launch=launch, tag=f"j{i}")
            for i, launch in enumerate(launches)]
    serial = run_jobs(jobs, n_jobs=1, cache=None)
    batches = [jobs[:2], jobs[2:]]
    pooled = _run_threads(
        lambda i: run_jobs(batches[i], n_jobs=2, cache=None), n=2)
    for got, want in zip(pooled[0] + pooled[1], serial):
        assert got.worker != -1
        assert got.cycles == want.cycles
        assert got.activity.to_dict() == want.activity.to_dict()


class TestWorkerLifetime:
    """A worker must not outlive its parent, however the parent ends."""

    def test_worker_sees_eof_when_the_parent_end_closes(self):
        worker = PoolWorker(_pool_context())
        try:
            worker.conn.close()  # what a dying parent's exit does
            worker.proc.join(timeout=10)
            assert not worker.proc.is_alive()
        finally:
            worker.kill()

    def test_terminate_ends_a_worker_forked_under_asyncio(self):
        """A worker forked while an asyncio loop owns SIGTERM must
        still die on ``terminate()`` (what multiprocessing does to
        daemonic children at the parent's exit)."""
        loop = asyncio.new_event_loop()
        loop.add_signal_handler(signal.SIGTERM, lambda: None)
        worker = None
        try:
            worker = PoolWorker(_pool_context())
            launch, _, _ = build_vecadd_launch(n=64, block=64)
            job = SimJob(config=gt240(), launch=launch, tag="j0")
            worker.submit((0, job, None, False))
            assert worker.conn.recv()[-1] is None  # set-up has run
            worker.proc.terminate()
            worker.proc.join(timeout=10)
            assert worker.proc.exitcode == -signal.SIGTERM
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            loop.close()
            if worker is not None:
                worker.kill()


def _sockets_held(pid):
    """Socket descriptors above the standard streams held by ``pid``."""
    fd_dir = f"/proc/{pid}/fd"
    return sum(1 for fd in os.listdir(fd_dir) if int(fd) > 2
               and os.readlink(f"{fd_dir}/{fd}").startswith("socket:"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc descriptor listings")
class TestInheritedSockets:
    """A worker forked by a serving parent holds none of its sockets."""

    @pytest.fixture()
    def served_worker(self):
        """A worker forked while a listener and an accepted client
        connection are open, after one job round trip; yields
        ``(worker, client, accepted)``."""
        listener = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(listener.getsockname())
        accepted, _ = listener.accept()
        worker = None
        try:
            worker = PoolWorker(_pool_context())
            launch, _, _ = build_vecadd_launch(n=64, block=64)
            job = SimJob(config=gt240(), launch=launch, tag="j0")
            worker.submit((0, job, None, False))
            assert worker.conn.recv()[-1] is None
            yield worker, client, accepted
        finally:
            for sock in (accepted, client, listener):
                sock.close()
            if worker is not None:
                worker.kill()

    def test_worker_holds_only_its_own_socket(self, served_worker):
        worker, _, _ = served_worker
        assert _sockets_held(worker.proc.pid) == 1

    def test_closed_connection_reaches_the_client_as_eof(
            self, served_worker):
        worker, client, accepted = served_worker
        accepted.close()
        client.settimeout(10)
        assert client.recv(1) == b""
        assert worker.alive
