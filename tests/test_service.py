"""Integration tests for the power-estimation service.

A real :class:`~repro.service.ServiceDaemon` runs on its own event
loop in a background thread; tests talk to it over actual HTTP with
the synchronous :class:`~repro.service.ServiceClient` -- the same
stack ``gpusimpow submit`` and the CI job use.  No asyncio test
framework is needed: the daemon side is genuinely async, the test
side is plain blocking calls.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import SimRequest
from repro.isa import Dim3, KernelBuilder, KernelLaunch, Reg, Sreg
from repro.service import (Journal, PowerService, ServiceClient,
                           ServiceDaemon, ServiceError)
from repro.backends import get_backend
from repro.sim import gt240
from tests.conftest import (AUTO_REQUESTS, build_vecadd_launch,
                            ladder_counts, one_walk)


class DaemonHarness:
    """One daemon on a background thread, reachable over HTTP."""

    def __init__(self, **service_kwargs):
        service_kwargs.setdefault("cache", None)
        self.service_kwargs = service_kwargs
        self.loop = None
        self.thread = None
        self.daemon = None
        self.client = None

    def start(self):
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.service = PowerService(**self.service_kwargs)
            self.daemon = ServiceDaemon(self.service, port=0)
            self.loop.run_until_complete(self.daemon.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30), "daemon failed to start"
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.daemon.port}", tenant="test")
        return self

    def stop(self):
        if self.loop is None or self.loop.is_closed():
            return
        future = asyncio.run_coroutine_threadsafe(self.daemon.stop(),
                                                  self.loop)
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


@pytest.fixture()
def daemon_factory():
    harnesses = []

    def make(**service_kwargs):
        harness = DaemonHarness(**service_kwargs).start()
        harnesses.append(harness)
        return harness

    yield make
    for harness in harnesses:
        harness.stop()


def tiny_request(**overrides):
    launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
    fields = dict(config=gt240(), launch=launch, kernel="tiny_vecadd")
    fields.update(overrides)
    return SimRequest(**fields)


def broken_request():
    """A kernel only the verifier rejects (reads unallocated r7)."""
    kb = KernelBuilder("broken")
    r = kb.reg()
    kb.mov(r, Reg(7))
    kb.exit()
    launch = KernelLaunch(kernel=kb.build(verify=False), grid=Dim3(1),
                          block=Dim3(32), gmem_words=64)
    return SimRequest(config=gt240(), launch=launch, kernel="broken")


def serve(body, **service_kwargs):
    """Run ``await body(service)`` against an in-process
    :class:`PowerService` on a new event loop; returns its result."""
    async def main():
        service = PowerService(**service_kwargs)
        try:
            return await body(service)
        finally:
            service.close()

    return asyncio.run(main())


class TestEndpoints:
    def test_healthz(self, daemon_factory):
        harness = daemon_factory()
        health = harness.client.healthz()
        assert health["ok"] is True
        assert health["paused"] is False
        import repro
        assert health["version"] == repro.__version__

    def test_status_shape(self, daemon_factory):
        harness = daemon_factory()
        status = harness.client.status()
        assert status["queued_tasks"] == 0
        assert status["running_tasks"] == 0
        assert status["stats"]["submissions"] == 0
        assert status["cache"] is None

    def test_unknown_route_404(self, daemon_factory):
        harness = daemon_factory()
        with pytest.raises(ServiceError) as err:
            harness.client._call("GET", "/v1/nope")
        assert err.value.status == 404

    def test_unknown_submission_404(self, daemon_factory):
        harness = daemon_factory()
        with pytest.raises(ServiceError) as err:
            harness.client.result("s999999")
        assert err.value.status == 404

    def test_malformed_body_400(self, daemon_factory):
        harness = daemon_factory()
        with pytest.raises(ServiceError) as err:
            harness.client._call("POST", "/v1/submit",
                                 {"request": {"kernel": "x"}})
        assert err.value.status == 400

    def test_pause_resume_roundtrip(self, daemon_factory):
        harness = daemon_factory()
        assert harness.client.pause()["paused"] is True
        assert harness.client.healthz()["paused"] is True
        assert harness.client.resume()["paused"] is False


class TestSubmitFlow:
    def test_submit_wait_returns_result(self, daemon_factory):
        harness = daemon_factory()
        response = harness.client.submit(tiny_request(), wait=True)
        assert response["state"] == "done"
        assert response["cached"] is False
        summary = response["result"]["summary"]
        assert summary["chip_total_w"] > 0
        assert summary["runtime_s"] > 0

    def test_cache_hit_on_resubmit(self, daemon_factory, tmp_path):
        harness = daemon_factory(cache=str(tmp_path / "cache"))
        first = harness.client.submit(tiny_request(), wait=True)
        second = harness.client.submit(tiny_request(), wait=True)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"]["summary"] == \
            first["result"]["summary"]
        stats = harness.client.status()["stats"]
        assert stats["cache_hits"] == 1
        assert stats["simulations"] == 1

    def test_auto_answer_records_its_promise(self, daemon_factory,
                                             tmp_path):
        """The ``simulation`` record carries the tier's promise, and a
        cache hit answers with the same record as the fresh run."""
        harness = daemon_factory(cache=str(tmp_path / "cache"))
        request = SimRequest(config=gt240(), kernel="vectorAdd",
                             backend="auto", error_budget=0.10)
        first = harness.client.submit(request, wait=True)
        second = harness.client.submit(request, wait=True)
        assert second["cached"] is True
        for answer in (first, second):
            result = answer["result"]
            assert result["backend"] == "surrogate"
            assert result["simulation"]["promised_error"] == \
                result["promised_error"]
        assert second["result"]["simulation"] == \
            first["result"]["simulation"]

    def test_submit_async_then_poll(self, daemon_factory):
        harness = daemon_factory()
        accepted = harness.client.submit(tiny_request())
        assert "submission" in accepted
        result = harness.client.wait(accepted["submission"],
                                     timeout_s=120)
        assert result["state"] == "done"
        assert result["result"]["summary"]["chip_total_w"] > 0

    def test_result_409_until_done(self, daemon_factory):
        harness = daemon_factory()
        harness.client.pause()
        accepted = harness.client.submit(tiny_request())
        with pytest.raises(ServiceError) as err:
            harness.client.result(accepted["submission"])
        assert err.value.status == 409


class TestAdmissionControl:
    def test_lint_rejects_broken_kernel(self, daemon_factory):
        harness = daemon_factory()
        with pytest.raises(ServiceError) as err:
            harness.client.submit(broken_request(), wait=True)
        assert err.value.status == 422
        diags = err.value.payload["diagnostics"]
        assert any(d["rule"] == "V008" for d in diags)
        assert harness.client.status()["stats"]["lint_rejections"] == 1
        assert harness.client.status()["stats"]["simulations"] == 0

    @staticmethod
    def _racy_request():
        from repro.analysis import KernelFuzzer
        fuzzer = KernelFuzzer(1)
        case = next(c for c in map(fuzzer.case, range(200))
                    if c.flavor == "racy")
        return SimRequest(config=gt240(), launch=case.launch)

    @staticmethod
    def _post_raw(harness, request):
        return TestAdmissionControl._post_body(harness, request.to_dict())

    @staticmethod
    def _post_body(harness, request_dict):
        import urllib.error
        import urllib.request
        body = json.dumps({"request": request_dict}).encode("utf-8")
        call = urllib.request.Request(
            f"http://127.0.0.1:{harness.daemon.port}/v1/submit",
            data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(call, timeout=60) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def test_memoised_lint_verdict_is_byte_identical(self,
                                                     daemon_factory):
        harness = daemon_factory()
        request = self._racy_request()
        first = self._post_raw(harness, request)
        second = self._post_raw(harness, request)
        assert first[0] == 422
        assert second == first
        assert harness.client.status()["stats"]["lint_rejections"] == 2

    def test_memo_does_not_admit_a_broken_twin(self, daemon_factory):
        """Dropping a BRA's reconvergence PC (a V005 ERROR) leaves the
        instruction ``repr`` unchanged; the memoised verdict of the
        well-formed kernel must not admit it."""
        kb = KernelBuilder("memo_twin")
        t = kb.reg()
        p = kb.pred()
        kb.mov(t, Sreg("gtid"))
        kb.setp("lt", p, t, 16)
        kb.bra("end", p)
        kb.stg(t, t)
        kb.label("end")
        kb.exit()
        launch = KernelLaunch(kernel=kb.build(), grid=Dim3(1),
                              block=Dim3(32), gmem_words=64)
        request = SimRequest(config=gt240(), launch=launch)
        harness = daemon_factory()
        status, _ = self._post_raw(harness, request)
        assert status < 300
        twin = request.to_dict()
        for inst in twin["launch"]["kernel"]["instructions"]:
            inst.pop("reconv_pc", None)
        status, body = self._post_body(harness, twin)
        assert status == 422
        assert any(d["rule"] == "V005"
                   for d in json.loads(body)["diagnostics"])

    def test_lint_runs_before_the_cache_probe(self, daemon_factory,
                                              tmp_path):
        """A result cached outside the service (e.g. by ``gpusimpow
        run``) for a lint-ERROR kernel must not turn its 422 into a
        cache-hit 200."""
        from repro.runner import ResultCache, run_jobs
        request = self._racy_request()
        cache = ResultCache(tmp_path / "cache")
        run_jobs([request], n_jobs=1, cache=cache)
        assert cache.get(request) is not None
        harness = daemon_factory(cache=str(tmp_path / "cache"))
        status, body = self._post_raw(harness, request)
        assert status == 422
        assert json.loads(body)["error"] == "lint-rejected"
        stats = harness.client.status()["stats"]
        assert stats["cache_hits"] == 0
        assert stats["lint_rejections"] == 1

    def test_lint_off_admits_broken_kernel(self, daemon_factory):
        harness = daemon_factory(lint=False)
        harness.client.pause()
        accepted = harness.client.submit(broken_request())
        assert "submission" in accepted

    def test_quota_429(self, daemon_factory):
        harness = daemon_factory(tenant_quota=2)
        harness.client.pause()
        harness.client.submit(tiny_request())
        harness.client.submit(tiny_request(trace_interval=64.0))
        with pytest.raises(ServiceError) as err:
            harness.client.submit(tiny_request(trace_interval=32.0))
        assert err.value.status == 429
        assert harness.client.status()["stats"]["quota_rejections"] == 1

    def test_quota_is_per_tenant(self, daemon_factory):
        harness = daemon_factory(tenant_quota=1)
        harness.client.pause()
        harness.client.submit(tiny_request())
        other = ServiceClient(harness.client.base_url, tenant="other")
        accepted = other.submit(tiny_request(trace_interval=64.0))
        assert "submission" in accepted

    def test_quota_counts_live_submissions_only(self, tmp_path):
        """Deduplicated submissions count against the quota, cache hits
        do not, and a finished task's submissions stop counting."""
        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        cached = tiny_request(max_cycles=1e6)
        run_jobs([cached], n_jobs=1, cache=cache)
        first, second, third = (tiny_request(max_cycles=2e6 + i)
                                for i in range(3))

        def submit(service, request):
            return service.submit({"request": request.to_dict()})[0]

        async def body(service):
            service.pause()
            status, accepted = service.submit({"request": first.to_dict()})
            assert status == 202
            assert submit(service, first) == 202  # deduplicated: counts
            assert submit(service, second) == 429
            assert [submit(service, cached) for _ in range(3)] == \
                [200] * 3
            assert submit(service, second) == 429
            service.resume()
            assert await service.wait(accepted["submission"], timeout=120)
            service.pause()
            # The finished task's two submissions no longer count.
            assert submit(service, second) == 202
            assert submit(service, third) == 202
            assert submit(service, tiny_request(max_cycles=3e6)) == 429

        serve(body, cache=cache, max_parallel=1, tenant_quota=2)

    def test_a_failed_task_releases_its_quota(self):
        first, second = (tiny_request(max_cycles=2e6 + i)
                         for i in range(2))

        def fail(tasks, loop):
            raise RuntimeError("injected")

        async def body(service):
            service._execute_batch = fail
            status, accepted = service.submit(
                {"request": first.to_dict()})
            assert status == 202
            assert await service.wait(accepted["submission"], timeout=60)
            assert service.submission(
                accepted["submission"]).state == "failed"
            status, _ = service.submit({"request": second.to_dict()})
            assert status == 202

        serve(body, cache=None, tenant_quota=1)

    def test_queue_limit_503(self, daemon_factory):
        harness = daemon_factory(queue_limit=1, tenant_quota=8)
        harness.client.pause()
        harness.client.submit(tiny_request())
        with pytest.raises(ServiceError) as err:
            harness.client.submit(tiny_request(trace_interval=64.0))
        assert err.value.status == 503
        assert harness.client.status()["stats"]["queue_rejections"] == 1


class TestDedup:
    def test_concurrent_identical_submits_one_simulation(
            self, daemon_factory):
        """Eight clients ask for the same digest at once; exactly one
        simulation runs and every client gets bit-identical results."""
        harness = daemon_factory(tenant_quota=16)
        harness.client.pause()
        request = tiny_request()

        def submit(i):
            client = ServiceClient(harness.client.base_url,
                                   tenant=f"t{i}")
            return client.submit(request, wait=True,
                                 wait_timeout_s=120)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(submit, i) for i in range(8)]
            # Wait until all eight are queued server-side, then open
            # the gate: the batch is admitted as one in-flight task.
            deadline_stats = None
            for _ in range(200):
                deadline_stats = harness.client.status()
                if deadline_stats["stats"]["submissions"] >= 8:
                    break
                time.sleep(0.05)
            assert deadline_stats["stats"]["submissions"] >= 8
            harness.client.resume()
            responses = [f.result(timeout=120) for f in futures]

        stats = harness.client.status()["stats"]
        assert stats["simulations"] == 1
        assert stats["dedup_hits"] == 7
        # Bit-identical fan-out: every response carries the same
        # serialized result.
        blobs = {json.dumps(r["result"], sort_keys=True)
                 for r in responses}
        assert len(blobs) == 1
        assert sum(r["deduped"] for r in responses) == 7


class TestResolveOnce:
    def test_auto_cache_hit_walks_the_ladder_once(self, tmp_path):
        # Admission resolves "auto"; the digest and the cache probe
        # reuse that resolution instead of walking the ladder again.
        import sys

        from repro.backends import base
        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        request = SimRequest(config=gt240(), kernel="vectorAdd",
                             backend="auto", error_budget=0.10)
        run_jobs([request], n_jobs=1, cache=cache)
        code = base.resolve_backend.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame.f_code.co_name)

        async def submit():
            service = PowerService(cache=cache)
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                return service.submit({"request": request.to_dict()})
            finally:
                sys.setprofile(previous)

        status, payload = asyncio.run(submit())
        assert status == 200 and payload["cached"] is True
        assert payload["digest"] == request.digest()
        assert calls == ["resolve_backend"]

    @staticmethod
    def _answer(cache, request):
        """Submit ``request`` to a one-slot service; its final answer
        and the ladder work spent on it, executor threads included."""
        async def submit():
            service = PowerService(cache=cache, max_parallel=1)
            try:
                status, payload = service.submit(
                    {"request": request.to_dict()})
                if status == 202:
                    sub_id = payload["submission"]
                    assert await service.wait(sub_id, timeout=120)
                    status, payload = service.result(sub_id)
                return status, payload
            finally:
                service.close()

        with ladder_counts() as counts:
            status, payload = asyncio.run(submit())
        assert status == 200, payload
        return payload["result"], counts

    @AUTO_REQUESTS
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_each_answer_walks_the_ladder_once(self, tmp_path, request_,
                                               traced):
        from dataclasses import replace

        from repro.runner import ResultCache
        if traced:
            request_ = replace(request_, trace_interval=500.0)
        concrete, walk = one_walk(request_)
        # An estimator's store also digests its backend-stripped base
        # key, the simulation an exact run later grades it against.
        base = int(not get_backend(concrete.backend).capabilities.exact)
        cache = ResultCache(tmp_path / "cache")

        miss, counts = self._answer(cache, request_)
        assert not miss["cached"]
        assert miss["backend"] == concrete.backend
        assert counts["walks"] == 1
        if traced:
            # One walk, one digest: the traced run shares both.
            assert counts["promises"] == walk
            assert counts["signatures"] == 1 + base
        else:
            # The runner takes the concrete request and evaluates only
            # its tier's own promise; it digests it once more for its
            # own cache probe.
            assert counts["promises"] == walk + 1
            assert counts["signatures"] == 2 + base

        hit, counts = self._answer(cache, request_)
        assert hit["cached"]
        assert (hit["summary"], hit["simulation"]) == \
            (miss["summary"], miss["simulation"])
        assert counts == {"walks": 1, "promises": walk, "signatures": 1}


class TestAnswerMemo:
    """A repeated cache hit answers from the service's memo while the
    entry file keeps its stamp."""

    #: GT240 ``vectorAdd`` under a 10% budget: the surrogate answers.
    AUTO = SimRequest(config=gt240(), kernel="vectorAdd", backend="auto",
                      error_budget=0.10)

    @staticmethod
    def _hits(cache, requests, **service_kwargs):
        """Submit each request in turn to one service; every answer
        must be a cache hit.  Returns the answers and the service."""
        async def body(service):
            answers = []
            for request in requests:
                status, out = service.submit(
                    {"request": request.to_dict()})
                assert status == 200, out
                answers.append(out)
            return answers, service

        return serve(body, cache=cache, **service_kwargs)

    @staticmethod
    def _blob(answer):
        answer = dict(answer)
        del answer["submission"]
        return json.dumps(answer)

    @AUTO_REQUESTS
    def test_repeats_are_byte_equal_to_the_first_hit(self, tmp_path,
                                                     request_):
        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        plain = SimRequest(config=request_.config, kernel=request_.kernel)
        run_jobs([request_, plain], n_jobs=1, cache=cache)
        for request in (request_, plain):
            answers, _ = self._hits(cache, [request] * 3)
            fresh, _ = self._hits(cache, [request])
            blobs = {self._blob(a) for a in answers + fresh}
            assert len(blobs) == 1

    def test_two_hits_share_one_payload(self, tmp_path):
        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        run_jobs([self.AUTO], n_jobs=1, cache=cache)
        (first, second), service = self._hits(cache, [self.AUTO] * 2)
        assert first["result"] is second["result"]
        assert service.submission(first["submission"]).payload is \
            service.submission(second["submission"]).payload

    def test_a_memo_hit_reads_and_evaluates_nothing(self, tmp_path):
        import sys

        from repro.power.chip import Chip
        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        run_jobs([self.AUTO], n_jobs=1, cache=cache)
        evaluate = Chip.evaluate.__code__
        body = {"request": self.AUTO.to_dict()}

        def counted(service):
            counts = {"open": 0, "evaluate": 0}

            def profile(frame, event, arg):
                if event == "call" and frame.f_code is evaluate:
                    counts["evaluate"] += 1
                elif event == "c_call" and arg is open:
                    counts["open"] += 1

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                status, _ = service.submit(body)
            finally:
                sys.setprofile(previous)
            assert status == 200
            return counts

        async def run(service):
            return counted(service), counted(service)

        first, repeat = serve(run, cache=cache)
        assert first["open"] >= 1 and first["evaluate"] >= 1
        assert repeat == {"open": 0, "evaluate": 0}

    def test_a_cleared_cache_misses(self, tmp_path):
        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        run_jobs([self.AUTO], n_jobs=1, cache=cache)
        body = {"request": self.AUTO.to_dict()}

        async def run(service):
            assert service.submit(body)[0] == 200
            assert service.submit(body)[0] == 200
            cache.clear()
            status, accepted = service.submit(body)
            assert await service.wait(accepted["submission"], timeout=120)
            return status, service.result(accepted["submission"])[1]

        status, answer = serve(run, cache=cache, max_parallel=1)
        assert status == 202
        assert answer["cached"] is False

    def test_a_backfilled_entry_answers_its_achieved_error(self,
                                                           tmp_path):
        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        run_jobs([self.AUTO], n_jobs=1, cache=cache)
        body = {"request": self.AUTO.to_dict()}
        exact = SimRequest(config=gt240(), kernel="vectorAdd")

        async def run(service):
            before = [service.submit(body)[1]["result"] for _ in range(2)]
            # The exact run grades the surrogate entry in place.
            run_jobs([exact], n_jobs=1, cache=cache)
            return before, service.submit(body)[1]["result"]

        before, after = serve(run, cache=cache)
        assert before[0]["backend"] == "surrogate"
        assert all("achieved_error" not in b for b in before)
        assert after["achieved_error"] > 0
        assert after["summary"] == before[0]["summary"]

    def test_echoed_fields_key_the_memo(self, tmp_path):
        """Requests of one digest that echo different budgets (or none)
        get their own answers."""
        from dataclasses import replace

        from repro.runner import ResultCache, run_jobs
        cache = ResultCache(tmp_path / "cache")
        run_jobs([self.AUTO], n_jobs=1, cache=cache)
        requests = [self.AUTO, replace(self.AUTO, error_budget=0.5),
                    replace(self.AUTO, backend="surrogate",
                            error_budget=None), self.AUTO]
        answers, _ = self._hits(cache, requests)
        assert len({a["digest"] for a in answers}) == 1
        assert [a["result"].get("error_budget") for a in answers] == \
            [0.10, 0.5, None, 0.10]

    def test_the_memo_is_bounded(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from repro.runner import ResultCache, run_jobs
        from repro.service import core
        monkeypatch.setattr(core, "ANSWER_MEMO_SIZE", 2)
        cache = ResultCache(tmp_path / "cache")
        run_jobs([self.AUTO], n_jobs=1, cache=cache)
        budgets = (0.1, 0.2, 0.3, 0.4, 0.5)

        async def run(service):
            sizes = []
            for budget in budgets:
                request = replace(self.AUTO, error_budget=budget)
                assert service.submit(
                    {"request": request.to_dict()})[0] == 200
                sizes.append(len(service._answers))
            return sizes

        sizes = serve(run, cache=cache)
        assert max(sizes) == 2
        assert sizes == [1, 2, 1, 2, 1]


class TestStreaming:
    def test_stream_windows_then_result(self, daemon_factory):
        harness = daemon_factory()
        harness.client.pause()
        accepted = harness.client.submit(
            tiny_request(trace_interval=64.0))
        sub_id = accepted["submission"]
        harness.client.resume()
        events = list(harness.client.stream(sub_id))
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "result"
        assert "window" in kinds
        windows = [e for e in events if e["event"] == "window"]
        assert all(w["data"]["end_cycles"] > 0 for w in windows)
        result = events[-1]["data"]
        assert result["summary"]["chip_total_w"] > 0


def _read_answer(sock):
    """One HTTP answer off a raw socket: ``(head, body)``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before an answer"
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    length = int(next(line.split(b":", 1)[1]
                      for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:")))
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return head.decode("latin-1"), json.loads(body[:length])


def _closed_by_peer(sock, timeout_s=10.0):
    sock.settimeout(timeout_s)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class TestKeepAlive:
    def _socket(self, harness):
        import socket
        return socket.create_connection(("127.0.0.1", harness.daemon.port),
                                        timeout=30)

    def test_two_requests_on_one_socket(self, daemon_factory):
        harness = daemon_factory()
        with self._socket(harness) as sock:
            for _ in range(2):
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n"
                             b"Host: x\r\n\r\n")
                head, body = _read_answer(sock)
                assert head.startswith("HTTP/1.1 200")
                assert "Connection: keep-alive" in head
                assert body["ok"] is True

    @pytest.mark.parametrize("request_bytes,status", [
        (b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
         200),
        (b"GET /v1/healthz HTTP/1.0\r\n\r\n", 200),
        (b"GARBAGE\r\n\r\n", 400),
    ], ids=["connection-close", "http-1.0", "malformed"])
    def test_server_closes_after(self, daemon_factory, request_bytes,
                                 status):
        harness = daemon_factory()
        with self._socket(harness) as sock:
            sock.sendall(request_bytes)
            head, _ = _read_answer(sock)
            assert head.startswith(f"HTTP/1.1 {status}")
            assert "Connection: close" in head
            assert _closed_by_peer(sock)

    def test_client_reuses_one_connection(self, daemon_factory):
        harness = daemon_factory()
        client = harness.client
        client.healthz()
        sock = client._local.conn.sock
        client.status()
        client.submit(tiny_request(), wait=True)
        assert client._local.conn.sock is sock
        assert len(harness.daemon._connections) == 1

    def test_stale_connection_is_retried_once(self, daemon_factory):
        # The daemon drops the client's idle connection; the next call
        # fails before any answer byte and goes out again on a new one.
        harness = daemon_factory()
        client = harness.client
        client.healthz()
        sock = client._local.conn.sock

        async def drop_connections():
            for task in list(harness.daemon._connections):
                task.cancel()
        asyncio.run_coroutine_threadsafe(drop_connections(),
                                         harness.loop).result(timeout=30)
        deadline = time.monotonic() + 10
        while harness.daemon._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.healthz()["ok"] is True
        assert client._local.conn.sock is not sock

    def test_unreachable_daemon_raises_oserror(self):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with ServiceClient(f"http://127.0.0.1:{port}") as client:
            with pytest.raises(OSError):
                client.healthz()

    def test_stop_closes_idle_connections(self, daemon_factory, caplog):
        harness = daemon_factory()
        harness.client.healthz()
        with self._socket(harness) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            _read_answer(sock)
            with caplog.at_level("ERROR", logger="asyncio"):
                harness.stop()  # returns once every connection closed
            assert _closed_by_peer(sock)
        assert not harness.daemon._connections
        assert not caplog.records, caplog.text


class TestJournalRecovery:
    def test_replay_after_restart(self, daemon_factory, tmp_path):
        """A submission admitted but unanswered when the daemon dies
        is re-admitted -- and answered -- by the next daemon."""
        journal = str(tmp_path / "journal.jsonl")
        cache = str(tmp_path / "cache")
        first = daemon_factory(journal_path=journal, cache=cache)
        first.client.pause()  # admitted, journaled, never dispatched
        accepted = first.client.submit(tiny_request())
        sub_id = accepted["submission"]
        first.stop()

        assert len(Journal.pending(journal)) == 1
        second = daemon_factory(journal_path=journal, cache=cache)
        stats = second.client.status()["stats"]
        assert stats["replayed"] == 1
        result = second.client.wait(sub_id, timeout_s=120)
        assert result["state"] == "done"
        assert result["result"]["summary"]["chip_total_w"] > 0
        # The answer closes the journal loop: nothing pending now.
        assert Journal.pending(journal) == []

    def test_replayed_ids_never_collide(self, daemon_factory,
                                        tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        first = daemon_factory(journal_path=journal)
        first.client.pause()
        sub_id = first.client.submit(tiny_request())["submission"]
        first.stop()

        second = daemon_factory(journal_path=journal)
        fresh = second.client.submit(tiny_request(trace_interval=64.0))
        assert fresh["submission"] != sub_id

    def test_done_submissions_not_replayed(self, daemon_factory,
                                           tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        cache = str(tmp_path / "cache")
        first = daemon_factory(journal_path=journal, cache=cache)
        first.client.submit(tiny_request(), wait=True)
        first.stop()

        second = daemon_factory(journal_path=journal, cache=cache)
        assert second.client.status()["stats"]["replayed"] == 0


    def test_unresolvable_records_are_closed_not_fatal(self, tmp_path):
        """Replay resolves each record as admission would: one that no
        longer parses or resolves, or asks a backend for a capability
        it lacks, is closed as failed instead of stopping the
        restart."""
        path = tmp_path / "journal.jsonl"
        good = tiny_request().to_dict()
        journal = Journal(path)
        journal.record_submit("s000001", "t", "d1", 0,
                              dict(good, backend="nope"))
        journal.record_submit("s000002", "t", "d2", 0,
                              {"config": gt240().to_dict(),
                               "kernel": "noSuchKernel"})
        journal.record_submit("s000003", "t", "d3", 0,
                              dict(good, backend="analytical",
                                   sanitize=True))
        journal.record_submit("s000004", "t", "d4", 0, good)
        journal.record_submit("s000005", "t", "d5", 0, {"bogus": 1})
        journal.close()

        async def restart():
            service = PowerService(cache=None, journal_path=path)
            service.pause()  # keep the replayed task queued
            try:
                return service.start()
            finally:
                service.close()

        assert asyncio.run(restart()) == 1
        assert [p["sub"] for p in Journal.pending(path)] == ["s000004"]
        closed = {r["sub"]: r["status"] for r in
                  map(json.loads, path.read_text().splitlines())
                  if r["event"] == "done"}
        assert closed == {"s000001": "failed", "s000002": "failed",
                          "s000003": "failed", "s000005": "failed"}


class TestJournalFormat:
    def test_pending_skips_torn_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.record_submit("s000001", "t", "d1", 0, {"k": 1})
        journal.record_submit("s000002", "t", "d2", 0, {"k": 2})
        journal.record_done("s000001", "done")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "submit", "sub": "s0000')  # torn
        pending = Journal.pending(path)
        assert [p["sub"] for p in pending] == ["s000002"]

    def test_highest_serial(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.record_submit("s000007", "t", "d", 0, {})
        journal.record_submit("s000003", "t", "d", 0, {})
        journal.close()
        assert Journal.highest_serial(path) == 7
        assert Journal.highest_serial(tmp_path / "missing.jsonl") == 0


class TestUptimeMonotonic:
    def test_uptime_survives_wall_clock_step(self, monkeypatch):
        # An NTP step (or suspend) moves time.time() arbitrarily;
        # uptime must come from the monotonic clock and never jump
        # negative.
        from repro.service import core as service_core
        service = PowerService(cache=None)
        monkeypatch.setattr(service_core.time, "time",
                            lambda: service.started_at - 3600.0)
        status = service.status()
        assert status["uptime_s"] >= 0.0
        assert status["uptime_s"] < 60.0
        assert status["started_at"] == service.started_at

    def test_uptime_tracks_monotonic_clock(self, monkeypatch):
        from repro.service import core as service_core
        service = PowerService(cache=None)
        base = service._started_monotonic
        monkeypatch.setattr(service_core.time, "monotonic",
                            lambda: base + 42.0)
        assert service.status()["uptime_s"] == pytest.approx(42.0)


class TestGracefulShutdown:
    def _start_serve(self, journal_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        env = os.environ.copy()
        src_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--no-cache", "--journal", str(journal_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        port = None
        for line in proc.stdout:
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port, "daemon never reported its port"
        return proc, port

    def test_sigterm_mid_queue_loses_no_journal_entries(self, tmp_path):
        # Pause dispatch so submissions stay queued, then SIGTERM: the
        # daemon must exit cleanly and every admitted submission must
        # be durable (and replayable) in the journal -- no torn lines.
        import signal

        journal_path = tmp_path / "journal.jsonl"
        proc, port = self._start_serve(journal_path)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}",
                                   tenant="test")
            client.pause()
            subs = [client.submit(tiny_request(), wait=False)
                    for _ in range(3)]
            assert all(p["state"] == "queued" for p in subs)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

        lines = [line for line in
                 journal_path.read_text().splitlines() if line]
        records = [json.loads(line) for line in lines]  # none torn
        submitted = [r for r in records if r["event"] == "submit"]
        assert len(submitted) == 3
        pending = Journal.pending(journal_path)
        assert [p["sub"] for p in pending] == \
            [p["submission"] for p in subs]

    def test_sigterm_after_a_pooled_simulation_exits(self, tmp_path):
        # The simulation forks a pool worker from an executor thread;
        # SIGTERM must still end the daemon, whose exit terminates it.
        import signal

        proc, port = self._start_serve(tmp_path / "journal.jsonl")
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}",
                                   tenant="test")
            client.submit(tiny_request(), wait=True, wait_timeout_s=120)
            assert client.status()["stats"]["pooled_simulations"] == 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

    def test_sigterm_with_an_idle_keep_alive_connection(self, tmp_path):
        # A client holding its kept-alive connection open must not keep
        # the daemon from exiting.
        import signal

        proc, port = self._start_serve(tmp_path / "journal.jsonl")
        try:
            with ServiceClient(f"http://127.0.0.1:{port}") as client:
                client.healthz()
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

    def test_journal_append_after_close_is_dropped(self, tmp_path):
        # A completion racing shutdown must not raise into the
        # finishing task nor corrupt the sealed log.
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.record_submit("s000001", "t", "d1", 0, {})
        journal.close()
        journal.record_done("s000001", "done")  # no-op, no raise
        records = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["submit"]

    def test_close_ends_open_streams(self, daemon_factory):
        # close() pushes the None sentinel to live subscribers, so an
        # open SSE stream terminates instead of hanging.
        harness = daemon_factory(max_parallel=1)
        harness.service.pause()
        payload = harness.client.submit(
            tiny_request(trace_interval=500.0), wait=False)
        sub_id = payload["submission"]

        def drain():
            return list(harness.client.stream(sub_id))

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(drain)
            time.sleep(0.3)  # let the stream attach
            harness.stop()
            events = future.result(timeout=30)
        assert all(e["event"] != "result" for e in events)


def uninit_request(**overrides):
    """A kernel whose loads read never-written shared words (S001).

    Static analysis flags it only with warnings (U001), so it passes
    admission lint and reaches the simulator.
    """
    kb = KernelBuilder("svc_uninit", smem_words=16)
    t = kb.reg()
    v = kb.reg()
    kb.mov(t, Sreg("tid"))
    kb.lds(v, t)
    kb.stg(v, t)
    kb.exit()
    launch = KernelLaunch(kernel=kb.build(), grid=Dim3(1),
                          block=Dim3(16), gmem_words=64)
    fields = dict(config=gt240(), launch=launch, kernel="svc_uninit",
                  sanitize=True)
    fields.update(overrides)
    return SimRequest(**fields)


class TestSanitizedSubmissions:
    def test_findings_ride_the_result_payload(self, daemon_factory):
        harness = daemon_factory()
        response = harness.client.submit(uninit_request(), wait=True)
        sanitizer = response["result"]["sanitizer"]
        assert sanitizer["clean"] is False
        assert any(d["rule"] == "S001"
                   for d in sanitizer["diagnostics"])

    def test_clean_kernel_reports_clean(self, daemon_factory):
        harness = daemon_factory()
        response = harness.client.submit(tiny_request(sanitize=True),
                                         wait=True)
        sanitizer = response["result"]["sanitizer"]
        assert sanitizer == {"clean": True, "diagnostics": []}

    def test_unsanitized_payload_has_no_sanitizer_block(
            self, daemon_factory):
        harness = daemon_factory()
        response = harness.client.submit(tiny_request(), wait=True)
        assert "sanitizer" not in response["result"]

    def test_sanitized_never_answers_from_cache(self, daemon_factory,
                                                tmp_path):
        harness = daemon_factory(cache=str(tmp_path))
        warm = harness.client.submit(tiny_request(), wait=True)
        assert warm["cached"] is False
        hit = harness.client.submit(tiny_request(), wait=True)
        assert hit["cached"] is True
        sanitized = harness.client.submit(tiny_request(sanitize=True),
                                          wait=True)
        assert sanitized["cached"] is False
        assert sanitized["result"]["sanitizer"]["clean"] is True

    def test_unsupported_backend_rejected_400(self, daemon_factory):
        harness = daemon_factory()
        with pytest.raises(ServiceError) as err:
            harness.client.submit(
                tiny_request(backend="analytical", sanitize=True))
        assert err.value.status == 400

    def test_traced_request_on_untraceable_backend_rejected_400(
            self, daemon_factory):
        """Tracing is checked at admission like sanitizing: the request
        is refused with 400 instead of queued to fail later."""
        harness = daemon_factory()
        with pytest.raises(ServiceError) as err:
            harness.client.submit(
                tiny_request(backend="analytical", trace_interval=500.0))
        assert err.value.status == 400
        assert "does not support activity tracing" in str(err.value)
        assert harness.client.status()["stats"]["simulations"] == 0

    def test_sanitize_does_not_dedup_onto_plain_task(
            self, daemon_factory):
        # Same digest, different observer flag: the sanitized
        # submission must get its own task (and its own payload).
        harness = daemon_factory(max_parallel=1)
        harness.client.pause()
        plain = harness.client.submit(tiny_request(), wait=False)
        sanitized = harness.client.submit(tiny_request(sanitize=True),
                                          wait=False)
        assert sanitized["deduped"] is False
        harness.client.resume()
        done = harness.client.wait(sanitized["submission"])
        assert done["result"]["sanitizer"]["clean"] is True
        plain_done = harness.client.wait(plain["submission"])
        assert "sanitizer" not in plain_done["result"]


class TestPooledExecution:
    """Untraced simulations run on the runner's warm pool, one-task
    batches included, so the daemon's interpreter stays free and a
    timeout preempts the simulation."""

    def test_pooled_simulations_counts_every_untraced_run(
            self, daemon_factory):
        harness = daemon_factory()  # the default max_parallel=2
        for n in (64, 128, 192):
            launch, _, _ = build_vecadd_launch(n=n, block=64, grid=1)
            harness.client.submit(tiny_request(launch=launch), wait=True,
                                  wait_timeout_s=120)
        stats = harness.client.status()["stats"]
        assert stats["simulations"] == 3
        assert stats["pooled_simulations"] == stats["simulations"]
        assert all(type(v) is int for v in stats.values())

    def test_one_slot_simulates_in_the_daemon(self, daemon_factory):
        harness = daemon_factory(max_parallel=1)
        harness.client.submit(tiny_request(), wait=True,
                              wait_timeout_s=120)
        stats = harness.client.status()["stats"]
        assert stats["simulations"] == 1
        assert stats["pooled_simulations"] == 0

    def test_timeout_preempts_a_slow_labelled_request(
            self, daemon_factory):
        budget, slack = 0.4, 0.6
        harness = daemon_factory(timeout_s=budget)
        slow = SimRequest(config=gt240(), kernel="matrixMul")  # ~2.5 s
        accepted = harness.client.submit(slow)
        health_s = []
        while harness.client.status()["running_tasks"]:
            start = time.monotonic()
            assert harness.client.healthz()["ok"] is True
            health_s.append(time.monotonic() - start)
            time.sleep(0.05)
        with pytest.raises(ServiceError) as err:
            harness.client.wait(accepted["submission"], timeout_s=60)
        assert err.value.status == 500
        failure = err.value.payload["failure"]
        assert failure["kind"] == "timeout"
        assert failure["attempts"] == 3
        assert all(d < budget + slack
                   for d in failure["attempt_durations"])
        assert health_s and max(health_s) < 0.5
