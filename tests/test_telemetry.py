"""Tests for the windowed power-tracing telemetry layer.

The load-bearing property: per-window activity deltas summed over a
complete trace reconstruct the kernel's aggregate ActivityReport
*bit-identically*, field by field, for any workload and window length --
and tracing never perturbs simulation results.
"""

import json
import math

import pytest

from repro.backends import CYCLE
from repro.core import GPUSimPow
from repro.request import SimRequest
from repro.runner import JobResult, SimJob, run_jobs
from repro.runner.cache import ResultCache, request_key
from repro.sim.activity import ActivityReport
from repro.sim.gpu import SimulationOutput, simulate
from repro.telemetry import (ActivityTracer, CollectingSink, NullSink,
                             PowerTrace, TraceSink, chrome_trace, render_trace,
                             sparkline, sum_windows, windows_from_dicts,
                             windows_to_dicts)
from repro.telemetry.sink import BoundaryRecorder
from repro.workloads import build_benchmark

from tests.conftest import build_vecadd_launch

#: (workload label, trace intervals) pairs exercised by the property
#: tests -- chosen to cover single- and multi-window traces, boundary
#: alignment and a partial final window.
SUITE = ["vectorAdd", "scalarProd", "BlackScholes"]
INTERVALS = [100.0, 500.0, 1333.0, 1e9]


@pytest.fixture(scope="module")
def traced_runs(gt240_config, launches):
    """(kernel, interval) -> traced SimulationOutput, simulated once."""
    runs = {}
    for kernel in SUITE:
        for interval in INTERVALS:
            tracer = ActivityTracer(interval)
            runs[kernel, interval] = simulate(
                gt240_config, launches[kernel], tracer=tracer)
    return runs


@pytest.fixture(scope="module")
def untraced_runs(gt240_config, launches):
    return {kernel: simulate(gt240_config, launches[kernel])
            for kernel in SUITE}


class TestWindowInvariant:
    @pytest.mark.parametrize("kernel", SUITE)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_summed_windows_equal_aggregate_bit_identically(
            self, traced_runs, gt240_config, kernel, interval):
        out = traced_runs[kernel, interval]
        recon = sum_windows(out.windows, gt240_config)
        for name, value in out.activity.to_dict().items():
            assert getattr(recon, name) == value, (kernel, interval, name)

    @pytest.mark.parametrize("kernel", SUITE)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_tracing_does_not_perturb_results(
            self, traced_runs, untraced_runs, kernel, interval):
        traced = traced_runs[kernel, interval]
        untraced = untraced_runs[kernel]
        assert traced.activity.to_dict() == untraced.activity.to_dict()
        assert traced.cycles == untraced.cycles
        assert (traced.gmem == untraced.gmem).all()

    @pytest.mark.parametrize("kernel", SUITE)
    def test_windows_tile_the_run(self, traced_runs, kernel):
        out = traced_runs[kernel, 500.0]
        windows = out.windows
        assert windows[0].start_cycles == 0.0
        assert windows[-1].end_cycles == out.cycles
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start_cycles == prev.end_cycles
            assert cur.index == prev.index + 1
            assert cur.end_cycles > cur.start_cycles
            # occupancy is cumulative, hence monotone
            assert cur.active_cores >= prev.active_cores
            assert cur.active_clusters >= prev.active_clusters

    def test_huge_interval_gives_single_window(self, traced_runs):
        out = traced_runs["vectorAdd", 1e9]
        assert len(out.windows) == 1
        assert out.windows[0].activity.to_dict() == out.activity.to_dict()

    def test_sum_of_empty_is_zero_report(self, gt240_config):
        total = sum_windows([], gt240_config)
        assert total.to_dict() == ActivityReport().to_dict()

    def test_multi_kernel_sequence_traces_each_kernel(self, gt240_config):
        outs = CYCLE.simulate_sequence(gt240_config,
                                       build_benchmark("bfs"),
                                       tracer=ActivityTracer(500.0))
        assert len(outs) > 1
        for out in outs:
            assert out.windows
            recon = sum_windows(out.windows, gt240_config)
            assert recon.to_dict() == out.activity.to_dict()


class TestTracer:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            ActivityTracer(0.0)
        with pytest.raises(ValueError, match="positive"):
            ActivityTracer(-5.0)

    def test_sink_receives_every_window_in_order(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        sink = CollectingSink()
        out = simulate(gt240_config, launch,
                       tracer=ActivityTracer(200.0, sink=sink))
        assert [w.index for w in sink.windows] == \
            list(range(len(out.windows)))
        assert [w.to_dict() for w in sink.windows] == \
            [w.to_dict() for w in out.windows]

    def test_sink_begin_and_end_hooks(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        calls = []

        class Probe(TraceSink):
            def on_begin(self, config, lnch, interval_cycles):
                calls.append(("begin", config.name, interval_cycles))

            def on_end(self, aggregate, cycles):
                calls.append(("end", cycles))

        out = simulate(gt240_config, launch,
                       tracer=ActivityTracer(200.0, sink=Probe()))
        assert calls[0] == ("begin", gt240_config.name, 200.0)
        assert calls[-1] == ("end", out.cycles)

    def test_null_sink_is_inert(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        out = simulate(gt240_config, launch,
                       tracer=ActivityTracer(200.0, sink=NullSink()))
        assert out.windows

    def test_tracer_reusable_across_executions(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        tracer = ActivityTracer(200.0)
        first = simulate(gt240_config, launch, tracer=tracer)
        second = simulate(gt240_config, launch, tracer=tracer)
        # begin() re-arms: the second run's windows stand alone and the
        # first run's list is not clobbered.
        assert first.windows is not second.windows
        assert [w.to_dict() for w in first.windows] == \
            [w.to_dict() for w in second.windows]


class _FakeCounter:
    """One monotone event count standing in for the engine's collector."""

    def __init__(self):
        self.events = 0

    def snapshot(self, t):
        return ActivityReport(shader_cycles=t, runtime_s=t * 1e-9,
                              issued_instructions=self.events)


def _pop(tracer, counter, times):
    """Pop one counted event at each of ``times`` the way
    ``ShardEngine.step_epoch`` does: cut first, then count."""
    for now in times:
        if now > tracer.next_boundary:
            tracer.cut(now)
        counter.events += 1


class TestCutterRules:
    """The window-boundary rules of the one cutter, on a fake clock."""

    def test_event_on_a_boundary_belongs_to_the_window_it_closes(self):
        counter = _FakeCounter()
        tracer = ActivityTracer(10.0)
        tracer.begin(counter.snapshot)
        _pop(tracer, counter, [5.0, 10.0, 15.0])
        windows = tracer.finish(15.0, counter.snapshot(15.0))
        assert [(w.start_cycles, w.end_cycles) for w in windows] == \
            [(0.0, 10.0), (10.0, 15.0)]
        assert [w.activity.issued_instructions for w in windows] == [2, 1]

    def test_cut_through_closes_the_limit_but_cut_does_not(self):
        counter = _FakeCounter()
        tracer = ActivityTracer(10.0)
        tracer.begin(counter.snapshot)
        tracer.cut(10.0)
        assert tracer.windows == [] and tracer.next_boundary == 10.0
        tracer.cut_through(10.0)
        assert [w.end_cycles for w in tracer.windows] == [10.0]
        assert tracer.next_boundary == 20.0

    def test_shard_recorder_records_the_streaming_boundaries(self):
        times = [3.0, 10.0, 10.0, 17.0, 20.0, 31.0, 45.0]
        counter = _FakeCounter()
        stream = ActivityTracer(10.0)
        stream.begin(counter.snapshot)
        _pop(stream, counter, times)
        windows = stream.finish(45.0, counter.snapshot(45.0))

        counter = _FakeCounter()
        recorder = BoundaryRecorder(10.0)
        recorder.begin(counter.snapshot)
        for start, horizon in ((0.0, 25.0), (25.0, 45.0)):  # two epochs
            _pop(recorder, counter,
                 [t for t in times if start < t <= horizon])
            recorder.cut_through(horizon)
        assert recorder.windows == []
        assert len(recorder.boundaries) == len(windows) - 1
        cumulative = 0
        for w, (boundary, report) in zip(windows, recorder.boundaries):
            cumulative += w.activity.issued_instructions
            assert boundary == w.end_cycles
            assert report.issued_instructions == cumulative


class TestSerialization:
    def test_window_round_trip_is_exact(self, traced_runs, gt240_config):
        out = traced_runs["BlackScholes", 500.0]
        back = windows_from_dicts(
            json.loads(json.dumps(windows_to_dicts(out.windows))))
        assert sum_windows(back, gt240_config).to_dict() == \
            out.activity.to_dict()
        assert [w.to_dict() for w in back] == \
            [w.to_dict() for w in out.windows]

    def test_power_trace_round_trip(self, traced_runs, gt240_config):
        out = traced_runs["BlackScholes", 500.0]
        trace = PowerTrace.from_windows(gt240_config, "BlackScholes",
                                        out.windows, 500.0)
        back = PowerTrace.from_json(trace.to_json())
        assert back.to_dict() == trace.to_dict()
        assert back.total_activity().to_dict() == out.activity.to_dict()

    def test_simulation_result_round_trip(self, gt240_config, launches):
        sim = GPUSimPow(gt240_config)
        result = sim.run(SimRequest(config=gt240_config,
                                    launch=launches["BlackScholes"],
                                    trace_interval=500.0))
        back = type(result).from_json(result.to_json())
        assert back.to_dict() == result.to_dict()
        assert back.runtime_s == result.runtime_s
        assert back.card_total_w == result.card_total_w
        assert back.trace is not None


class TestPowerTrace:
    @pytest.fixture(scope="class")
    def trace(self, traced_runs, gt240_config):
        out = traced_runs["BlackScholes", 500.0]
        return PowerTrace.from_windows(gt240_config, "BlackScholes",
                                       out.windows, 500.0)

    def test_samples_cover_runtime(self, trace, traced_runs):
        out = traced_runs["BlackScholes", 500.0]
        assert trace.n_windows == len(out.windows)
        assert trace.duration_s == out.activity.runtime_s
        for s in trace.samples:
            assert s.end_s > s.start_s
            assert s.chip_total_w > 0

    def test_energy_consistent_with_samples(self, trace):
        total = sum(s.card_w * (s.end_s - s.start_s)
                    for s in trace.samples)
        assert math.isclose(trace.energy_j, total, rel_tol=1e-12)
        assert trace.peak_card_w >= trace.mean_card_w > 0

    def test_component_breakdown_present(self, trace):
        names = trace.component_names()
        assert "Cores" in names and "DRAM" in names
        for name in names:
            assert len(trace.component_watts(name)) == trace.n_windows

    def test_chrome_trace_loads_and_has_counters(self, trace):
        data = json.loads(json.dumps(chrome_trace(trace)))
        events = data["traceEvents"]
        assert any(e.get("ph") == "C" for e in events)
        assert any(e.get("ph") == "X" for e in events)
        counters = [e for e in events if e.get("ph") == "C"
                    and e["name"] == "card power (W)"]
        assert len(counters) == trace.n_windows

    def test_render_and_sparkline(self, trace):
        text = render_trace(trace)
        assert "BlackScholes" in text and "card power" in text
        assert len(sparkline([1.0, 2.0, 3.0], width=3)) == 3
        assert sparkline([], width=10) == ""
        assert sparkline([5.0] * 4) == "===="  # flat series: mid-level


class TestRunnerIntegration:
    def test_traced_job_round_trips_through_cache(self, gt240_config,
                                                  tmp_path):
        launch, _, _ = build_vecadd_launch()
        cache = ResultCache(tmp_path / "cache")
        job = SimJob(config=gt240_config, kernel="tiny", launch=launch,
                     trace_interval=200.0)
        first, = run_jobs([job], n_jobs=1, cache=cache)
        assert not first.cached and first.windows
        second, = run_jobs([job], n_jobs=1, cache=cache)
        assert second.cached
        assert [w.to_dict() for w in second.windows] == \
            [w.to_dict() for w in first.windows]
        assert second.activity.to_dict() == first.activity.to_dict()

    def test_trace_interval_separates_cache_keys(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        plain = SimJob(config=gt240_config, launch=launch)
        traced = SimJob(config=gt240_config, launch=launch,
                        trace_interval=200.0)
        other = SimJob(config=gt240_config, launch=launch,
                       trace_interval=400.0)
        assert request_key(plain) != request_key(traced) != request_key(other)

    def test_untraced_job_key_unchanged_by_telemetry_field(
            self, gt240_config):
        # trace_interval=None must not enter the payload: keys (and all
        # pre-existing cache entries) stay exactly as before this field
        # existed.
        launch, _, _ = build_vecadd_launch()
        job = SimJob(config=gt240_config, launch=launch)
        assert job.trace_interval is None
        assert request_key(job) == request_key(
            SimJob(config=gt240_config, launch=launch,
                   trace_interval=None))

    def test_pooled_and_serial_windows_identical(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        jobs = [SimJob(config=gt240_config, launch=launch,
                       trace_interval=200.0, tag=f"j{i}")
                for i in range(2)]
        serial = run_jobs(jobs, n_jobs=1, cache=None)
        pooled = run_jobs(jobs, n_jobs=2, cache=None)
        for a, b in zip(serial, pooled):
            assert [w.to_dict() for w in a.windows] == \
                [w.to_dict() for w in b.windows]

    def test_rejects_nonpositive_trace_interval(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        with pytest.raises(ValueError, match="positive"):
            SimJob(config=gt240_config, launch=launch, trace_interval=0.0)


def _job(config, launch, activity, windows=None) -> JobResult:
    """A finished job holding ``activity``, as the runner returns it."""
    return JobResult(job=SimRequest(config=config, launch=launch),
                     activity=activity, cycles=activity.shader_cycles,
                     windows=windows)


class TestReplay:
    def test_replay_threads_real_runtime(self, gt240_config, launches):
        """Replaying a JobResult must not rederive runtime from shader
        cycles -- a report with a foreign runtime keeps it."""
        sim = GPUSimPow(gt240_config)
        launch = launches["BlackScholes"]
        base = sim.run(launch)
        doctored = ActivityReport.from_dict(base.activity.to_dict())
        doctored.runtime_s = base.runtime_s * 3.0
        replayed = sim.run(_job(gt240_config, launch, doctored))
        assert replayed.runtime_s == doctored.runtime_s
        assert math.isclose(replayed.energy_j,
                            replayed.card_total_w * doctored.runtime_s,
                            rel_tol=1e-12)

    def test_replay_fabricates_no_memory_image(self, gt240_config,
                                               launches):
        sim = GPUSimPow(gt240_config)
        launch = launches["BlackScholes"]
        replayed = sim.run(_job(gt240_config, launch,
                                sim.run(launch).activity))
        assert replayed.performance.gmem is None

    def test_replay_with_windows_builds_trace(self, gt240_config,
                                              launches):
        sim = GPUSimPow(gt240_config)
        launch = launches["BlackScholes"]
        fresh = sim.run(SimRequest(config=gt240_config, launch=launch,
                                   trace_interval=500.0))
        replayed = sim.run(_job(gt240_config, launch, fresh.activity,
                                fresh.performance.windows))
        assert replayed.trace is not None
        assert replayed.trace.to_dict()["samples"] == \
            fresh.trace.to_dict()["samples"]

    def test_replay_classmethod(self, gt240_config, launches):
        out = SimulationOutput.replay(gt240_config, None,
                                      ActivityReport())
        assert out.gmem is None and out.cycles == 0.0
