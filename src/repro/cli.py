"""Command-line interface: ``python -m repro`` / ``gpusimpow``.

The paper positions GPUSimPow as a tool for two audiences -- architects
exploring configurations and programmers profiling kernels.  The CLI
serves both from a shell:

    gpusimpow run BlackScholes --gpu GT240 --profile
    gpusimpow run matrixMul --gpu GTX580 --save-trace trace.json
    gpusimpow run heartwall --gpu GTX580 --backend analytical
    gpusimpow run needle --gpu GT240 --sanitize
    gpusimpow fuzz --seed 1337 --count 200 --budget-s 120
    gpusimpow power --gpu GT240 --trace trace.json
    gpusimpow arch --gpu GTX580
    gpusimpow list
    gpusimpow arch --config my_gpu.xml
    gpusimpow validate --gpu GT240 --jobs 4
    gpusimpow validate --gpu GTX580 --no-cache
    gpusimpow cache stats
    gpusimpow cache clear --yes
    gpusimpow serve --port 8642 --journal service.jsonl
    gpusimpow submit vectorAdd --gpu GT240 --wait --json
    gpusimpow fleet --gpus 2xGTX580,2xGT240 --requests 1000

``run`` and ``validate`` execute their simulations through
:mod:`repro.runner`: ``--jobs N`` fans the per-kernel simulations out
over N worker processes, and results are cached on disk by content
(``--no-cache`` opts out).  With the default ``cycle`` backend, results
are bit-identical across all execution paths, so the runner flags only
change speed, never numbers; ``--backend`` swaps the performance model
itself (see ``repro.backends``) and caches per backend.
"""

from __future__ import annotations

import argparse
import sys
from math import isfinite
from typing import Optional

from .core.gpusimpow import GPUSimPow
from .request import SimRequest
from .runner.cache import ResultCache
from .runner.engine import run_jobs
from .runner.job import JobFailure
from .sim.activity import ActivityReport
from .sim.config import GPUConfig, preset
from .workloads import all_kernel_launches, benchmark_info, benchmark_names


def _load_config(args) -> GPUConfig:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            return GPUConfig.from_xml(handle.read())
    return preset(args.gpu)


def _runner_options(args):
    """(jobs, cache, progress, timeout) for runner-backed subcommands.

    The CLI caches by default (``--no-cache`` opts out); progress lines
    go to stderr, and only when a pool is actually in play, so stdout
    stays machine-parseable.  Failed jobs report too (kind + attempt
    count), so a watcher of ``(done, total)`` never sees a stalled
    sweep.
    """
    jobs = getattr(args, "jobs", None)
    cache = None if getattr(args, "no_cache", False) else ResultCache()
    timeout = getattr(args, "timeout", None)
    progress = None
    if jobs is not None and jobs > 1:
        def progress(done, total, outcome):
            if isinstance(outcome, JobFailure):
                tag = (f"FAILED: {outcome.kind} after "
                       f"{outcome.attempts} attempt(s)")
            elif outcome.cached:
                tag = "cached"
            else:
                tag = f"{outcome.duration_s:.2f}s"
                if outcome.attempts > 1:
                    tag += f", {outcome.attempts} attempts"
            print(f"  [{done}/{total}] {outcome.label} ({tag})",
                  file=sys.stderr)
    return jobs, cache, progress, timeout


def _check_backend(name: str) -> int:
    """0 when ``name`` is registered (or 'auto'), else prints the
    choices and 2."""
    from .backends.base import AUTO_BACKEND, list_backends
    if name != AUTO_BACKEND and name not in list_backends():
        print(f"unknown backend {name!r}; "
              f"registered: {', '.join(list_backends())} "
              f"(or '{AUTO_BACKEND}')", file=sys.stderr)
        return 2
    return 0


def _check_error_budget(args) -> int:
    """0 when --error-budget is absent, or is a valid fraction riding
    a backend that honors it (``auto``).

    Rejects non-finite (NaN/inf) and out-of-range values here, with a
    clean message and exit code 2, instead of letting them reach
    ``SimRequest`` construction as a traceback.
    """
    budget = getattr(args, "error_budget", None)
    if budget is None:
        return 0
    if not isfinite(budget) or not 0.0 <= budget <= 1.0:
        print(f"--error-budget must be a finite fraction in [0, 1], "
              f"got {budget!r}", file=sys.stderr)
        return 2
    if getattr(args, "backend", "auto") != "auto":
        print("--error-budget requires --backend auto", file=sys.stderr)
        return 2
    return 0


def _known_kernel(label: str) -> bool:
    """True for a workload kernel label; else prints a hint."""
    if label in all_kernel_launches():
        return True
    print(f"unknown kernel {label!r}; try `gpusimpow list`",
          file=sys.stderr)
    return False


def _request_from_args(args) -> Optional[SimRequest]:
    """The :class:`SimRequest` that ``run``/``submit`` flags describe.

    ``None`` (after printing why) when the flags are unusable: an
    unknown kernel or backend, a bad ``--error-budget``, tracing or
    sanitizing on a backend that cannot, or ``parallel_cycle`` tuning
    on another backend.
    """
    if not _known_kernel(args.kernel) or _check_backend(args.backend) \
            or _check_error_budget(args):
        return None
    if args.backend != "auto":
        # (auto resolution itself narrows to tracing-capable tiers)
        from .backends.base import get_backend
        caps = get_backend(args.backend).capabilities
        for flag, asked, able in (
                ("--trace-interval", args.trace_interval is not None,
                 caps.supports_tracing),
                ("--sanitize", args.sanitize, caps.supports_sanitize)):
            if asked and not able:
                print(f"backend {args.backend!r} does not support "
                      f"{flag}", file=sys.stderr)
                return None
    backend_options = None
    epoch_cycles = getattr(args, "epoch_cycles", None)
    shards = getattr(args, "shards", None)
    if epoch_cycles is not None or shards is not None:
        if args.backend != "parallel_cycle":
            print("--epoch-cycles/--shards only apply to "
                  "--backend parallel_cycle", file=sys.stderr)
            return None
        backend_options = {}
        if epoch_cycles is not None:
            backend_options["epoch_cycles"] = epoch_cycles
        if shards is not None:
            backend_options["n_shards"] = shards
    return SimRequest(config=_load_config(args), kernel=args.kernel,
                      trace_interval=args.trace_interval,
                      backend=args.backend,
                      backend_options=backend_options,
                      error_budget=args.error_budget,
                      sanitize=args.sanitize)


def _cmd_list(args) -> int:
    print(f"{'benchmark':<14s}{'kernels':>8s}  {'origin':<10s}description")
    for name in benchmark_names():
        info = benchmark_info(name)
        print(f"{info.name:<14s}{info.n_kernels:>8d}  {info.origin:<10s}"
              f"{info.description}")
    print("\nkernel labels:", ", ".join(sorted(all_kernel_launches())))
    from .backends.base import all_backends
    print("backends:", ", ".join(
        f"{name} (v{b.version}{', exact' if b.capabilities.exact else ''})"
        for name, b in sorted(all_backends().items())))
    return 0


def _ladder_table() -> str:
    """The fidelity ladder, one row per backend (cheapest tier first)."""
    from .backends.base import escalation_path, ladder
    auto_names = {b.name for b in escalation_path()}
    lines = [f"{'tier':>4s}  {'backend':<16s}{'version':<9s}"
             f"{'exp.error':>9s}  {'rel.cost':>8s}  capabilities"]
    for backend in ladder():
        info = backend.info
        caps = []
        if info.capabilities.exact:
            caps.append("exact")
        if info.capabilities.supports_tracing:
            caps.append("tracing")
        if backend.name in auto_names:
            caps.append("auto")
        error = ("exact" if info.expected_error == 0.0
                 else f"{info.expected_error:.0%}")
        lines.append(f"{info.tier:>4d}  {backend.name:<16s}"
                     f"{str(backend.version):<9s}{error:>9s}  "
                     f"{info.relative_cost:>8g}  "
                     f"{', '.join(caps) or '-'}")
        if info.description:
            lines.append(f"{'':6s}{info.description}")
    return "\n".join(lines)


class _VersionAction(argparse.Action):
    """``--version`` with the ladder appended, bypassing help reflow."""

    def __init__(self, option_strings, dest, **kwargs):
        kwargs["nargs"] = 0
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from . import SIM_VERSION, __version__
        print(f"gpusimpow {__version__} (sim {SIM_VERSION})")
        print()
        print("backend fidelity ladder:")
        print(_ladder_table())
        parser.exit()


def _cmd_backends(args) -> int:
    """Print the backend fidelity ladder."""
    print(_ladder_table())
    print()
    print("`--backend auto` picks the cheapest auto-eligible tier whose")
    print("promised error fits `--error-budget` (default 0.0: exact).")
    return 0


def _cmd_arch(args) -> int:
    config = _load_config(args)
    arch = GPUSimPow(config).architecture()
    print(f"{arch.name}")
    print(f"  area:          {arch.area_mm2:8.1f} mm^2")
    print(f"  static power:  {arch.static_power_w:8.2f} W")
    print(f"  peak dynamic:  {arch.peak_dynamic_w:8.1f} W")
    return 0


def _cmd_run(args) -> int:
    request = _request_from_args(args)
    if request is None:
        return 2
    config = request.config
    if isinstance(args.profile, str):
        # Profile the simulation itself: in this process and uncached
        # (a cache hit or a worker-side run would leave nothing to
        # measure).
        import cProfile
        profiler = cProfile.Profile()
        with profiler:
            job, = run_jobs([request], n_jobs=1, cache=None)
        profiler.dump_stats(args.profile)
    else:
        jobs, cache, progress, timeout = _runner_options(args)
        job, = run_jobs([request], n_jobs=jobs, cache=cache,
                        progress=progress, timeout_s=timeout)
    used, promised = job.backend, job.promised_error
    result = GPUSimPow(config).run(job)
    if args.backend == "auto":
        suffix = (f" (auto -> {used} backend, promised error "
                  f"{promised:.1%})")
    else:
        suffix = "" if used == "cycle" else f" ({used} backend)"
    print(f"{args.kernel} on {config.name}{suffix}:")
    print(f"  runtime:       {result.runtime_s * 1e6:10.2f} us "
          f"({result.performance.cycles:.0f} shader cycles, "
          f"IPC {result.performance.ipc:.2f})")
    print(f"  chip power:    {result.chip_total_w:10.2f} W "
          f"({result.chip_static_w:.2f} static + "
          f"{result.chip_dynamic_w:.2f} dynamic)")
    print(f"  DRAM power:    {result.power.dram.total_dynamic_w:10.2f} W")
    print(f"  energy/run:    {result.energy_j * 1e6:10.3f} uJ")
    if args.sanitize:
        if job.diagnostics:
            print(f"  sanitizer:     {len(job.diagnostics)} finding(s)")
            for d in job.diagnostics:
                print(f"    {d.format()}")
        else:
            print("  sanitizer:     clean (no findings)")
    if args.profile is True:
        print()
        print(result.power.gpu.format())
        print(result.power.dram.format())
    elif isinstance(args.profile, str):
        print(f"  cProfile stats written to {args.profile}")
    if result.trace is not None:
        from .telemetry.export import render_trace
        print()
        print(render_trace(result.trace))
    if args.trace_out:
        if result.trace is None:
            print("--trace-out needs --trace-interval", file=sys.stderr)
            return 2
        from .telemetry.export import write_chrome_trace, write_trace_json
        if args.trace_format == "chrome":
            write_chrome_trace(result.trace, args.trace_out)
        else:
            write_trace_json(result.trace, args.trace_out)
        print(f"  power trace ({args.trace_format}) written to "
              f"{args.trace_out}")
    if args.save_trace:
        with open(args.save_trace, "w", encoding="utf-8") as handle:
            handle.write(result.activity.to_json())
        print(f"  activity trace written to {args.save_trace}")
    return 0


def _cmd_analyze(args) -> int:
    """Utilization + efficiency analysis of one kernel (the programmer
    view: where do the cycles and joules go?)."""
    config = _load_config(args)
    if not _known_kernel(args.kernel):
        return 2
    from .core.metrics import EfficiencyMetrics, UtilizationMetrics
    result = GPUSimPow(config).run(all_kernel_launches()[args.kernel])
    eff = EfficiencyMetrics.from_result(result)
    util = UtilizationMetrics.from_result(result)
    print(f"{args.kernel} on {config.name}:")
    print(f"  IPC {util.ipc:.2f}   occupancy {util.core_occupancy:.1%}   "
          f"coalescing {util.coalescing_efficiency:.1f} lanes/txn")
    print(f"  hit rates: L1 {util.l1_hit_rate:.1%}  "
          f"const {util.const_hit_rate:.1%}  L2 {util.l2_hit_rate:.1%}")
    print(f"  divergence {util.divergence_rate:.1%} of branches   "
          f"smem conflicts {util.smem_conflict_rate:.2f} extra phases/access")
    print("  stall breakdown: " + "  ".join(
        f"{k} {v:.0%}" for k, v in util.stall_breakdown.items() if v > 0))
    print(f"  energy {eff.energy_j * 1e6:.2f} uJ   "
          f"EDP {eff.edp_js * 1e9:.3f} nJ*s   "
          f"{eff.gflops_per_watt:.2f} GFLOPS/W   "
          f"{eff.energy_per_instruction_j * 1e9:.2f} nJ/instr")
    return 0


def _cmd_lint(args) -> int:
    """Static analysis of workload kernels (verifier, races, lints).

    With ``--strict`` the exit code is 1 when any kernel has
    error-severity diagnostics (the CI gate); without it the command
    is informational and always exits 0.
    """
    from .analysis import analyze_launch
    from .analysis.diagnostics import Severity, diagnostics_to_json
    config = _load_config(args)
    launches = all_kernel_launches()
    if args.kernels:
        wanted = args.kernels.split(",")
        unknown = [k for k in wanted if k not in launches]
        if unknown:
            print(f"unknown kernel(s) {unknown}; try `gpusimpow list`",
                  file=sys.stderr)
            return 2
        launches = {k: launches[k] for k in wanted}
    min_sev = Severity.parse(args.min_severity)
    all_diags = []
    failed = False
    for label in sorted(launches):
        result = analyze_launch(launches[label], config)
        diags = [d for d in result.diagnostics if d.severity >= min_sev]
        all_diags.extend(diags)
        errors = sum(d.severity >= Severity.ERROR
                     for d in result.diagnostics)
        if errors:
            failed = True
        if args.format == "text":
            warnings = sum(d.severity == Severity.WARNING
                           for d in result.diagnostics)
            status = "FAIL" if errors else "ok"
            print(f"{status:>4s} {label}: {errors} error(s), "
                  f"{warnings} warning(s)")
            for d in diags:
                print(f"     {d.format()}")
    if args.format == "json":
        print(diagnostics_to_json(all_diags))
    if failed and args.strict:
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    """Fuzz the simulator + grade the static analyzer.

    Generates a seeded corpus of random mini-ISA kernels, runs every
    kernel on the cycle engine (sanitized) and the functional
    reference, requires bit-exact agreement, and grades the static
    R/M/U rules against the sanitizer's dynamic ground truth.  Exit
    code 1 when a gate fails (any differential mismatch, or a
    dynamically observed race the analyzer missed) -- the CI contract.
    """
    import json as _json

    from .analysis.fuzz import format_report, run_fuzz
    config = _load_config(args)

    def progress(done, total):
        if done % 50 == 0 or done == total:
            print(f"  [{done}/{total}] kernels verified",
                  file=sys.stderr)

    report = run_fuzz(seed=args.seed, count=args.count,
                      budget_s=args.budget_s, config=config,
                      progress=progress if args.count >= 100 else None)
    print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            _json.dump(report.to_dict(), handle, sort_keys=True,
                       indent=2)
        print(f"[wrote {args.out}]", file=sys.stderr)
    return 0 if report.gates["ok"] else 1


def _cmd_power(args) -> int:
    """Re-run only the power model on a saved activity trace."""
    config = _load_config(args)
    with open(args.trace, "r", encoding="utf-8") as handle:
        activity = ActivityReport.from_json(handle.read())
    from .power.chip import Chip
    report = Chip(config).evaluate(activity)
    print(report.gpu.format())
    print(report.dram.format())
    print(f"chip total {report.chip_total_w:.2f} W, "
          f"card total {report.card_total_w:.2f} W")
    return 0


def _cmd_disasm(args) -> int:
    """Print the instruction listing of a workload kernel."""
    if not _known_kernel(args.kernel):
        return 2
    print(all_kernel_launches()[args.kernel].kernel.disassemble())
    return 0


def _cmd_experiments(args) -> int:
    """Regenerate paper artifacts through the experiment registry."""
    from .experiments import all_experiments
    experiments = all_experiments()
    if args.list:
        width = max(len(n) for n in experiments)
        for name, exp in experiments.items():
            print(f"{name:<{width}s}  {exp.description}")
        return 0
    names = args.names or list(experiments)
    unknown = [n for n in names if n not in experiments]
    if unknown:
        print(f"unknown experiment(s) {unknown}; "
              f"have {sorted(experiments)}", file=sys.stderr)
        return 2
    from .runner.engine import (set_default_cache, set_default_jobs,
                                set_default_timeout)
    if args.jobs is not None:
        set_default_jobs(args.jobs)
    if args.timeout is not None:
        set_default_timeout(args.timeout)
    set_default_cache(None if args.no_cache else ResultCache())
    for name in names:
        print(f"===== {name} =====")
        written = experiments[name].run(out_dir=args.out_dir, echo=True)
        for path in written:
            print(f"[wrote {path}]")
        print()
    return 0


def _cmd_cache(args) -> int:
    """Inspect or clear the on-disk activity result cache."""
    cache = ResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"location: {stats['location']}")
        print(f"entries:  {stats['entries']}")
        print(f"size:     {stats['bytes']} bytes "
              f"({stats['bytes'] / 1e6:.2f} MB)")
        print(f"orphans:  {stats['orphans']} interrupted-write temp "
              f"file(s) ({stats['orphan_bytes']} bytes)")
        for name, count in stats.get("backends", {}).items():
            print(f"  backend {name}: {count} entr"
                  f"{'y' if count == 1 else 'ies'}")
        return 0
    # clear
    stats = cache.stats()
    if stats["entries"] == 0 and stats["orphans"] == 0:
        print(f"cache at {stats['location']} is already empty")
        return 0
    if not args.yes:
        prompt = (f"remove {stats['entries']} cached results "
                  f"({stats['bytes'] / 1e6:.2f} MB) and "
                  f"{stats['orphans']} orphaned temp file(s) from "
                  f"{stats['location']}? [y/N] ")
        answer = input(prompt).strip().lower()
        if answer not in ("y", "yes"):
            print("aborted")
            return 1
    removed = cache.clear()
    print(f"removed {removed} entries and {stats['orphans']} orphaned "
          f"temp file(s) from {stats['location']}")
    return 0


def _cmd_validate(args) -> int:
    from .core.validation import validate_suite
    if _check_backend(args.backend) or _check_error_budget(args):
        return 2
    names = args.kernels.split(",") if args.kernels else None
    jobs, cache, progress, timeout = _runner_options(args)
    suite = validate_suite(_load_config(args), kernel_names=names,
                           jobs=jobs, cache=cache, progress=progress,
                           backend=args.backend,
                           error_budget=args.error_budget,
                           timeout_s=timeout)
    print(f"{suite.gpu}: avg relative error "
          f"{suite.average_relative_error * 100:.1f}%, "
          f"dynamic-only {suite.average_dynamic_error * 100:.1f}%, "
          f"max {suite.max_relative_error * 100:.1f}% "
          f"({suite.worst_kernel})")
    for k in suite.kernels:
        tag = "over " if k.overestimated else "under"
        print(f"  {k.kernel:<14s} sim {k.simulated_total_w:7.2f} W  "
              f"meas {k.measured_total_w:7.2f} W  "
              f"{tag} {k.relative_error * 100:5.1f}%")
    return 0


def _cmd_serve(args) -> int:
    """Run the power-estimation service daemon until interrupted."""
    import asyncio

    from .runner.engine import AUTO
    from .service.core import PowerService
    from .service.daemon import ServiceDaemon
    cache = None if args.no_cache else (args.cache or AUTO)
    service = PowerService(cache=cache,
                           max_parallel=args.max_parallel,
                           tenant_quota=args.quota,
                           queue_limit=args.queue_limit,
                           journal_path=args.journal,
                           timeout_s=args.timeout,
                           lint=not args.no_lint)

    async def _serve() -> None:
        daemon = ServiceDaemon(service, host=args.host, port=args.port)
        await daemon.start()
        # SIGTERM/SIGINT end serve_forever() cleanly, so the finally
        # below still drains: close SSE streams, seal the journal
        # (final fsync).  Where handlers are unsupported the
        # KeyboardInterrupt path below still applies.
        daemon.install_signal_handlers()
        if args.journal:
            counts = ""
            if service.cache is not None:
                per_backend = service.cache.stats().get("backends", {})
                if per_backend:
                    counts = " (cache: " + ", ".join(
                        f"{name}={count}"
                        for name, count in per_backend.items()) + ")"
            print(f"journal replayed {daemon.replayed} pending "
                  f"submission(s){counts}", file=sys.stderr, flush=True)
        print(f"gpusimpow service listening on "
              f"http://{daemon.host}:{daemon.port}",
              file=sys.stderr, flush=True)
        try:
            await daemon.serve_forever()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
        print("service stopped", file=sys.stderr)
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    return 0


def _cmd_fleet(args) -> int:
    """Run a fleet-scale power scenario and print its bill."""
    from .fleet import FleetScenario, parse_gpu_spec, run_scenario
    if _check_error_budget(args):
        return 2
    try:
        if args.scenario:
            with open(args.scenario, "r", encoding="utf-8") as handle:
                scenario = FleetScenario.from_json(handle.read())
        else:
            budget = (None if args.exact
                      else (0.10 if args.error_budget is None
                            else args.error_budget))
            scenario = FleetScenario(
                name=args.name,
                gpus=parse_gpu_spec(args.gpus),
                duration_s=args.duration,
                n_requests=args.requests,
                seed=args.seed,
                error_budget=budget,
                price_usd_per_kwh=args.price,
                co2_kg_per_kwh=args.co2,
                pue=args.pue,
            )
    except (ValueError, KeyError) as exc:
        print(f"bad fleet scenario: {exc}", file=sys.stderr)
        return 2
    jobs, cache, progress, timeout = _runner_options(args)
    report = run_scenario(scenario, n_jobs=jobs, cache=cache,
                          progress=progress, timeout_s=timeout)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"[wrote {args.out}]", file=sys.stderr)
    if args.as_json:
        print(report.to_json())
    else:
        print(report.format())
    return 0


def _cmd_submit(args) -> int:
    """Submit one kernel to a running service daemon."""
    import json as _json

    from .service.client import ServiceClient, ServiceError
    request = _request_from_args(args)
    if request is None:
        return 2
    try:
        with ServiceClient(args.url, tenant=args.tenant) as client:
            payload = client.submit(request, priority=args.priority,
                                    wait=args.wait,
                                    wait_timeout_s=args.wait_timeout)
    except ServiceError as exc:
        if args.as_json:
            print(_json.dumps({"status": exc.status, **exc.payload},
                              sort_keys=True, indent=2))
        else:
            print(f"rejected: {exc}", file=sys.stderr)
            for diag in exc.payload.get("diagnostics", []):
                print(f"  {diag.get('rule')}: {diag.get('message')}",
                      file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach service at {args.url}: {exc}",
              file=sys.stderr)
        return 1
    if args.as_json:
        print(_json.dumps(payload, sort_keys=True, indent=2))
        return 0
    result = payload.get("result") or {}
    summary = result.get("summary")
    if summary is None:
        print(f"accepted: submission {payload.get('submission')} "
              f"(state {payload.get('state', 'queued')}); poll "
              f"{args.url}/v1/jobs/{payload.get('submission')}")
        return 0
    tag = "cache hit" if payload.get("cached") else "simulated"
    print(f"{request.label} via {args.url} ({tag}, "
          f"{payload['elapsed_s']:.2f}s):")
    print(f"  runtime:     {summary['runtime_s'] * 1e6:10.2f} us")
    print(f"  chip power:  {summary['chip_total_w']:10.2f} W "
          f"({summary['static_w']:.2f} static + "
          f"{summary['dynamic_w']:.2f} dynamic)")
    print(f"  card total:  {summary['card_total_w']:10.2f} W")
    sanitizer = payload.get("result", {}).get("sanitizer")
    if sanitizer is not None:
        if sanitizer["clean"]:
            print("  sanitizer:   clean (no findings)")
        else:
            print(f"  sanitizer:   "
                  f"{len(sanitizer['diagnostics'])} finding(s)")
            for d in sanitizer["diagnostics"]:
                print(f"    {d.get('rule')}: {d.get('message')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every subcommand.

    Flags that several subcommands share are defined once, on the
    argparse parent parsers below, and mean the same everywhere.
    """
    parser = argparse.ArgumentParser(
        prog="gpusimpow",
        description="GPUSimPow: coupled GPGPU performance+power simulation",
    )
    parser.add_argument("--version", action=_VersionAction,
                        help="show version and the backend ladder")
    sub = parser.add_subparsers(dest="command", required=True)

    def parent(*parents):
        return argparse.ArgumentParser(add_help=False,
                                       parents=list(parents))

    gpu = parent()
    gpu.add_argument("--gpu", default="GT240",
                     help="preset name (GT240, GTX580)")
    gpu.add_argument("--config", default=None,
                     help="XML configuration file (overrides --gpu)")
    kernel = parent()
    kernel.add_argument("kernel", help="kernel label (see `list`)")
    kernels = parent()
    kernels.add_argument("--kernels", default=None,
                         help="comma-separated kernel subset "
                              "(default: all)")
    as_json = parent()
    as_json.add_argument("--json", action="store_true", dest="as_json",
                         help="print the raw JSON instead of the text "
                              "summary")
    no_cache = parent()
    no_cache.add_argument("--no-cache", action="store_true",
                          help="bypass the on-disk result cache")
    timeout = parent()
    timeout.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock budget; over-budget "
                              "attempts are killed and retried "
                              "(default: REPRO_JOB_TIMEOUT or none)")
    runner = parent(no_cache, timeout)
    runner.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the simulations "
                             "(default: REPRO_JOBS or serial)")
    budget = parent()
    budget.add_argument("--error-budget", type=float, default=None,
                        metavar="FRACTION", dest="error_budget",
                        help="acceptable |chip-power| relative error "
                             "steering backend=auto tier selection "
                             "(e.g. 0.10; default: exact, or 0.10 for "
                             "fleet)")
    backend = parent(budget)
    backend.add_argument("--backend", default="cycle", metavar="NAME",
                         help="simulation backend (see `gpusimpow "
                              "backends`), or 'auto' to pick the "
                              "cheapest fidelity-ladder tier fitting "
                              "--error-budget (default: cycle)")
    request = parent(kernel, gpu, backend)
    request.add_argument("--trace-interval", type=float, default=None,
                         metavar="CYCLES",
                         help="sample a windowed power trace every N "
                              "shader cycles")
    request.add_argument("--sanitize", action="store_true",
                         help="run under the runtime sanitizer (shadow "
                              "memory) and report uninitialized reads, "
                              "out-of-bounds accesses, shared-memory "
                              "races and barrier deadlocks")

    p_list = sub.add_parser("list", help="list benchmarks and kernels")
    p_list.set_defaults(func=_cmd_list)

    p_backends = sub.add_parser("backends",
                                help="list the backend fidelity ladder")
    p_backends.set_defaults(func=_cmd_backends)

    p_arch = sub.add_parser("arch", parents=[gpu],
                            help="area/static/peak for a config")
    p_arch.set_defaults(func=_cmd_arch)

    p_run = sub.add_parser("run", parents=[request, runner],
                           help="simulate one kernel's power")
    p_run.add_argument("--profile", nargs="?", const=True, default=False,
                       metavar="FILE",
                       help="without FILE: print the full component power "
                            "tree; with FILE: run the simulation under "
                            "cProfile and write the stats there (read "
                            "with `python -m pstats FILE`)")
    p_run.add_argument("--epoch-cycles", type=float, default=None,
                       metavar="N",
                       help="parallel_cycle backend: epoch horizon in "
                            "shader cycles (smaller = closer to serial "
                            "timing; `inf` = one unbounded epoch)")
    p_run.add_argument("--shards", type=int, default=None, metavar="N",
                       help="parallel_cycle backend: worker shard count "
                            "(clamped to the config's cluster count)")
    p_run.add_argument("--save-trace", default=None, metavar="FILE",
                       help="save the activity trace as JSON")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the power trace (needs "
                            "--trace-interval)")
    p_run.add_argument("--trace-format", choices=("json", "chrome"),
                       default="json",
                       help="power-trace file format: self-contained "
                            "JSON or chrome://tracing events")
    p_run.set_defaults(func=_cmd_run)

    p_analyze = sub.add_parser("analyze", parents=[kernel, gpu],
                               help="utilization + efficiency analysis")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_lint = sub.add_parser("lint", parents=[gpu, kernels],
                            help="static analysis of workload kernels")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit nonzero on any error-severity "
                             "diagnostic (the CI gate)")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="text summary or a JSON diagnostic array")
    p_lint.add_argument("--min-severity", default="info",
                        choices=("info", "warning", "error"),
                        help="hide diagnostics below this severity "
                             "in the listing")
    p_lint.set_defaults(func=_cmd_lint)

    p_fuzz = sub.add_parser("fuzz", parents=[gpu],
                            help="differential-fuzz the engines and "
                                 "grade the static analyzer")
    p_fuzz.add_argument("--seed", type=int, default=1337,
                        help="corpus seed; the same seed always names "
                             "the same kernels (default: 1337)")
    p_fuzz.add_argument("--count", type=int, default=200, metavar="N",
                        help="verifier-valid kernels to run "
                             "(default: 200)")
    p_fuzz.add_argument("--budget-s", type=float, default=None,
                        metavar="SECONDS", dest="budget_s",
                        help="wall-clock budget; generation stops "
                             "early when exceeded")
    p_fuzz.add_argument("--out", default="fuzz_report.json",
                        metavar="FILE",
                        help="write the full report JSON (records, "
                             "matrix, gates) there (default: "
                             "fuzz_report.json; '' disables)")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_power = sub.add_parser("power", parents=[gpu],
                             help="evaluate power from a saved trace")
    p_power.add_argument("--trace", required=True, metavar="FILE")
    p_power.set_defaults(func=_cmd_power)

    p_dis = sub.add_parser("disasm", parents=[kernel],
                           help="disassemble a workload kernel")
    p_dis.set_defaults(func=_cmd_disasm)

    p_exp = sub.add_parser("experiments", parents=[runner],
                           help="regenerate paper tables and figures")
    p_exp.add_argument("names", nargs="*", metavar="experiment",
                       help="subset to run (default: all)")
    p_exp.add_argument("--list", action="store_true",
                       help="list registered experiments and exit")
    p_exp.add_argument("--out-dir", default=None, metavar="DIR",
                       help="also write every artifact into DIR")
    p_exp.set_defaults(func=_cmd_experiments)

    p_val = sub.add_parser("validate", parents=[gpu, kernels, runner,
                                                backend],
                           help="run the sim-vs-hardware comparison")
    p_val.set_defaults(func=_cmd_validate)

    p_serve = sub.add_parser("serve", parents=[no_cache, timeout],
                             help="run the power-estimation service "
                                  "daemon")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port; 0 picks a free one "
                              "(default: 8642)")
    p_serve.add_argument("--journal", default=None, metavar="FILE",
                         help="append-only submission journal; on "
                              "restart, unanswered submissions are "
                              "replayed from it")
    p_serve.add_argument("--cache", default=None, metavar="DIR",
                         help="result cache directory (default: "
                              "REPRO_CACHE_DIR or ~/.cache/gpusimpow)")
    p_serve.add_argument("--max-parallel", type=int, default=2,
                         metavar="N",
                         help="concurrent simulation slots; above 1, "
                              "every simulation runs on a warm worker "
                              "process, 1 simulates inside the daemon "
                              "(default: 2)")
    p_serve.add_argument("--quota", type=int, default=8, metavar="N",
                         help="per-tenant live-submission cap; beyond "
                              "it, 429 (default: 8)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         metavar="N",
                         help="bound on queued tasks across tenants; "
                              "beyond it, 503 (default: 64)")
    p_serve.add_argument("--no-lint", action="store_true",
                         help="skip static-analysis admission control "
                              "(verifier-failing kernels then reach "
                              "the simulator)")
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser("fleet", parents=[budget, runner, as_json],
                             help="simulate a fleet-scale power "
                                  "scenario (kWh / $ / CO2)")
    p_fleet.add_argument("--scenario", default=None, metavar="FILE",
                         help="JSON FleetScenario file (overrides the "
                              "flags below)")
    p_fleet.add_argument("--name", default="fleet",
                         help="scenario label (default: fleet)")
    p_fleet.add_argument("--gpus", default="2xGTX580,2xGT240",
                         metavar="SPEC",
                         help="virtual fleet, e.g. 2xGTX580,2xGT240 "
                              "(default: 2xGTX580,2xGT240)")
    p_fleet.add_argument("--requests", type=int, default=1000,
                         metavar="N",
                         help="trace length in requests "
                              "(default: 1000)")
    p_fleet.add_argument("--duration", type=float, default=86400.0,
                         metavar="SECONDS",
                         help="scenario horizon (default: 86400, one "
                              "diurnal cycle)")
    p_fleet.add_argument("--seed", type=int, default=0,
                         help="load-generator seed (default: 0)")
    p_fleet.add_argument("--exact", action="store_true",
                         help="resolve every cost on the exact cycle "
                              "tier (ignores --error-budget)")
    p_fleet.add_argument("--price", type=float, default=0.12,
                         metavar="USD",
                         help="electricity price in $/kWh "
                              "(default: 0.12)")
    p_fleet.add_argument("--co2", type=float, default=0.40,
                         metavar="KG",
                         help="grid carbon intensity in kg CO2/kWh "
                              "(default: 0.40)")
    p_fleet.add_argument("--pue", type=float, default=1.0,
                         help="facility power-usage effectiveness "
                              "multiplier (default: 1.0)")
    p_fleet.add_argument("--out", default=None, metavar="FILE",
                         help="also write the full report JSON there")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_submit = sub.add_parser("submit", parents=[request, as_json],
                              help="submit a kernel to a running "
                                   "service")
    p_submit.add_argument("--url", default="http://127.0.0.1:8642",
                          help="service base URL (default: "
                               "http://127.0.0.1:8642)")
    p_submit.add_argument("--tenant", default="cli",
                          help="tenant id for quota accounting "
                               "(default: cli)")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="scheduling priority; higher runs "
                               "first (default: 0)")
    p_submit.add_argument("--wait", action="store_true",
                          help="hold the request until the result is "
                               "ready and print it")
    p_submit.add_argument("--wait-timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="server-side hold budget for --wait "
                               "(default: 600)")
    p_submit.set_defaults(func=_cmd_submit)

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the result cache")
    p_cache.add_argument("action", choices=("stats", "clear"),
                         help="stats: entry count and size; "
                              "clear: drop every entry")
    p_cache.add_argument("--dir", default=None, metavar="DIR",
                         help="cache location (default: REPRO_CACHE_DIR "
                              "or ~/.cache/gpusimpow)")
    p_cache.add_argument("--yes", action="store_true",
                         help="clear without asking for confirmation")
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Entry point: parse arguments and dispatch; returns the exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
