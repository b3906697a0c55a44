"""Command-line interface: regenerate the paper's experiments.

Usage (installed as the ``tecfan`` entry point)::

    tecfan table1                    # Table I base-scenario comparison
    tecfan fig4                      # TEC+fan integration study
    tecfan fig5                      # cooling performance (peaks, violations)
    tecfan fig6                      # delay / power / energy / EDP
    tecfan fig7 [--minutes 10]       # server comparison vs OFTEC/Oracle
    tecfan hwcost                    # Sec. III-E hardware cost summary
    tecfan quick                     # one fast end-to-end TECfan demo
    tecfan run --checkpoint ck.pkl   # checkpointed single simulation
    tecfan run --resume ck.pkl       # resume it (bit-identical result)
    tecfan run --status-file s.json  # live status sidecar for `watch`
    tecfan watch s.json              # refreshing live view of that run
    tecfan sweep --journal sweep.tfj # crash-recoverable fan sweep
    tecfan sweep --status-file s.json   # pool heartbeats for `top`
    tecfan top s.json                # one row per worker / sweep cell
    tecfan run ... --metrics-port 0  # Prometheus scrape endpoint
    tecfan profile                   # instrumented run + profile tables
    tecfan profile --load out.jsonl  # re-render a saved telemetry stream
    tecfan trace diff A.jsonl B.jsonl   # span/counter regression gate
    tecfan trace flame run.jsonl        # folded stacks for flamegraph.pl
    tecfan trace anomalies run.jsonl    # thermal/oscillation/EPI scan

Every experiment subcommand accepts ``--telemetry PATH``: the command
then runs under an installed :class:`repro.obs.Telemetry` session whose
per-interval events stream to ``PATH`` as they happen (bounded memory,
so long runs never hit the in-memory event cap). On exit — also when the
command raises — the run manifest and the span/metric aggregates are
appended, completing the file. See ``docs/OBSERVABILITY.md`` for the
stream format and naming conventions.
"""

from __future__ import annotations

import argparse
import math
import sys


def _cmd_table1(args) -> int:
    from repro.analysis.tables import format_table1, regenerate_table1
    from repro.core.system import build_system

    comparisons = regenerate_table1(build_system())
    print(format_table1(comparisons))
    return 0


def _cmd_fig4(args) -> int:
    from repro.analysis.figures import figure4, format_figure4
    from repro.core.system import build_system

    print(format_figure4(figure4(build_system())))
    return 0


def _cmd_fig56(args, which: str) -> int:
    from repro.analysis.figures import (
        format_figure5,
        format_figure6,
        splash_comparison,
    )
    from repro.core.system import build_system

    comp = splash_comparison(build_system(), jobs=args.jobs)
    print(format_figure5(comp) if which == "5" else format_figure6(comp))
    return 0


def _cmd_fig7(args) -> int:
    from repro.analysis.figures import format_figure7
    from repro.analysis.server_experiment import run_server_comparison

    comparison = run_server_comparison(minutes=args.minutes)
    print(format_figure7(comparison.normalized_to_oftec()))
    return 0


def _cmd_hwcost(args) -> int:
    from repro.analysis.report import render_table
    from repro.core.hwcost import HardwareCostModel

    model = HardwareCostModel()
    rows = [[k, v] for k, v in model.summary().items()]
    print(
        render_table(
            ["quantity", "value"],
            rows,
            floatfmt="{:.4f}",
            title="Sec. III-E — hardware cost of the estimation datapath",
        )
    )
    return 0


def _cmd_quick(args) -> int:
    from repro.analysis.experiments import run_base_scenario, run_policy_suite
    from repro.core.system import build_system

    system = build_system()
    base, outcomes = run_policy_suite(system, "lu", 16, jobs=args.jobs)
    print(f"lu/16t: threshold = {base.t_threshold_c:.2f} degC")
    bm = base.result.metrics
    for name, oc in outcomes.items():
        n = oc.chosen.metrics.normalized_to(bm)
        print(
            f"  {name:10s} fan={oc.chosen.metrics.fan_level} "
            f"delay={n['delay']:.3f} energy={n['energy']:.3f} "
            f"edp={n['edp']:.3f}"
        )
    return 0


def _make_controller(name: str):
    """Resolve a policy name (case-insensitive) to a fresh controller."""
    from repro.analysis.experiments import make_policies

    policies = make_policies()
    for policy in policies:
        if policy.name.lower() == name.lower():
            return policy
    known = ", ".join(p.name for p in policies)
    raise ValueError(f"unknown policy {name!r} (choose from: {known})")


def _load_fault_scheduler(path: str, prog: str):
    """Parse a JSON fault script; returns (scheduler, rc)."""
    import json

    from repro.exceptions import FaultInjectionError
    from repro.faults import FaultScheduler

    try:
        with open(path) as fh:
            spec = json.load(fh)
        return FaultScheduler.from_spec(spec), 0
    except (OSError, json.JSONDecodeError, FaultInjectionError) as exc:
        print(f"{prog}: bad fault script {path}: {exc}", file=sys.stderr)
        return None, 2


def _print_run_result(result) -> None:
    from repro.checkpoint import result_digest

    m = result.metrics
    print(
        f"{m.policy} on {m.workload}: "
        f"time={m.execution_time_s!r} s power={m.average_power_w!r} W "
        f"energy={m.energy_j!r} J peak={m.peak_temp_c!r} degC "
        f"violations={m.violation_rate!r} fan={m.fan_level}"
    )
    print(f"digest: {result_digest(result)}")


def _engine_kwargs(args, prog: str):
    """``EngineConfig`` kwargs of ``run``/``profile``; returns (kwargs, rc).

    ``--faults`` selects the hardened configuration (watchdog, health
    monitor, estimator fallback).
    """
    if args.faults is None:
        return {}, 0
    from repro.faults import HealthConfig, WatchdogConfig

    scheduler, rc = _load_fault_scheduler(args.faults, prog)
    if scheduler is None:
        return None, rc
    return (
        dict(
            faults=scheduler,
            watchdog=WatchdogConfig(),
            health=HealthConfig(),
            estimator_fallback=True,
        ),
        0,
    )


def _cmd_run(args) -> int:
    """One simulation with optional periodic checkpoints, or a resume."""
    from repro.core.engine import EngineConfig, SimulationEngine

    if args.resume is not None:
        from repro.checkpoint import load_checkpoint
        from repro.exceptions import CheckpointError

        try:
            ck = load_checkpoint(args.resume, kind="engine-run")
        except CheckpointError as exc:
            print(f"tecfan run: cannot resume {args.resume}: {exc}",
                  file=sys.stderr)
            return 2
        if args.status_file is not None:
            # The snapshotted config predates the flag; override it so
            # the resumed half of the run is watchable too.
            ck["config"].status_path = args.status_file
            ck["config"].status_every_s = args.status_every_s
        engine = SimulationEngine(
            system=ck["system"], problem=ck["problem"], config=ck["config"]
        )
        _print_run_result(engine.resume(ck))
        return 0

    from repro.core.problem import EnergyProblem
    from repro.core.system import build_system
    from repro.perf import splash2_workload
    from repro.perf.workload import WorkloadRun

    if args.max_time_s <= 0:
        print("tecfan run: --max-time-s must be > 0", file=sys.stderr)
        return 2
    engine_kwargs, rc = _engine_kwargs(args, "tecfan run")
    if engine_kwargs is None:
        return rc
    if args.checkpoint is not None:
        engine_kwargs["checkpoint_path"] = args.checkpoint
        engine_kwargs["checkpoint_every_s"] = args.checkpoint_every_s
    if args.status_file is not None:
        engine_kwargs["status_path"] = args.status_file
        engine_kwargs["status_every_s"] = args.status_every_s

    try:
        controller = _make_controller(args.policy)
    except ValueError as exc:
        print(f"tecfan run: {exc}", file=sys.stderr)
        return 2
    system = build_system()
    workload = splash2_workload(args.workload, args.threads, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=args.threshold),
        EngineConfig(max_time_s=args.max_time_s, **engine_kwargs),
    )
    run = WorkloadRun(workload, system.chip, ref_freq_ghz=2.0)
    result = engine.run(run, controller)
    _print_run_result(result)
    return 0


def _cmd_sweep(args) -> int:
    """Fan sweep of one policy with an optional crash-recovery journal."""
    from repro.checkpoint import result_digest
    from repro.core.engine import EngineConfig, SimulationEngine, run_fan_sweep
    from repro.core.problem import EnergyProblem
    from repro.core.system import build_system
    from repro.exceptions import CheckpointError
    from repro.perf import splash2_workload
    from repro.perf.workload import WorkloadRun

    if args.max_time_s <= 0:
        print("tecfan sweep: --max-time-s must be > 0", file=sys.stderr)
        return 2
    try:
        controller = _make_controller(args.policy)
    except ValueError as exc:
        print(f"tecfan sweep: {exc}", file=sys.stderr)
        return 2
    system = build_system()
    workload = splash2_workload(args.workload, args.threads, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=args.threshold),
        EngineConfig(max_time_s=args.max_time_s),
    )

    def make_run():
        return WorkloadRun(workload, system.chip, ref_freq_ghz=2.0)

    try:
        chosen, all_metrics = run_fan_sweep(
            engine,
            make_run,
            controller,
            jobs=args.jobs,
            journal_path=args.journal,
            status_path=args.status_file,
            status_every_s=args.status_every_s,
        )
    except CheckpointError as exc:
        print(f"tecfan sweep: journal mismatch: {exc}", file=sys.stderr)
        return 2
    for m in all_metrics:
        print(
            f"fan={m.fan_level} time={m.execution_time_s!r} "
            f"energy={m.energy_j!r} peak={m.peak_temp_c!r} "
            f"violations={m.violation_rate!r}"
        )
    print(f"chosen: fan={chosen.metrics.fan_level}")
    print(f"digest: {result_digest(chosen)}")
    return 0


def _cmd_fleet(args) -> int:
    """N-node fleet simulation with the batched interval kernel."""
    import time as _time

    from repro.exceptions import ConfigurationError
    from repro.fleet import FleetConfig, run_fleet

    # ``--hours 0`` is a zero horizon for FleetConfig to refuse, not
    # "unset": only an absent flag falls back to --seconds.
    duration_s = args.seconds
    if args.hours is not None:
        if not math.isfinite(args.hours):
            print(f"tecfan fleet: --hours must be finite, got {args.hours!r}",
                  file=sys.stderr)
            return 2
        duration_s = int(round(args.hours * 3600))
    try:
        cfg = FleetConfig(
            n_nodes=args.nodes,
            duration_s=duration_s,
            trace=args.trace,
            seed=args.seed,
            scale=args.scale,
            router=args.router,
            fast_forward=not args.no_fast_forward,
        )
    except ConfigurationError as exc:
        print(f"tecfan fleet: {exc}", file=sys.stderr)
        return 2
    t0 = _time.monotonic()
    result = run_fleet(
        cfg,
        status_path=args.status_file,
        status_every_s=args.status_every_s,
    )
    wall_s = _time.monotonic() - t0
    for key, value in result.summary().items():
        print(f"{key}: {value!r}")
    print(f"wall_s: {wall_s:.3f}")
    print(
        f"throughput: {result.sim_time_s * result.n_nodes / wall_s:.0f} "
        "node-sim-s/s"
    )
    return 0


def _cmd_watch(args, prog: str) -> int:
    """Shared body of ``tecfan watch`` and ``tecfan top``.

    Both read the same status sidecar through one renderer, so either
    command works against any kind (``engine-run``, ``pool``, ``fleet``)
    — the two names exist for discoverability. ``--once`` prints a single
    plain-text view (exit 2 when the file is missing/invalid — the CI
    smoke mode); the default loop refreshes every ``--interval``
    seconds, tolerates a not-yet-written file, and exits 0 when the
    snapshot reports ``done`` (or on Ctrl-C).
    """
    import time

    from repro.exceptions import ObservabilityError
    from repro.obs.live import read_status, render_status

    if args.once:
        try:
            status = read_status(args.status_file)
        except ObservabilityError as exc:
            print(f"{prog}: {exc}", file=sys.stderr)
            return 2
        print(render_status(status))
        return 0

    try:
        while True:
            try:
                status = read_status(args.status_file)
            except ObservabilityError as exc:
                print(f"{prog}: waiting — {exc}", file=sys.stderr)
                time.sleep(args.interval)
                continue
            # ANSI clear + home, so the view refreshes in place.
            sys.stdout.write("\x1b[2J\x1b[H")
            print(render_status(status))
            sys.stdout.flush()
            if status.get("done"):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_profile(args) -> int:
    from repro.obs import get_telemetry, profile_summary, read_jsonl

    if args.load is not None:
        from repro.exceptions import ObservabilityError

        try:
            parsed = read_jsonl(args.load)
        except (OSError, ObservabilityError) as exc:
            print(f"tecfan profile: cannot load {args.load}: {exc}",
                  file=sys.stderr)
            return 2
        print(profile_summary(parsed))
        return 0

    from repro.core.engine import EngineConfig, SimulationEngine
    from repro.core.export import metrics_to_dict
    from repro.core.problem import EnergyProblem
    from repro.core.system import build_system
    from repro.core.tecfan import TECfanController
    from repro.perf import splash2_workload
    from repro.perf.workload import WorkloadRun

    if args.max_time_s <= 0:
        print("tecfan profile: --max-time-s must be > 0", file=sys.stderr)
        return 2

    engine_kwargs, rc = _engine_kwargs(args, "tecfan profile")
    if engine_kwargs is None:
        return rc

    tel = get_telemetry()  # installed by main() for this subcommand
    system = build_system()
    workload = splash2_workload(args.workload, args.threads, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=args.threshold),
        EngineConfig(max_time_s=args.max_time_s, **engine_kwargs),
    )
    run = WorkloadRun(workload, system.chip, ref_freq_ghz=2.0)
    result = engine.run(run, TECfanController())
    tel.annotate("metrics", metrics_to_dict(result.metrics))
    m = result.metrics
    print(
        f"{m.policy} on {m.workload}/{args.threads}t: "
        f"{m.execution_time_s * 1e3:.1f} ms simulated, "
        f"{len(result.trace)} intervals, peak {m.peak_temp_c:.2f} degC"
    )
    print()
    print(profile_summary(tel))
    return 0


def _load_stream(path: str, label: str):
    """Load a JSONL stream for trace analysis, or (None, rc) on failure."""
    from repro.exceptions import ObservabilityError
    from repro.obs import read_jsonl

    try:
        return read_jsonl(path), 0
    except (OSError, ObservabilityError) as exc:
        print(f"tecfan trace: cannot load {label} {path}: {exc}",
              file=sys.stderr)
        return None, 2


def _cmd_trace(args) -> int:
    from repro.analysis import tracetools

    if args.trace_command == "diff":
        a, rc = _load_stream(args.baseline, "baseline")
        if a is None:
            return rc
        b, rc = _load_stream(args.candidate, "candidate")
        if b is None:
            return rc
        diff = tracetools.diff_streams(
            a,
            b,
            span_threshold_pct=args.span_threshold_pct,
            counter_threshold_pct=args.counter_threshold_pct,
            min_total_ms=args.min_total_ms,
        )
        print(tracetools.format_trace_diff(diff))
        return 0 if diff.ok else 1

    if args.trace_command == "flame":
        parsed, rc = _load_stream(args.stream, "stream")
        if parsed is None:
            return rc
        folded = tracetools.flame_folded(parsed)
        if args.output is not None:
            with open(args.output, "w") as fh:
                fh.write(folded)
            print(f"trace flame: wrote {args.output}", file=sys.stderr)
        else:
            print(folded, end="")
        return 0

    # anomalies
    parsed, rc = _load_stream(args.stream, "stream")
    if parsed is None:
        return rc
    anomalies = tracetools.detect_anomalies(
        parsed, threshold_c=args.threshold
    )
    print(tracetools.format_anomalies(anomalies))
    return 1 if (args.strict and anomalies) else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``tecfan`` console script."""
    parser = argparse.ArgumentParser(
        prog="tecfan",
        description="Regenerate the TECfan paper's tables and figures.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="record a telemetry session, streaming its JSONL events to "
        "PATH (manifest and aggregates are appended on exit)",
    )
    common.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        default=None,
        help="serve the live MetricsRegistry (plus --status-file gauges "
        "when set) in Prometheus text format on PORT over a background "
        "http.server thread (0 = ephemeral; the bound port is printed)",
    )
    # Experiment fan-out (policy suites): worker process count.
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="run independent simulations across a persistent pool of "
        "N worker processes (0 = auto: TECFAN_JOBS env var, else the "
        "CPU affinity mask); results are identical to serial execution",
    )
    jobs_parent.add_argument(
        "--job-timeout-s",
        type=float,
        metavar="S",
        default=None,
        help="kill any worker task still running after S seconds "
        "(sets TECFAN_JOB_TIMEOUT_S for every fan-out in this command)",
    )
    jobs_parent.add_argument(
        "--job-retries",
        type=int,
        metavar="K",
        default=None,
        help="retry a failed or timed-out worker task up to K times "
        "(sets TECFAN_JOB_RETRIES for every fan-out in this command)",
    )
    # Live-status sidecar (repro.obs.live): run, sweep and fleet write
    # it, the watch/top consumers read it.
    status_parent = argparse.ArgumentParser(add_help=False)
    status_parent.add_argument(
        "--status-file",
        metavar="PATH",
        default=None,
        help="write periodic live-status snapshots here (atomic "
        "replace; watch with `tecfan watch PATH` / `tecfan top PATH`); "
        "snapshots never change results",
    )
    status_parent.add_argument(
        "--status-every-s",
        type=float,
        metavar="S",
        default=1.0,
        help="wall-clock cadence between status snapshots [s]",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", parents=[common], help="Table I base scenario")
    sub.add_parser("fig4", parents=[common], help="Figure 4: TEC+fan integration")
    sub.add_parser(
        "fig5",
        parents=[common, jobs_parent],
        help="Figure 5: cooling performance",
    )
    sub.add_parser(
        "fig6",
        parents=[common, jobs_parent],
        help="Figure 6: energy efficiency",
    )
    p7 = sub.add_parser("fig7", parents=[common], help="Figure 7: server comparison")
    p7.add_argument("--minutes", type=int, default=10)
    sub.add_parser("hwcost", parents=[common], help="Sec. III-E hardware cost")
    sub.add_parser(
        "quick", parents=[common, jobs_parent], help="fast end-to-end demo"
    )
    runp = sub.add_parser(
        "run",
        parents=[common, status_parent],
        help="one simulation with optional periodic checkpoints / resume",
    )
    runp.add_argument("--workload", default="lu", help="SPLASH-2 benchmark name")
    runp.add_argument("--threads", type=int, default=16)
    runp.add_argument(
        "--policy",
        default="TECfan",
        help="controller name (case-insensitive): FanOnly, Fan+TEC, "
        "Fan+DVFS, DVFS+TEC or TECfan",
    )
    runp.add_argument(
        "--threshold", type=float, default=85.0, help="T_th [degC]"
    )
    runp.add_argument(
        "--max-time-s",
        type=float,
        default=2.0,
        help="simulated-time cap for the run [s]",
    )
    runp.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="JSON fault script; enables watchdog, health monitor and "
        "estimator fallback (the hardened engine configuration)",
    )
    runp.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write periodic engine checkpoints here (atomic replace; "
        "resume later with --resume PATH)",
    )
    runp.add_argument(
        "--checkpoint-every-s",
        type=float,
        metavar="S",
        default=0.05,
        help="simulated-time cadence between checkpoints [s]",
    )
    runp.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume from a checkpoint instead of starting fresh; the "
        "completed result is bit-identical to the uninterrupted run",
    )
    sweepp = sub.add_parser(
        "sweep",
        parents=[common, jobs_parent, status_parent],
        help="fan-level sweep of one policy (crash-recoverable "
        "with --journal)",
    )
    sweepp.add_argument(
        "--workload", default="lu", help="SPLASH-2 benchmark name"
    )
    sweepp.add_argument("--threads", type=int, default=16)
    sweepp.add_argument(
        "--policy", default="TECfan", help="controller name (case-insensitive)"
    )
    sweepp.add_argument(
        "--threshold", type=float, default=85.0, help="T_th [degC]"
    )
    sweepp.add_argument(
        "--max-time-s",
        type=float,
        default=2.0,
        help="simulated-time cap per level [s]",
    )
    sweepp.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append completed levels to this crash-recovery journal; "
        "re-running with the same path redoes only missing levels",
    )
    from repro.fleet_names import ROUTER_POLICIES, TRACE_KINDS

    fleetp = sub.add_parser(
        "fleet",
        parents=[common, status_parent],
        help="N-node datacenter fleet simulation (batched interval "
        "kernel, one serial loop)",
    )
    fleetp.add_argument(
        "--nodes", type=int, default=64, help="number of S8-style servers"
    )
    fleetp.add_argument(
        "--seconds",
        type=int,
        default=3600,
        metavar="S",
        help="simulated arrival-stream duration [s]",
    )
    fleetp.add_argument(
        "--hours",
        type=float,
        default=None,
        metavar="H",
        help="duration in hours (overrides --seconds)",
    )
    fleetp.add_argument(
        "--trace",
        choices=TRACE_KINDS,
        default="diurnal",
        help="arrival stream: vectorized synthetic diurnal or the "
        "paper's 7-day Wikipedia trace (cached per process)",
    )
    fleetp.add_argument(
        "--router",
        choices=ROUTER_POLICIES,
        default="round-robin",
        help="request routing policy",
    )
    fleetp.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="stream utilization multiplier (trace-scaling study)",
    )
    fleetp.add_argument("--seed", type=int, default=2009)
    fleetp.add_argument(
        "--no-fast-forward",
        action="store_true",
        help="disable quiescent fleet fast-forwarding",
    )
    watchp = sub.add_parser(
        "watch",
        help="live view of a running simulation's --status-file "
        "(progress, ETA, thermal headroom, anomalies)",
    )
    topp = sub.add_parser(
        "top",
        help="live view of a pool/sweep --status-file "
        "(one row per worker, replayed vs live cells)",
    )
    for viewer in (watchp, topp):
        viewer.add_argument(
            "status_file", help="status sidecar written by --status-file"
        )
        viewer.add_argument(
            "--once",
            action="store_true",
            help="print one plain-text snapshot and exit (CI / piping; "
            "exit 2 when the file is missing or invalid)",
        )
        viewer.add_argument(
            "--interval",
            type=float,
            metavar="S",
            default=2.0,
            help="refresh period in loop mode [s]",
        )
    prof = sub.add_parser(
        "profile",
        parents=[common],
        help="run one instrumented TECfan simulation and print its profile",
    )
    prof.add_argument("--workload", default="lu", help="SPLASH-2 benchmark name")
    prof.add_argument("--threads", type=int, default=16)
    prof.add_argument(
        "--threshold", type=float, default=85.0, help="T_th [degC]"
    )
    prof.add_argument(
        "--max-time-s",
        type=float,
        default=2.0,
        help="simulated-time cap for the profiled run [s]",
    )
    prof.add_argument(
        "--load",
        metavar="PATH",
        default=None,
        help="render the profile of a saved JSONL stream instead of running",
    )
    prof.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="JSON fault script (list of {kind, ...} dicts, see "
        "docs/ROBUSTNESS.md) injected into the profiled run; enables "
        "the thermal watchdog, health monitor and estimator fallback",
    )
    trace = sub.add_parser(
        "trace",
        help="analyze saved telemetry streams (diff / flame / anomalies)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tdiff = trace_sub.add_parser(
        "diff",
        help="span/counter deltas between two streams; nonzero exit on "
        "regressions past the thresholds (CI gate)",
    )
    tdiff.add_argument("baseline", help="baseline JSONL stream (A)")
    tdiff.add_argument("candidate", help="candidate JSONL stream (B)")
    tdiff.add_argument(
        "--span-threshold-pct",
        type=float,
        metavar="PCT",
        default=10.0,
        help="span total-time growth beyond PCT%% is a regression",
    )
    tdiff.add_argument(
        "--counter-threshold-pct",
        type=float,
        metavar="PCT",
        default=10.0,
        help="counter growth beyond PCT%% is a regression",
    )
    tdiff.add_argument(
        "--min-total-ms",
        type=float,
        metavar="MS",
        default=1.0,
        help="ignore spans under MS total in both streams (noise floor)",
    )
    tflame = trace_sub.add_parser(
        "flame",
        help="folded-stack output (flamegraph.pl / speedscope format) "
        "reconstructed from the stream's span_edge records",
    )
    tflame.add_argument("stream", help="JSONL telemetry stream")
    tflame.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write folded stacks here instead of stdout",
    )
    tanom = trace_sub.add_parser(
        "anomalies",
        help="scan interval events for thermal excursions, fan/TEC "
        "oscillation and EPI drift",
    )
    tanom.add_argument("stream", help="JSONL telemetry stream")
    tanom.add_argument(
        "--threshold",
        type=float,
        metavar="C",
        default=None,
        help="thermal threshold [degC]; defaults to the t_threshold_c "
        "recorded in the stream's manifest",
    )
    tanom.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any anomaly is detected",
    )

    args = parser.parse_args(argv)
    # Resilience knobs travel by environment so every nested fan-out
    # (policy suite -> fan sweep -> parallel_map) honors them without
    # threading two extra parameters through each driver signature.
    if getattr(args, "job_timeout_s", None) is not None:
        import os

        os.environ["TECFAN_JOB_TIMEOUT_S"] = str(args.job_timeout_s)
    if getattr(args, "job_retries", None) is not None:
        import os

        os.environ["TECFAN_JOB_RETRIES"] = str(args.job_retries)
    dispatch = {
        "table1": _cmd_table1,
        "fig4": _cmd_fig4,
        "fig5": lambda a: _cmd_fig56(a, "5"),
        "fig6": lambda a: _cmd_fig56(a, "6"),
        "fig7": _cmd_fig7,
        "hwcost": _cmd_hwcost,
        "quick": _cmd_quick,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "fleet": _cmd_fleet,
        "watch": lambda a: _cmd_watch(a, "tecfan watch"),
        "top": lambda a: _cmd_watch(a, "tecfan top"),
        "profile": _cmd_profile,
        "trace": _cmd_trace,
    }
    handler = dispatch[args.command]

    telemetry_path = getattr(args, "telemetry", None)
    metrics_port = getattr(args, "metrics_port", None)
    needs_session = (
        telemetry_path is not None
        or metrics_port is not None
        or (args.command == "profile" and args.load is None)
    )
    if not needs_session:
        return handler(args)

    from repro.obs import StreamingExporter, telemetry_session

    with telemetry_session() as tel:
        exporter = None
        if telemetry_path is not None:
            exporter = StreamingExporter(telemetry_path)
            exporter.attach(tel)
        tel.annotate(
            "command", list(argv) if argv is not None else sys.argv[1:]
        )
        server = None
        if metrics_port is not None:
            from repro.obs.live import MetricsServer

            server = MetricsServer(
                metrics_port,
                status_path=getattr(args, "status_file", None),
            )
            print(
                f"metrics: serving Prometheus text on port {server.port} "
                "(GET any path)",
                file=sys.stderr,
            )
        try:
            rc = handler(args)
        finally:
            if server is not None:
                server.close()
            if exporter is not None:
                exporter.close()
                print(
                    f"telemetry: wrote {tel.events_streamed} event(s) to "
                    f"{telemetry_path}",
                    file=sys.stderr,
                )
    return rc


if __name__ == "__main__":
    sys.exit(main())
