"""One measured pass of one end-to-end workload, in a fresh process.

``run.py`` starts this file once per pass, so caches start cold in every
pass, as in every CLI run. The pass builds its inputs (imports, platform,
trace synthesis: the set-up), times the workload through the public
entry points only, checks the outputs, and prints one JSON record as its
last line of standard output::

    PYTHONPATH=src python benchmarks/e2e/workloads.py --workload fleet_overload \
        --seed 2009 --launch-ns "$(python -c 'import time; print(time.monotonic_ns())')"

``--launch-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so ``setup_s`` runs from process launch to inputs
ready. ``--setup-only`` stops there; ``--trace`` installs the per-layer
wrappers of ``layers.py`` and a telemetry session around the timed
section.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

#: Fig. 7 trace minutes per piece (paper: 10). Five keeps each pass
#: under 30 s on a 2-CPU host and moves TECfan/OFTEC only 0.740 -> 0.743.
SERVER_MINUTES = 5

#: Worker count of ``splash_pooled``: fixed, so the pool does the same
#: work on every host (it equals ``nproc`` on the reference host).
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """A named workload: its set-up, its timed body and its checks."""

    name: str
    #: ``(seed, smoke) -> inputs``; not timed as the workload.
    setup: Callable
    #: ``(inputs, seed, smoke, jobs) -> raw outputs``; the timed section.
    execute: Callable
    #: ``(inputs, raw) -> Outcome``: checks and digest; untimed.
    finish: Callable
    #: Key of the digest that must be identical across passes of equal
    #: inputs; workloads sharing a group must agree with each other.
    digest_group: str
    seeded: bool
    jobs: int = 1


@dataclass
class Outcome:
    """What a pass produced, reduced to numbers and a digest."""

    sim_node_s: float
    sim_epi_nj: float
    checks: dict
    digest: str


def _check(value, unit: str, limit: str | None = None, ok: bool = True) -> dict:
    """One correctness gate (``limit`` set) or recorded value (no limit)."""
    return {"value": value, "unit": unit, "limit": limit, "ok": bool(ok)}


# ----------------------------------------------------------------------
# SPLASH-2: Table I + Figs. 5-6 on the 16-core chip
# ----------------------------------------------------------------------
def _splash_setup(seed: int, smoke: bool) -> dict:
    from repro.core.system import build_system

    return {"system": build_system()}


def _splash_execute(inputs: dict, seed: int, smoke: bool, jobs: int):
    from repro.analysis.figures import splash_comparison
    from repro.analysis.tables import regenerate_table1
    from repro.perf.splash2 import FIGURE_CASES

    system = inputs["system"]
    cases = tuple(c for c in FIGURE_CASES if c[0] == "lu") if smoke else FIGURE_CASES
    rows = regenerate_table1(system)
    comp = splash_comparison(system, cases=cases, jobs=jobs)
    return rows, comp


def _splash_finish(inputs: dict, raw) -> Outcome:
    from repro.analysis.figures import figure6_averages
    from repro.checkpoint import result_digest

    rows, comp = raw
    h = hashlib.sha256()
    sim_s = 0.0
    for c in rows:
        h.update(repr((c.measured_time_ms, c.measured_power_w, c.measured_peak_c)).encode())
        sim_s += c.measured_time_ms / 1e3
    tec_energy = tec_inst = 0.0
    violation = []
    for case, outcomes in comp.outcomes.items():
        base = comp.bases[case]
        h.update(result_digest(base.result).encode())
        sim_s += base.result.metrics.execution_time_s
        for name, oc in outcomes.items():
            h.update(name.encode())
            h.update(result_digest(oc.chosen).encode())
            h.update(repr(oc.sweep).encode())
            if oc.chosen is not base.result:  # Fan-only reuses the base run
                sim_s += sum(m.execution_time_s for m in oc.sweep)
        m = outcomes["TECfan"].chosen.metrics
        tec_energy += m.energy_j
        tec_inst += m.instructions
        violation.append(100.0 * m.violation_rate)

    avg = figure6_averages(comp)
    tec = avg["TECfan"]
    other_edp = min(v["edp"] for k, v in avg.items() if k != "TECfan")
    checks = {
        "table1_time_err_pct": _check(
            max(abs(c.time_error_pct) for c in rows), "%", "< 1.0",
            all(abs(c.time_error_pct) < 1.0 for c in rows)),
        "table1_power_err_w": _check(
            max(abs(c.power_error_w) for c in rows), "W", "< 1.5",
            all(abs(c.power_error_w) < 1.5 for c in rows)),
        "table1_peak_err_c": _check(
            max(abs(c.temp_error_c) for c in rows), "degC", "< 1.5",
            all(abs(c.temp_error_c) < 1.5 for c in rows)),
        "delay_tecfan": _check(tec["delay"], "x", "< 1.10", tec["delay"] < 1.10),
        "delay_fan_dvfs": _check(
            avg["Fan+DVFS"]["delay"], "x", "> 1.10 and > TECfan",
            avg["Fan+DVFS"]["delay"] > max(1.10, tec["delay"])),
        "delay_fan_tec_minus_1": _check(
            abs(avg["Fan+TEC"]["delay"] - 1.0), "x", "< 1e-6",
            abs(avg["Fan+TEC"]["delay"] - 1.0) < 1e-6),
        "energy_tecfan": _check(tec["energy"], "x", "< 0.95", tec["energy"] < 0.95),
        "energy_fan_tec": _check(
            avg["Fan+TEC"]["energy"], "x", "< 1.0", avg["Fan+TEC"]["energy"] < 1.0),
        "energy_fan_dvfs": _check(
            avg["Fan+DVFS"]["energy"], "x", "< 0.95", avg["Fan+DVFS"]["energy"] < 0.95),
        "edp_tecfan": _check(
            tec["edp"], "x", "<= every other policy", tec["edp"] <= other_edp + 1e-9),
        "violation_pct_tecfan": _check(
            max(violation), "%", "<= 0.5", max(violation) <= 0.5 + 1e-7),
    }
    return Outcome(sim_s, 1e9 * tec_energy / tec_inst, checks, h.hexdigest())


# ----------------------------------------------------------------------
# Fig. 7: TECfan vs OFTEC vs Oracle vs Oracle-P on the 4-core server
# ----------------------------------------------------------------------
def _server_setup(seed: int, smoke: bool) -> dict:
    from repro.fleet.traces import cached_wikipedia_trace
    from repro.server.platform import build_server_system

    platform = build_server_system()
    cached_wikipedia_trace(seed=seed)  # trace synthesis is set-up
    return {"platform": platform}


def _server_execute(inputs: dict, seed: int, smoke: bool, jobs: int):
    from repro.analysis.server_experiment import run_server_comparison

    return run_server_comparison(
        seed=seed, minutes=1 if smoke else SERVER_MINUTES, platform=inputs["platform"]
    )


def _server_finish(inputs: dict, comp) -> Outcome:
    from repro.checkpoint import result_digest

    h = hashlib.sha256()
    for name, res in comp.results.items():
        h.update(name.encode())
        h.update(result_digest(res).encode())
    norm = comp.normalized_to_oftec()
    tec, orc, orp = norm["TECfan"], norm["Oracle"], norm["Oracle-P"]
    checks = {
        "fig7_energy_tecfan": _check(tec["energy"], "x", "< 0.85", tec["energy"] < 0.85),
        "fig7_delay_tecfan": _check(tec["delay"], "x", "< 1.01", tec["delay"] < 1.01),
        "fig7_oracle_energy_gap": _check(
            orc["energy"] - tec["energy"], "x", "<= 0.01",
            orc["energy"] <= tec["energy"] + 0.01),
        "fig7_delay_oracle": _check(orc["delay"], "x", "< 1.05", orc["delay"] < 1.05),
        "fig7_oracle_p_energy_gap": _check(
            abs(orp["energy"] - tec["energy"]), "x", "< 0.05",
            abs(orp["energy"] - tec["energy"]) < 0.05),
        "fig7_oracle_p_delay_gap": _check(
            orp["delay"] - tec["delay"], "x", "<= 0.01",
            orp["delay"] <= tec["delay"] + 0.01),
        "fig7_energy_err": _check(abs(tec["energy"] - 0.71), "x"),
    }
    sim_s = sum(r.metrics.execution_time_s for r in comp.results.values())
    m = comp.results["TECfan"].metrics
    return Outcome(sim_s, 1e9 * m.energy_j / m.instructions, checks, h.hexdigest())


# ----------------------------------------------------------------------
# Fleets: the batched N-node tier, one shard, serial
# ----------------------------------------------------------------------
FLEETS = {
    # name: (nodes, duration_s, trace, scale); smoke: 8 nodes x 10 min.
    "fleet_diurnal": (64, 12 * 3600, "diurnal", 1.0),
    "fleet_overload": (56, 3600, "wikipedia", 1.3),
}


def _fleet_config(name: str, seed: int, smoke: bool):
    from repro.fleet import FleetConfig

    nodes, duration, trace, scale = FLEETS[name]
    if smoke:
        nodes, duration = 8, 600
    return FleetConfig(
        n_nodes=nodes, duration_s=duration, trace=trace, scale=scale,
        seed=seed, router="round-robin", shards=1,
    )


def _fleet_setup(name: str):
    def setup(seed: int, smoke: bool) -> dict:
        from repro.fleet.traces import fleet_demand
        from repro.server.platform import build_server_system

        cfg = _fleet_config(name, seed, smoke)
        platform = build_server_system()
        fleet_demand(cfg.trace, cfg.duration_s, seed=cfg.seed, scale=cfg.scale,
                     block_s=cfg.block_s)  # trace synthesis is set-up
        return {"platform": platform, "cfg": cfg}

    return setup


def _fleet_execute(inputs: dict, seed: int, smoke: bool, jobs: int):
    from repro.fleet import run_fleet

    return run_fleet(inputs["cfg"], platform=inputs["platform"], jobs=1)


def _fleet_finish(inputs: dict, res) -> Outcome:
    cfg = inputs["cfg"]
    drained = res.sim_time_s < cfg.duration_s * cfg.drain_factor
    conservation = abs(res.requests_served - res.requests_routed) / res.requests_routed
    steps = round(res.sim_time_s / cfg.dt_s)
    inst_per_request = inputs["platform"].params.peak_ips / cfg.requests_per_core_s
    checks = {
        "work_conservation_rel": _check(
            conservation, "ratio", "<= 1e-9 (drained)", drained and conservation <= 1e-9),
        "interval_accounting": _check(
            res.intervals + res.ff_intervals - steps, "count", "== 0",
            res.intervals + res.ff_intervals == steps),
        "energy_per_request_mj": _check(1e3 * res.energy_per_request_j, "mJ"),
        "request_p99_s": _check(res.p99_latency_s, "s"),
        "node_violation_rate": _check(res.violation_rate, "ratio"),
        "ff_share": _check(res.ff_intervals / steps, "ratio"),
    }
    epi = 1e9 * res.energy_j / (res.requests_served * inst_per_request)
    return Outcome(res.n_nodes * res.sim_time_s, epi, checks, res.digest)


#: Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("splash_suite", _splash_setup, _splash_execute, _splash_finish,
                 "splash", seeded=False),
        Workload("splash_pooled", _splash_setup, _splash_execute, _splash_finish,
                 "splash", seeded=False, jobs=POOL_JOBS),
        Workload("server_fig7", _server_setup, _server_execute, _server_finish,
                 "server_fig7", seeded=True),
        Workload("fleet_diurnal", _fleet_setup("fleet_diurnal"), _fleet_execute,
                 _fleet_finish, "fleet_diurnal", seeded=True),
        Workload("fleet_overload", _fleet_setup("fleet_overload"), _fleet_execute,
                 _fleet_finish, "fleet_overload", seeded=True),
    )
}


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def _cpu_s() -> float:
    """Host CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest child [MiB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _trace_ratios(tracer, tel, workload: Workload, wall_s: float) -> dict:
    """Per-layer metrics plus the ratios read from the program's counters."""
    from layers import layer_metrics, leakage_iterations

    out = layer_metrics(tracer, wall_s)
    counters = tel.metrics.snapshot()["counters"]
    spans = tel.spans.stats

    def c(name: str) -> float:
        return float(counters.get(name, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def spans_of(callable_name: str) -> list[float]:
        return [
            (end - start) / 1e9
            for cid, start, end in zip(tracer.callable_ids, tracer.starts, tracer.ends)
            if tracer.names[cid] == callable_name
        ]

    lookups = sum(spans[n].count for n in ("thermal.solve", "thermal.solve_many") if n in spans)
    hits = c("estimator.cache_hits")
    ff, steps = c("fleet.fast_forwarded_intervals"), c("fleet.batched_steps")
    map_s = sum(spans_of("WorkerPool.map"))
    out.update({
        "thermal.cache_hit_rate": 1.0 - ratio(c("thermal.factorizations"), lookups)
        if lookups else 0.0,
        "thermal.factorizations": c("thermal.factorizations"),
        "thermal.leakage_loop.iters": leakage_iterations(tracer),
        "core.estimator.memo_hit_rate": ratio(hits, hits + c("estimator.evaluations")),
        "core.estimator.batch_width": ratio(
            c("estimator.batch_candidates"), c("estimator.batch_calls")),
        "fleet.sim.ff_share": ratio(ff, ff + steps),
        "fleet.stepper.batch_width": ratio(c("fleet.nodes") * steps, c("fleet.class_groups")),
        "parallel.pools": float(len(spans_of("WorkerPool.__init__"))),
        "parallel.map_s": map_s,
        "parallel.utilization": ratio(
            tracer.worker_engine_s, map_s * workload.jobs),
        "parallel.shm_bytes": c("parallel.shm_bytes"),
    })
    return out


def run_pass(name: str, seed: int, smoke: bool, trace: bool, setup_only: bool,
             launch_ns: int, spans_path: str | None) -> dict:
    """Set up, time and check one pass; returns the JSON record."""
    workload = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "smoke": smoke, "traced": trace}
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer().install()
    inputs = workload.setup(seed, smoke)
    record["setup_s"] = (time.monotonic_ns() - launch_ns) / 1e9
    if setup_only:
        return record

    session = contextlib.nullcontext()
    if trace:
        from repro.obs import Telemetry, telemetry_session

        tracer.reset()
        tel = Telemetry(record_events=False)
        session = telemetry_session(tel)
    with session:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        raw = workload.execute(inputs, seed, smoke, workload.jobs)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    outcome = workload.finish(inputs, raw)
    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=_peak_rss_mb(),
        sim_node_s=outcome.sim_node_s,
        sim_epi_nj=outcome.sim_epi_nj,
        checks=outcome.checks,
        digest=outcome.digest,
        digest_group=workload.digest_group,
    )
    if trace:
        record["layers"] = _trace_ratios(tracer, tel, workload, wall_s)
        record["spans"] = len(tracer)
        if spans_path:
            tracer.save(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one pass of one e2e workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--launch-ns", type=int, default=None)
    parser.add_argument("--spans", default=None, help="write traced spans here (.npz)")
    args = parser.parse_args(argv)
    launch_ns = args.launch_ns if args.launch_ns is not None else time.monotonic_ns()
    try:
        record = run_pass(args.workload, args.seed, args.smoke, args.trace,
                          args.setup_only, launch_ns, args.spans)
    except Exception:  # reported to the parent, which counts the pass failed
        record = {"workload": args.workload, "seed": args.seed,
                  "error": traceback.format_exc()}
        print(json.dumps(record))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
