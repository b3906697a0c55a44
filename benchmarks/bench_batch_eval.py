"""Benchmark: batched what-if evaluation vs per-candidate calls.

Measures the two layers this perf subsystem adds:

1. **Candidate rounds** — one many-candidate ``evaluate_many`` (an
   :class:`~repro.core.estimator.EstimateBatch`) against per-candidate
   ``evaluate`` calls (each a one-candidate batch through the same code
   path) on the 16-core chip, for both the full
   (:class:`~repro.core.estimator.NextIntervalEstimator`) and banded
   (:class:`~repro.core.local_estimator.LocalBandedEstimator`)
   estimators. Every round is a fresh interval (``begin_interval`` and
   the applied state's evaluation, untimed). Equivalence of each batch
   row's scores and field with the per-candidate ``Estimate`` is
   asserted bit-exactly on every round.
2. **Experiment fan-out** — a fan-sweep *matrix* (every SPLASH-2
   workload x every fan level) through the persistent
   :class:`~repro.parallel.WorkerPool`, serial vs pooled, with a
   bit-identity assertion on every cell. Pool start-up (spawn + numpy/
   scipy imports) is timed separately via ``WorkerPool.prime`` so the
   steady-state speedup is honest about what a long suite actually
   sees. The speedup gate scales with the CPUs actually available
   (``min(jobs, affinity, tasks)``): at ``--jobs 16`` on a 16-core host
   the matrix must reach >= 8x over serial; on a CPU-starved CI runner
   the pooled path must instead stay within 1.8x of serial wall time
   (the pre-pool runtime was ~12x *slower*; see the 0.086x record kept
   under ``history`` in the baseline JSON).

Run directly (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_batch_eval.py
    PYTHONPATH=src python benchmarks/bench_batch_eval.py --smoke

The full run writes ``benchmarks/results/BENCH_batch_eval.json`` — the
tracked perf baseline; refresh it whenever the evaluation hot path
changes (see ``docs/PERFORMANCE.md``). ``--smoke`` is the CI
configuration: a tiny chip, correctness assertions and a printed
speedup, no timing gates and no baseline rewrite.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE = RESULTS_DIR / "BENCH_batch_eval.json"


def _measurements(system, seed=0):
    """One interval's plant measurements, with levels mid-table so
    one-level moves exist in both directions."""
    from repro.core.state import ActuatorState

    rng = np.random.default_rng(seed)
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, 2
    )
    state = state.with_dvfs_vector(
        np.full(system.n_cores, system.dvfs.max_level // 2)
    )
    temps = 60.0 + 10.0 * rng.random(system.nodes.n_components)
    p = 1.0 + rng.random(system.nodes.n_components)
    ips = 1e9 * (1.0 + rng.random(system.n_cores))
    return temps, p, ips, state, 2e-3


def _primed(cls, system, seed=0):
    from repro.perf.ips import IPSTracker

    est = cls(system=system, ips_predictor=IPSTracker(dvfs=system.dvfs))
    measured = _measurements(system, seed)
    est.begin_interval(*measured)
    return est, measured[3]


def _round_candidates(system, state):
    """One controller round's worth of candidates: all one-level DVFS
    moves — the ``_best_raise``/``_best_lowering`` sets the controller
    hands to ``evaluate_many`` each decision interval."""
    cands = []
    for core in range(system.n_cores):
        lv = int(state.dvfs[core])
        if lv < system.dvfs.max_level:
            cands.append(state.with_dvfs(core, lv + 1))
        if lv > 0:
            cands.append(state.with_dvfs(core, lv - 1))
    return cands


def bench_candidate_rounds(system, kind: str, rounds: int) -> dict:
    """Per-candidate vs batched evaluation of identical candidate rounds."""
    from repro.core.estimator import BATCH_SCORES, NextIntervalEstimator
    from repro.core.local_estimator import LocalBandedEstimator

    cls = {
        "full": NextIntervalEstimator,
        "banded": LocalBandedEstimator,
    }[kind]

    est_seq, state = _primed(cls, system)
    est_bat, _ = _primed(cls, system)
    cands = _round_candidates(system, state)
    measured = _measurements(system)

    # Each round is a fresh interval: ``begin_interval`` drops the banded
    # core table. The applied state is evaluated outside
    # the timed region, as a controller does before its candidate rounds;
    # for the banded estimator that fills every level of the applied
    # tile patterns, so the timed rounds measure scoring.
    t_seq = 0.0
    t_bat = 0.0
    for _ in range(rounds):
        est_seq.begin_interval(*measured)
        est_seq.evaluate(state)
        t0 = time.perf_counter()
        seq = [est_seq.evaluate(c) for c in cands]
        t_seq += time.perf_counter() - t0

        est_bat.begin_interval(*measured)
        est_bat.evaluate(state)
        t0 = time.perf_counter()
        bat = est_bat.evaluate_many(cands)
        t_bat += time.perf_counter() - t0

        for j, s in enumerate(seq):
            assert np.array_equal(s.t_nodes_k, bat[j].t_nodes_k), kind
            for name, attr in BATCH_SCORES:
                assert getattr(bat, name)[j] == getattr(s, attr), kind

    return {
        "estimator": kind,
        "candidates_per_round": len(cands),
        "rounds": rounds,
        "sequential_ms_per_round": 1e3 * t_seq / rounds,
        "batched_ms_per_round": 1e3 * t_bat / rounds,
        "speedup": t_seq / t_bat if t_bat > 0 else float("inf"),
    }


def _sweep_workloads(threads: int) -> list[str]:
    """Matrix rows: every workload with a Table I entry at this size."""
    from repro.perf.splash2 import TABLE1_TARGETS

    return [r.workload for r in TABLE1_TARGETS if r.threads == threads]

_TRACE_FIELDS = (
    "time_s",
    "dt_s",
    "peak_temp_c",
    "p_chip_w",
    "p_tec_w",
    "p_fan_w",
    "ips_chip",
    "tec_on",
    "fan_level",
    "mean_dvfs_level",
)


def _assert_cells_identical(serial, pooled) -> None:
    for i, (a, b) in enumerate(zip(serial, pooled)):
        for fld in _TRACE_FIELDS:
            assert np.array_equal(
                getattr(a.trace, fld), getattr(b.trace, fld)
            ), f"cell {i}: trace.{fld} diverged"
        assert a.metrics == b.metrics, f"cell {i}: metrics diverged"


def bench_sweep(system, jobs: int, max_time_s: float) -> dict:
    """Fan-sweep matrix through the pool: serial vs pooled, same bits.

    Every (workload, fan level) pair is one task; the engine +
    controller ship once per worker as shared pool context so the
    thermal caches warm up across a worker's cells, exactly as the
    serial loop's do.
    """
    from repro.core.baselines import FanTECController
    from repro.core.engine import (
        EngineConfig,
        SimulationEngine,
        _fan_sweep_task,
    )
    from repro.core.problem import EnergyProblem
    from repro.parallel import WorkerPool, available_cpus, parallel_map
    from repro.perf import splash2_workload
    from repro.perf.splash2 import REF_FREQ_GHZ
    from repro.perf.workload import WorkloadRun

    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=76.0),
        EngineConfig(max_time_s=max_time_s),
    )
    controller = FanTECController()
    context = (engine, controller)
    workloads = _sweep_workloads(system.n_cores)
    # Size the measured pool to the CPUs actually grantable: workers
    # beyond the affinity mask cannot run concurrently, they only
    # multiply cold caches — a deployment would use --jobs 0 (auto).
    pool_jobs = max(2, min(jobs, available_cpus()))

    def matrix():
        # Fresh runs per pass: the engine consumes each run's
        # instruction accounting.
        return [
            (WorkloadRun(splash2_workload(w, system.n_cores, system.chip),
                         system.chip, REF_FREQ_GHZ), level)
            for w in workloads
            for level in range(1, system.fan.n_levels + 1)
        ]

    t0 = time.perf_counter()
    serial = parallel_map(_fan_sweep_task, matrix(), jobs=1, context=context)
    t_serial = time.perf_counter() - t0

    with WorkerPool(pool_jobs) as pool:
        t0 = time.perf_counter()
        pool.prime()  # spawn + import, paid once per suite
        t_startup = time.perf_counter() - t0
        t0 = time.perf_counter()
        pooled = parallel_map(
            _fan_sweep_task, matrix(), context=context, pool=pool
        )
        t_pool = time.perf_counter() - t0

    _assert_cells_identical(serial, pooled)
    n_tasks = len(workloads) * system.fan.n_levels
    effective = max(1, min(pool_jobs, available_cpus(), n_tasks))
    return {
        "workloads": len(workloads),
        "fan_levels": system.fan.n_levels,
        "tasks": n_tasks,
        "jobs_requested": jobs,
        "jobs": pool_jobs,
        "effective_cpus": effective,
        "serial_s": t_serial,
        "pool_startup_s": t_startup,
        "pooled_s": t_pool,
        "speedup": t_serial / t_pool if t_pool > 0 else float("inf"),
    }


def sweep_gate(entry: dict) -> str | None:
    """The fan-out acceptance gate, scaled to the CPUs actually there.

    With ``eff`` usable CPUs the pooled matrix must reach at least
    ``eff / 2``x over serial (>= 8x at ``--jobs 16`` on a 16-core
    host). Starved of CPUs (``eff == 1``) real speedup is impossible —
    two workers timeshare one core and each re-warms its own thermal
    caches — so the gate flips to an overhead bound: the pooled path
    must stay within 1.8x of serial wall time, versus the order of
    magnitude the old per-task spawn lost (0.086x ~= 11.6x slower).
    """
    eff = entry["effective_cpus"]
    speedup = entry["speedup"]
    if eff >= 2:
        need = eff / 2.0
        if speedup < need:
            return (
                f"matrix speedup {speedup:.2f}x < {need:.1f}x "
                f"(= effective_cpus {eff} / 2)"
            )
    elif entry["pooled_s"] > 1.8 * entry["serial_s"]:
        return (
            f"pooled overhead {entry['pooled_s']:.2f} s > 1.8x serial "
            f"{entry['serial_s']:.2f} s on a single-CPU host"
        )
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny chip, correctness only, no baseline rewrite",
    )
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.core.system import build_system

    if args.smoke:
        system = build_system(rows=2, cols=2)
        rounds = args.rounds or 5
        max_time_s = 0.02
    else:
        system = build_system()  # the paper's 16-core platform
        rounds = args.rounds or 50
        max_time_s = 0.1

    report = {
        "mode": "smoke" if args.smoke else "full",
        "cores": system.n_cores,
        "candidate_rounds": [],
    }
    ok = True
    for kind in ("full", "banded"):
        entry = bench_candidate_rounds(system, kind, rounds)
        report["candidate_rounds"].append(entry)
        print(
            f"{kind:7s}: {entry['candidates_per_round']} candidates/round, "
            f"sequential {entry['sequential_ms_per_round']:.2f} ms, "
            f"batched {entry['batched_ms_per_round']:.2f} ms "
            f"-> {entry['speedup']:.2f}x"
        )
        if not args.smoke and entry["speedup"] < 3.0:
            print(f"FAIL: {kind} speedup {entry['speedup']:.2f}x < 3x")
            ok = False

    sweep = bench_sweep(system, args.jobs, max_time_s)
    report["fan_sweep"] = sweep
    print(
        f"fan-sweep matrix ({sweep['tasks']} tasks = "
        f"{sweep['workloads']} workloads x {sweep['fan_levels']} levels): "
        f"serial {sweep['serial_s']:.2f} s, jobs={sweep['jobs']} "
        f"(effective cpus {sweep['effective_cpus']}) pooled "
        f"{sweep['pooled_s']:.2f} s (+{sweep['pool_startup_s']:.2f} s "
        f"one-off pool start-up) -> {sweep['speedup']:.2f}x"
    )
    if not args.smoke:
        failure = sweep_gate(sweep)
        if failure is not None:
            print(f"FAIL: {failure}")
            ok = False

    if not args.smoke:
        # Keep prior baselines (e.g. the pre-pool 0.086x fan sweep) so
        # the regression story stays in the committed record.
        history = []
        if BASELINE.exists():
            old = json.loads(BASELINE.read_text())
            history = old.pop("history", [])
            history.append(old)
        report["history"] = history
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[saved to {BASELINE}]")
    print("equivalence: OK (all rounds bit-identical)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
