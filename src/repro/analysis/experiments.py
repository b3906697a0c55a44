"""Standardized experiment flows shared by benchmarks, tests, examples.

The paper's SPLASH-2 methodology (Secs. IV-C, V-B..V-D):

1. **Base scenario** — all cores at peak DVFS, fan at its highest speed,
   all TECs off. Its execution time / processor power / peak temperature
   regenerate Table I, and its peak temperature becomes the threshold
   ``T_th`` for every policy run of that workload.
2. **Policy runs** — each policy is simulated at every fan speed level;
   the slowest level that keeps the violation rate within tolerance is
   selected (:func:`repro.core.engine.run_fan_sweep`).

:func:`run_base_scenario` and :func:`run_policy_suites` (one worker pool
for every case's policy runs) encode those two steps, so every figure
regenerates from the same flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import (
    DVFSTECController,
    FanDVFSController,
    FanOnlyController,
    FanTECController,
)
from repro.core.controller import Controller
from repro.core.engine import (
    EngineConfig,
    SimulationEngine,
    SimulationResult,
    run_fan_sweep,
)
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem, build_system
from repro.core.tecfan import TECfanController
from repro.exceptions import ConfigurationError
from repro.perf.splash2 import REF_FREQ_GHZ, splash2_workload
from repro.perf.workload import WorkloadRun

#: Default lower-level control period (Sec. III-D).
DT_LOWER_S: float = 2e-3

#: Generous wall-clock cap per simulated run [simulated seconds]; the
#: SPLASH-2 runs finish in tens of milliseconds even fully throttled.
MAX_SIM_TIME_S: float = 2.0


def make_policies() -> list[Controller]:
    """The paper's policy set for Figs. 5-6, in plotting order."""
    return [
        FanOnlyController(),
        FanTECController(),
        FanDVFSController(),
        DVFSTECController(),
        TECfanController(),
    ]


@dataclass
class BaseScenario:
    """Outcome of the base-scenario run for one (workload, threads)."""

    workload: str
    threads: int
    result: SimulationResult
    #: The measured base peak, which becomes T_th (Sec. V-B).
    t_threshold_c: float

    @property
    def time_ms(self) -> float:
        """Execution time [ms] (Table I column)."""
        return self.result.metrics.execution_time_s * 1e3

    @property
    def processor_power_w(self) -> float:
        """Average processor (cores-only) power [W] (Table I column).

        Table I comes from SESC/Wattch and excludes the cooling system;
        subtract the fan's constant draw from the recorded chip power.
        """
        trace = self.result.trace
        fan_energy = float((trace.p_fan_w * trace.dt_s).sum())
        t = float(trace.dt_s.sum())
        return (trace.energy_j() - fan_energy) / t


def run_base_scenario(
    system: CMPSystem,
    workload: str,
    threads: int,
    dt_s: float = DT_LOWER_S,
) -> BaseScenario:
    """Run the base scenario and derive the temperature threshold."""
    wl = splash2_workload(workload, threads, system.chip)
    # The threshold only gates the metrics here; use a placeholder that
    # the base scenario never violates.
    problem = EnergyProblem(t_threshold_c=125.0)
    engine = SimulationEngine(
        system, problem, EngineConfig(dt_lower_s=dt_s, max_time_s=MAX_SIM_TIME_S)
    )
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, fan_level=1
    )
    run = WorkloadRun(wl, system.chip, REF_FREQ_GHZ)
    result = engine.run(run, FanOnlyController(), initial_state=state)
    return BaseScenario(
        workload=workload,
        threads=threads,
        result=result,
        t_threshold_c=result.metrics.peak_temp_c,
    )


@dataclass
class PolicyOutcome:
    """One policy's selected run plus its full fan sweep."""

    policy: str
    chosen: SimulationResult
    sweep: list = field(default_factory=list)


def _policy_suite_task(system: CMPSystem, payload: tuple) -> tuple:
    """One policy's simulation of one case (module-level: spawn-picklable).

    ``system`` is the pool's shared context: it ships once per worker and
    its LU/propagator caches stay warm across every case and policy that
    worker runs. ``payload`` is ``(workload, threads, t_threshold_c,
    dt_s, policy, violation_tolerance)``; the cache-free problem, engine,
    workload and ``make_run`` closure are rebuilt here.
    """
    workload, threads, t_threshold_c, dt_s, policy, tolerance = payload
    problem = EnergyProblem(t_threshold_c=t_threshold_c)
    engine = SimulationEngine(
        system, problem, EngineConfig(dt_lower_s=dt_s, max_time_s=MAX_SIM_TIME_S)
    )
    wl = splash2_workload(workload, threads, system.chip)
    if isinstance(policy, TECfanController):
        return run_tecfan_with_own_fan_rule(engine, wl, policy, problem)
    return run_fan_sweep(
        engine,
        lambda: WorkloadRun(wl, system.chip, REF_FREQ_GHZ),
        policy,
        violation_tolerance=tolerance,
    )


def run_policy_suites(
    system: CMPSystem,
    cases,
    policies: list[Controller] | None = None,
    dt_s: float = DT_LOWER_S,
    violation_tolerance: float = 0.10,
    jobs: int | None = None,
    bases: dict | None = None,
) -> dict[tuple, tuple[BaseScenario, dict[str, PolicyOutcome]]]:
    """Base scenarios + fan-swept policy runs for several workload cases.

    Returns ``{(workload, threads): (base, {policy name: outcome})}`` in
    ``cases`` order. The cheap base scenarios (``bases`` may supply
    some) run first, in-process, since each fixes its case's ``T_th``.
    Every (case x policy) run then goes through *one*
    :func:`repro.parallel.parallel_map` in case-major, plotting order:
    one pool for the whole suite, ``system`` its warm shared context,
    outcomes identical for any ``jobs``. Fan-only *is* the base scenario
    (Sec. V-A: any slower fan already violates), so it is not re-run.
    Duplicate policy names raise :class:`ConfigurationError`.
    """
    from repro.parallel import parallel_map

    fresh = make_policies if policies is None else (lambda: list(policies))
    names = [p.name for p in fresh()]
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        raise ConfigurationError(f"duplicate policy names {dup}")
    suites = {}
    for case in map(tuple, cases):
        base = (bases or {}).get(case) or run_base_scenario(system, *case, dt_s)
        suites[case] = (base, fresh())
    payloads = [
        (*case, base.t_threshold_c, dt_s, policy, violation_tolerance)
        for case, (base, policy_list) in suites.items()
        for policy in policy_list
        if not isinstance(policy, FanOnlyController)
    ]
    pairs = iter(parallel_map(_policy_suite_task, payloads, jobs, context=system))
    out = {}
    for case, (base, policy_list) in suites.items():
        outcomes: dict[str, PolicyOutcome] = {}
        for policy in policy_list:
            if isinstance(policy, FanOnlyController):
                chosen, sweep = base.result, [base.result.metrics]
            else:
                chosen, sweep = next(pairs)
            outcomes[policy.name] = PolicyOutcome(policy.name, chosen, sweep)
        out[case] = (base, outcomes)
    return out


def run_policy_suite(
    system: CMPSystem,
    workload: str,
    threads: int,
    policies: list[Controller] | None = None,
    dt_s: float = DT_LOWER_S,
    violation_tolerance: float = 0.10,
    base: BaseScenario | None = None,
    jobs: int | None = None,
) -> tuple[BaseScenario, dict[str, PolicyOutcome]]:
    """Base scenario + fan-swept policy runs for one workload case: the
    one-case call of :func:`run_policy_suites` (``base`` skips the base
    run; ``jobs`` fans the per-policy simulations out)."""
    case = (workload, threads)
    return run_policy_suites(
        system, [case], policies, dt_s, violation_tolerance, jobs,
        bases=None if base is None else {case: base},
    )[case]


def run_tecfan_with_own_fan_rule(
    engine: SimulationEngine,
    wl,
    policy: TECfanController,
    problem: EnergyProblem,
    max_rounds: int = 4,
    violation_tol: float = 0.05,
    delay_tol: float = 0.05,
) -> tuple[SimulationResult, list]:
    """Fixed-point of TECfan's *own* higher-level fan rule (Sec. III-D).

    The benchmarks are far shorter than the heat sink's 15-30 s time
    constant, so — exactly like the paper — the fan level cannot be
    adapted inside a run. Instead we iterate the hierarchy at run
    granularity: simulate at the current level, feed the run's average
    component power and average (fractional) TEC state to the higher
    level's estimate, and move one level at a time until it reaches a
    fixed point. Crucially, the higher level evaluates the chip's
    *current* power draw (performance priority keeps DVFS near the top);
    it does not search the throttled configurations an offline
    energy-minimizing sweep would find — that is the hierarchical
    decomposition the paper describes.
    """
    system = engine.system
    level = 1
    history: list = []
    seen: dict[int, SimulationResult] = {}
    result = None
    # Performance reference: critical-path time at the top DVFS level.
    probe = WorkloadRun(wl, system.chip, REF_FREQ_GHZ)
    ideal_time_s = probe.time_to_completion_s(
        system.dvfs.frequency_ghz(
            np.full(system.n_cores, system.dvfs.max_level)
        )
    )
    for _ in range(max_rounds + system.fan.n_levels):
        if level in seen:
            result = seen[level]
            break
        policy.reset()
        state = ActuatorState.initial(
            system.n_tec_devices,
            system.n_cores,
            system.dvfs.max_level,
            fan_level=level,
        )
        result = engine.run(
            WorkloadRun(wl, system.chip, REF_FREQ_GHZ),
            policy,
            initial_state=state,
        )
        seen[level] = result
        history.append(result.metrics)
        # Performance priority: the fan only stays slow / slows further
        # if the lower level is holding the threshold *without* leaning
        # on DVFS throttling (Sec. III-D's division of labour).
        delay_ratio = result.metrics.execution_time_s / ideal_time_s
        struggling = (
            result.metrics.violation_rate > violation_tol
            or delay_ratio > 1.0 + delay_tol
        )
        if struggling:
            if level <= 1:
                break
            level -= 1
            continue
        # Higher-level estimate from the run's true averages (Sec. III-D:
        # "the average power ... and the average TEC on/off state", which
        # "means we can have intermediate state"), counting on TEC assist
        # for the would-be hot spots.
        slower_ok = level < system.fan.n_levels and (
            fan_level_feasible_with_tec_assist(
                system,
                result.avg_p_components_w,
                level + 1,
                problem,
                start_tec=result.avg_tec,
            )
        )
        if slower_ok:
            level += 1
            continue
        break
    return result, history


def fan_level_feasible_with_tec_assist(
    system: CMPSystem,
    avg_p_components_w: np.ndarray,
    fan_level: int,
    problem: EnergyProblem,
    start_tec: np.ndarray | None = None,
) -> bool:
    """Higher-level feasibility of a fan level, counting on TEC help.

    The whole point of the hierarchy (Sec. III) is that the fan "no
    longer needs to be set at a high speed to cool down local hot
    spots" because the lower level's TECs will absorb them. The fan
    loop therefore asks: at this level and the period's average power,
    can the steady state be brought below T_th by switching TECs on
    over whatever runs hot? (DVFS is deliberately *not* consulted —
    performance has priority, so the fan never banks on throttling.)
    """
    from repro import units as _units

    tec = (
        np.clip(np.asarray(start_tec, dtype=float), 0.0, 1.0).copy()
        if start_tec is not None
        else np.zeros(system.n_tec_devices)
    )
    for _ in range(system.n_tec_devices):
        t = system.solver.solve(avg_p_components_w, fan_level, tec)
        temps_c = _units.k_to_c(t[system.nodes.component_slice])
        if problem.satisfied(float(temps_c.max())):
            return True
        hot = np.flatnonzero(temps_c > problem.t_threshold_c)
        turned_on = False
        for ci in hot:
            for dev in system.tec.devices_over_component(int(ci)):
                if tec[dev] < 1.0:
                    tec[dev] = 1.0
                    turned_on = True
        if not turned_on:
            return False
    return False


def default_system() -> CMPSystem:
    """The paper's 16-core platform with calibrated defaults."""
    return build_system()
