"""Fault-matrix robustness study: hardened vs unhardened TECfan.

The paper assumes ideal actuators and sensors. This study asks the
deployment question instead: *what happens when one thing breaks mid
run?* Three single-fault scenarios target the three hardware layers —

* ``fan_stuck`` — the fan latches at its slowest level while the
  controller keeps commanding a faster one;
* ``tec_tile_dead`` — every TEC device over the hottest tile goes
  stuck-off (one dead driver channel in Sec. III-E's array);
* ``sensor_stuck`` — the hottest component's sensor latches at a
  plausible-but-cool value, hiding the hot spot from the controller.

Each scenario runs twice on identical plants and fault scripts:
**unhardened** (faults only — the paper's controller meets reality) and
**hardened** (faults + thermal watchdog + actuator-health masking +
sensor validation + estimator fallback). The figure of merit is the
*excess fraction*: the share of simulated time the true peak exceeds
``T_th + margin``. A hardened run must stay within the margin at least
99 % of the time; the unhardened controller is expected to violate (or
crash) on at least one scenario — that contrast is what
``benchmarks/bench_robustness.py`` asserts.

The methodology mirrors the repo's SPLASH-2 flow: the base scenario
(fastest fan, peak DVFS, no TEC) defines ``T_th``, then the policy runs
one fan level slower so it must actively manage temperature — the
regime where a dead actuator or lying sensor actually matters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.experiments import run_base_scenario
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem
from repro.core.tecfan import TECfanController
from repro.core.trace import TraceRecorder
from repro.exceptions import ReproError
from repro.faults import (
    FanStuckFault,
    FaultScheduler,
    HealthConfig,
    SensorStuckFault,
    TECStuckFault,
    WatchdogConfig,
)
from repro.obs import Telemetry, telemetry_session
from repro.perf.splash2 import REF_FREQ_GHZ, splash2_workload
from repro.perf.workload import WorkloadRun

#: Tolerated exceedance above the threshold for the robustness claim
#: [degC]: transients within ``T_th + 2`` still count as contained.
VIOLATION_MARGIN_C = 2.0

#: Minimum time share the hardened controller must keep the true peak
#: within the margin, per scenario.
CONTAINMENT_TARGET = 0.99

#: Failures that count as "the unhardened run crashed" rather than
#: propagating out of the study (singular solves surface as
#: ``RuntimeError``/``LinAlgError`` from the native layers).
_RUN_CRASHES = (ReproError, np.linalg.LinAlgError, RuntimeError)


def excess_fraction(
    trace: TraceRecorder,
    t_threshold_c: float,
    margin_c: float = VIOLATION_MARGIN_C,
) -> float:
    """Share of simulated time the true peak exceeded ``T_th + margin``."""
    dt = np.asarray(trace.dt_s, dtype=float)
    peak = np.asarray(trace.peak_temp_c, dtype=float)
    total = float(dt.sum())
    if total <= 0.0:
        return 0.0
    return float(dt[peak > t_threshold_c + margin_c].sum() / total)


@dataclass(frozen=True)
class ScenarioOutcome:
    """One (scenario, hardened?) run of the matrix."""

    scenario: str
    hardened: bool
    crashed: bool
    error: str | None
    peak_temp_c: float
    excess_frac: float
    violation_rate: float
    energy_j: float
    counters: dict = field(default_factory=dict)

    @property
    def contained(self) -> bool:
        """Did the run keep the true peak inside ``T_th + margin``
        for at least :data:`CONTAINMENT_TARGET` of the time?"""
        return not self.crashed and (
            1.0 - self.excess_frac
        ) >= CONTAINMENT_TARGET


@dataclass(frozen=True)
class FaultMatrixReport:
    """Everything one matrix run produces."""

    workload: str
    threads: int
    t_threshold_c: float
    margin_c: float
    hot_component: int
    hot_tile: int
    outcomes: list

    def outcome(self, scenario: str, hardened: bool) -> ScenarioOutcome:
        for oc in self.outcomes:
            if oc.scenario == scenario and oc.hardened == hardened:
                return oc
        raise KeyError(f"{scenario}/{'hardened' if hardened else 'raw'}")

    @property
    def unhardened_failures(self) -> list:
        """Scenario names where the plain controller crashed or
        escaped the envelope (excludes the no-fault control row)."""
        return [
            oc.scenario
            for oc in self.outcomes
            if not oc.hardened
            and oc.scenario != "none"
            and not oc.contained
        ]


def hot_spot(system: CMPSystem, result) -> tuple[int, int]:
    """Hottest component and its tile under the run's average load.

    Solves the steady field at the run's time-averaged power and TEC
    state — the same estimate the fan controller uses — and takes the
    argmax component. Faults aimed here maximally stress the policy.
    """
    t = system.solver.solve(
        result.avg_p_components_w,
        int(result.final_state.fan_level),
        result.avg_tec,
    )
    comp = int(np.argmax(t[system.nodes.component_slice]))
    tile = int(system.chip.tile_of()[comp])
    return comp, tile


def default_scenarios(
    system: CMPSystem,
    hot_component: int,
    hot_tile: int,
    t_threshold_c: float,
    t_fault_s: float,
) -> dict:
    """The single-fault scripts of the matrix, keyed by scenario name."""
    dead_tile = [
        TECStuckFault(device=int(d), mode="stuck_off", t_start_s=t_fault_s)
        for d in np.flatnonzero(system.tec.device_tile == hot_tile)
    ]
    return {
        "none": [],
        "fan_stuck": [
            FanStuckFault(level=system.fan.n_levels, t_start_s=t_fault_s)
        ],
        "tec_tile_dead": dead_tile,
        "sensor_stuck": [
            SensorStuckFault(
                component=hot_component,
                # Plausibly cool: far enough below T_th that the
                # controller sees headroom and speeds the hot tile up.
                value_c=t_threshold_c - 20.0,
                t_start_s=t_fault_s,
            )
        ],
    }


_COUNTER_KEYS = (
    "faults.injected",
    "watchdog.trips",
    "health.masked_actuators",
    "health.masked_sensors",
    "controller.fallbacks",
    "temp.violations",
)


def _run_one(
    system: CMPSystem,
    problem: EnergyProblem,
    wl,
    fan_level: int,
    max_time_s: float,
    faults: list,
    hardened: bool,
    margin_c: float,
    scenario: str,
) -> ScenarioOutcome:
    cfg = EngineConfig(
        max_time_s=max_time_s,
        faults=FaultScheduler(list(faults)) if faults else None,
        # The study senses without noise, so the watchdog's debounce
        # (there to reject single noisy readings) only delays the trip:
        # one over-margin interval is already proof. Recovery is
        # deliberately reluctant (deep cool-down, long hold-down):
        # whatever tripped the watchdog is still broken, and every
        # probing re-entry costs an overshoot transient — the banded
        # estimator evaluates one core at a time, so the simultaneous
        # all-core ramp out of the refuge underestimates thermal
        # coupling exactly when headroom is scarcest. Limp-home beats
        # trip/recover chatter that burns the containment budget one
        # re-entry at a time.
        watchdog=(
            WatchdogConfig(
                trip_intervals=1,
                recover_margin_c=5.0,
                recover_intervals=500,
            )
            if hardened
            else None
        ),
        health=HealthConfig() if hardened else None,
        estimator_fallback=hardened,
    )
    engine = SimulationEngine(system, problem, cfg)
    state = ActuatorState.initial(
        system.n_tec_devices,
        system.n_cores,
        system.dvfs.max_level,
        fan_level=fan_level,
    )
    run = WorkloadRun(wl, system.chip, REF_FREQ_GHZ)
    tel = Telemetry()
    try:
        with telemetry_session(tel):
            result = engine.run(
                run, TECfanController(), initial_state=state
            )
    except _RUN_CRASHES as exc:
        return ScenarioOutcome(
            scenario=scenario,
            hardened=hardened,
            crashed=True,
            error=f"{type(exc).__name__}: {exc}",
            peak_temp_c=float("nan"),
            excess_frac=1.0,
            violation_rate=1.0,
            energy_j=float("nan"),
        )
    counters = tel.metrics.snapshot()["counters"]
    return ScenarioOutcome(
        scenario=scenario,
        hardened=hardened,
        crashed=False,
        error=None,
        peak_temp_c=result.metrics.peak_temp_c,
        excess_frac=excess_fraction(
            result.trace, problem.t_threshold_c, margin_c
        ),
        violation_rate=result.metrics.violation_rate,
        energy_j=result.metrics.energy_j,
        counters={
            k: int(counters.get(k, 0)) for k in _COUNTER_KEYS
        },
    )


@dataclass(frozen=True)
class MatrixCell:
    """One runnable (scenario, hardened?) cell of a fault matrix.

    Self-contained and picklable: everything a worker needs except the
    (heavy, cache-bearing) system, which travels separately as shared
    pool context. Cells from *different* matrices — e.g. one per
    workload — can therefore share one worker pool and its warm caches,
    which is how ``bench_robustness.py`` reaches real parallel speedup.
    """

    scenario: str
    hardened: bool
    problem: EnergyProblem
    wl: object
    fan_level: int
    max_time_s: float
    margin_c: float
    faults: tuple = ()


@dataclass(frozen=True)
class MatrixPlan:
    """A planned fault matrix: serial prologue done, cells ready to run.

    Produced by :func:`plan_fault_matrix` (base scenario -> threshold,
    reference run -> hot spot, fault scripts); consumed by
    :func:`run_fault_matrix` or any driver that wants to pool cells
    from several plans together.
    """

    workload: str
    threads: int
    t_threshold_c: float
    margin_c: float
    hot_component: int
    hot_tile: int
    reference: ScenarioOutcome
    cells: tuple

    def report(self, outcomes: list) -> FaultMatrixReport:
        """Assemble the report from this plan's cell ``outcomes``."""
        return FaultMatrixReport(
            workload=self.workload,
            threads=self.threads,
            t_threshold_c=self.t_threshold_c,
            margin_c=self.margin_c,
            hot_component=self.hot_component,
            hot_tile=self.hot_tile,
            outcomes=[self.reference] + list(outcomes),
        )


def _matrix_task(system: CMPSystem, cell: MatrixCell) -> ScenarioOutcome:
    """Run one :class:`MatrixCell` (module-level: spawn-picklable).

    ``system`` is the shared pool context, so a worker's solver (and
    its factorization caches) stays warm across the cells it runs.
    """
    return _run_one(
        system, cell.problem, cell.wl, cell.fan_level, cell.max_time_s,
        faults=list(cell.faults), hardened=cell.hardened,
        margin_c=cell.margin_c, scenario=cell.scenario,
    )


def plan_fault_matrix(
    system: CMPSystem,
    workload: str = "cholesky",
    threads: int = 16,
    fan_level: int = 2,
    max_time_s: float = 2.0,
    t_fault_s: float = 0.01,
    margin_c: float = VIOLATION_MARGIN_C,
    mission_scale: int = 6,
) -> MatrixPlan:
    """Plan a fault matrix: run the serial prologue, script the cells.

    ``t_fault_s`` is when (in recorded simulated time) each fault
    switches on — a few control intervals in, so every run starts from
    identical healthy behaviour and the divergence is attributable to
    the fault alone.

    ``mission_scale`` multiplies the workload's instruction count. A
    step fault always costs one uncontrollable over-margin interval
    (the interval in which it lands — no causal controller can undo
    it); the containment criterion is a *time share*, so the mission
    must be long enough that detection-latency transients are priced
    as transients rather than dominating a toy-length run.

    The base scenario (-> threshold) and reference run (-> hot spot)
    execute here, serially — every cell depends on what they produce.
    The returned plan's cells are then embarrassingly parallel.
    """
    base = run_base_scenario(system, workload, threads)
    problem = EnergyProblem(t_threshold_c=base.t_threshold_c)
    wl = splash2_workload(workload, threads, system.chip)
    if mission_scale > 1:
        wl = dataclasses.replace(
            wl, total_instructions=wl.total_instructions * mission_scale
        )

    # Reference run locates the hot spot the faults will target.
    reference = _run_one(
        system, problem, wl, fan_level, max_time_s,
        faults=[], hardened=False, margin_c=margin_c, scenario="none",
    )
    if reference.crashed:  # the baseline must run; surface loudly
        raise ReproError(
            f"fault-matrix reference run crashed: {reference.error}"
        )
    ref_engine = SimulationEngine(
        system, problem, EngineConfig(max_time_s=max_time_s)
    )
    ref_state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level,
        fan_level=fan_level,
    )
    ref_result = ref_engine.run(
        WorkloadRun(wl, system.chip, REF_FREQ_GHZ),
        TECfanController(),
        initial_state=ref_state,
    )
    hot_component, hot_tile = hot_spot(system, ref_result)

    scenarios = default_scenarios(
        system, hot_component, hot_tile, base.t_threshold_c, t_fault_s
    )
    cells = tuple(
        MatrixCell(
            scenario=name,
            hardened=hardened,
            problem=problem,
            wl=wl,
            fan_level=fan_level,
            max_time_s=max_time_s,
            margin_c=margin_c,
            faults=tuple(script),
        )
        for name, script in scenarios.items()
        for hardened in (False, True)
        # The (none, unhardened) cell already ran as the reference.
        if not (name == "none" and not hardened)
    )
    return MatrixPlan(
        workload=workload,
        threads=threads,
        t_threshold_c=base.t_threshold_c,
        margin_c=margin_c,
        hot_component=hot_component,
        hot_tile=hot_tile,
        reference=reference,
        cells=cells,
    )


def run_fault_matrix(
    system: CMPSystem,
    workload: str = "cholesky",
    threads: int = 16,
    fan_level: int = 2,
    max_time_s: float = 2.0,
    t_fault_s: float = 0.01,
    margin_c: float = VIOLATION_MARGIN_C,
    mission_scale: int = 6,
    jobs: int | None = None,
    journal_path=None,
) -> FaultMatrixReport:
    """Run every scenario hardened and unhardened; collect the matrix.

    :func:`plan_fault_matrix` documents the knobs. ``jobs`` fans the
    matrix cells out across pooled worker processes
    (:func:`repro.parallel.parallel_map`) with the system — and its
    solver caches — shipped once per worker as shared context; each
    cell builds its own engine and fault script, so pooled outcomes
    equal serial ones exactly. The planning prologue stays serial.

    ``journal_path`` makes the matrix crash-recoverable
    (:mod:`repro.journal`): the serialized plan — prologue included —
    is cached as a journal meta record and cell outcomes are appended
    as they complete, so a killed driver re-launched with the same
    path skips the prologue, replays the journaled cells, and runs
    only the missing ones. The assembled report is bit-identical to an
    uninterrupted run's.
    """
    from repro.parallel import parallel_map

    journal = None
    plan = None
    if journal_path is not None:
        from repro.journal import TaskJournal

        journal = TaskJournal(
            journal_path,
            header={
                "kind": "fault-matrix",
                "workload": workload,
                "threads": threads,
            },
        )
        plan = journal.get_meta("plan")
    try:
        if plan is None:
            plan = plan_fault_matrix(
                system, workload, threads, fan_level, max_time_s,
                t_fault_s, margin_c, mission_scale,
            )
            if journal is not None:
                journal.put_meta("plan", plan)
        outcomes = parallel_map(
            _matrix_task, plan.cells, jobs, context=system,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    return plan.report(outcomes)
