"""Simulation engine: the two-level control loop over the plant.

The engine owns the *plant* — the calibrated activity-driven power
model, the quadratic plant leakage, the full thermal network with the
leakage-temperature loop, and the workload's instruction accounting —
and drives a :class:`~repro.core.controller.Controller` with exactly the
measurements real hardware would expose: sensor temperatures, last
interval's per-component power and per-core IPS.

Loop structure (Sec. III-D):

* every ``dt_lower_s`` (default 2 ms): plant advances one interval under
  the current actuator setting; the controller then picks next
  interval's TEC states and DVFS levels;
* every ``fan_period_s`` (default 1 s), if ``dynamic_fan``: the
  controller picks the fan level from the period's average component
  power and average TEC activation (fractional "intermediate state",
  exactly as the paper describes).

For the SPLASH-2 experiments the fan is fixed per run and swept outside
(:func:`run_fan_sweep`), mirroring Sec. IV-C: the heat sink's 15-30 s
time constant makes within-run fan dynamics irrelevant at millisecond
benchmark scales.

TEC engagement delay: a device switched on mid-run only pumps for
``dt - 20 us`` of its first interval; the engine scales its first-interval
activation accordingly (Sec. IV-C's conservative accounting).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.controller import Controller
from repro.core.estimator import NextIntervalEstimator
from repro.core.local_estimator import LocalBandedEstimator
from repro.core.metrics import RunMetrics, summarize
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem
from repro.core.trace import TraceRecorder
from repro.exceptions import ConfigurationError, ThermalModelError
from repro.faults.guard import (
    ActuatorHealthMonitor,
    HealthConfig,
    SensorValidator,
    ThermalWatchdog,
    WatchdogConfig,
    safe_state,
)
from repro.faults.scheduler import FaultScheduler
from repro.obs import telemetry as obs
from repro.perf.ips import IPSTracker
from repro.perf.workload import WorkloadRun
from repro.thermal.sensors import TemperatureSensorBank

#: Failures the hardened engine treats as "the estimator broke", falling
#: back to the last safe action: the package's own thermal-model errors
#: (including :class:`~repro.exceptions.ConvergenceError`) and the dense
#: / sparse singular-solve escapes (SuperLU raises ``RuntimeError``).
ESTIMATOR_FAILURES = (ThermalModelError, np.linalg.LinAlgError, RuntimeError)


@dataclass
class EngineConfig:
    """Timing and telemetry configuration of the control loop."""

    dt_lower_s: float = 2e-3
    fan_period_s: float = 1.0
    dynamic_fan: bool = False
    max_time_s: float = 10.0
    warm_start: bool = True
    #: Silent intervals simulated on a throwaway copy of the workload
    #: before the recorded run, so the recorded run starts from the
    #: policy's own converged thermal/actuator state — the equivalent of
    #: the paper's "repeat the simulation until the peak temperatures of
    #: two consecutive intervals agree" (Sec. IV-B).
    priming_intervals: int = 15
    sensors: TemperatureSensorBank | None = None
    #: Fault script injected into the recorded run (the fault clock is
    #: the recorded run's simulated time; priming stays fault-free so
    #: every experiment starts from the healthy converged state).
    faults: FaultScheduler | None = None
    #: Thermal watchdog policy; None disables the watchdog entirely.
    watchdog: WatchdogConfig | None = None
    #: Actuator-health + sensor-validation policy; None disables both.
    health: HealthConfig | None = None
    #: Catch estimator/solver failures inside ``controller.decide`` and
    #: hold the last safe action instead of crashing the run.
    estimator_fallback: bool = False
    #: Periodic checkpointing (repro.checkpoint): snapshot the recorded
    #: run to ``checkpoint_path`` every ``checkpoint_every_s`` simulated
    #: seconds. Snapshots are side-effect-free, so any cadence leaves
    #: the run bit-identical to an uncheckpointed one. Both fields must
    #: be set together; None disables checkpointing entirely.
    checkpoint_every_s: float | None = None
    checkpoint_path: str | None = None
    #: Live status sidecar (repro.obs.live): periodically snapshot
    #: progress/ETA/thermal headroom/pool-free run state to this path
    #: for ``tecfan watch``. Side-effect-free — a run with a status
    #: file is bit-identical (same ``result_digest``) to one without.
    status_path: str | None = None
    #: Wall-clock seconds between status snapshots.
    status_every_s: float = 1.0

    def __post_init__(self) -> None:
        if self.dt_lower_s <= 0 or self.fan_period_s <= 0:
            raise ConfigurationError("control periods must be positive")
        if self.fan_period_s < self.dt_lower_s:
            raise ConfigurationError(
                "fan period must be at least one lower-level interval"
            )
        if (self.checkpoint_every_s is None) != (self.checkpoint_path is None):
            raise ConfigurationError(
                "checkpoint_every_s and checkpoint_path must be set together"
            )
        if self.checkpoint_every_s is not None and self.checkpoint_every_s <= 0:
            raise ConfigurationError("checkpoint_every_s must be positive")
        if self.status_every_s <= 0:
            raise ConfigurationError("status_every_s must be positive")

    @property
    def hardened(self) -> bool:
        """Any robustness machinery enabled for this run?"""
        return (
            self.faults is not None
            or self.watchdog is not None
            or self.health is not None
            or self.estimator_fallback
        )

#: Contract counters (docs/OBSERVABILITY.md), pre-registered by every
#: recorded run so exports always carry them, even at zero.
_CONTRACT_COUNTERS = (
    "engine.intervals",
    "temp.violations",
    "tec.switch_events",
    "fan.level_changes",
    "controller.hot_iterations",
    "controller.cool_iterations",
    "thermal.propagator_hits",
    "thermal.propagator_misses",
)


@dataclass
class LoopState:
    """Everything the control loop carries from one interval to the next.

    The two-level loop is a discrete-time system whose whole state is
    this record: the plant (temperature field, TEC engagement memory),
    the commanded actuators, the clocks, the fan level's averaging
    window and the run-long power/TEC integrals. A checkpoint stores one
    of these, so a resumed run re-enters the loop exactly where the
    snapshot was taken.
    """

    state: ActuatorState
    t_nodes: np.ndarray
    #: Effective TEC activation of the previous interval (engagement delay).
    prev_tec: np.ndarray
    #: Fan-period window sums of component power / TEC activation.
    fan_accum_p: np.ndarray
    fan_accum_tec: np.ndarray
    #: Run-long time integrals of component power / TEC activation.
    run_avg_p: np.ndarray
    run_avg_tec: np.ndarray
    time_s: float = 0.0
    total_instructions: float = 0.0
    intervals: int = 0
    fan_accum_n: int = 0

    @classmethod
    def start(
        cls,
        system: CMPSystem,
        state: ActuatorState,
        t_nodes: np.ndarray,
        prev_tec: np.ndarray,
    ) -> LoopState:
        """Fresh clocks and accumulators over a given plant state."""
        return cls(
            state=state,
            t_nodes=t_nodes,
            prev_tec=prev_tec,
            fan_accum_p=np.zeros(system.nodes.n_components),
            fan_accum_tec=np.zeros(system.n_tec_devices),
            run_avg_p=np.zeros(system.nodes.n_components),
            run_avg_tec=np.zeros(system.n_tec_devices),
        )

    def averages(self) -> tuple[np.ndarray, np.ndarray]:
        """Time-averaged component power and TEC activation so far."""
        if self.time_s > 0:
            return self.run_avg_p / self.time_s, self.run_avg_tec / self.time_s
        return self.run_avg_p, self.run_avg_tec


@dataclass
class SimulationResult:
    """Everything one run produces."""

    metrics: RunMetrics
    trace: TraceRecorder
    final_state: ActuatorState
    estimator: NextIntervalEstimator
    #: Time-averaged per-component power over the run [W] (dyn + leak).
    avg_p_components_w: np.ndarray = None
    #: Time-averaged per-device TEC activation over the run.
    avg_tec: np.ndarray = None


@dataclass
class _RunGuards:
    """Per-run robustness state: built fresh for every recorded run."""

    faults: FaultScheduler | None = None
    watchdog: ThermalWatchdog | None = None
    health: ActuatorHealthMonitor | None = None
    sensor_validator: SensorValidator | None = None
    fallback: bool = False
    refuge: ActuatorState | None = None


@dataclass
class _Checkpointer:
    """Cadence bookkeeping for periodic run snapshots.

    Checkpoints fire at the loop top once simulated time crosses each
    multiple of ``every_s``. ``start_s`` anchors a resumed run on the
    same schedule the uninterrupted run would have followed (the
    cadence cannot affect results either way — snapshots are pure
    reads — but a stable schedule keeps checkpoint files comparable).
    """

    path: str
    every_s: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        self.next_due = (
            np.floor(self.start_s / self.every_s + 1e-9) + 1.0
        ) * self.every_s
        #: Wall-clock stamp of the latest snapshot (None before the
        #: first); the live status reporter turns it into checkpoint age.
        self.last_write_unix: float | None = None

    def advance(self, time_s: float) -> None:
        """Move the due point past ``time_s``."""
        while self.next_due <= time_s:
            self.next_due += self.every_s


@dataclass
class SimulationEngine:
    """Runs one workload under one policy on one system."""

    system: CMPSystem
    problem: EnergyProblem
    config: EngineConfig = field(default_factory=EngineConfig)

    def _build_guards(self) -> _RunGuards | None:
        """Fresh guard state machines for one recorded run, or None.

        Returning None for unhardened configs keeps the classic loop
        bit-identical: no extra arithmetic touches the plant or the
        controller when nothing robustness-related is enabled.
        """
        cfg = self.config
        if not cfg.hardened:
            return None
        system = self.system
        if cfg.faults is not None:
            cfg.faults.validate(system)
            cfg.faults.reset()
        return _RunGuards(
            faults=cfg.faults,
            watchdog=(
                ThermalWatchdog(cfg.watchdog, self.problem.t_threshold_c)
                if cfg.watchdog is not None
                else None
            ),
            health=(
                ActuatorHealthMonitor(
                    cfg.health, system.n_tec_devices, system.n_cores
                )
                if cfg.health is not None
                else None
            ),
            sensor_validator=(
                SensorValidator(cfg.health)
                if cfg.health is not None
                else None
            ),
            fallback=cfg.estimator_fallback,
            refuge=safe_state(system.n_tec_devices, system.n_cores),
        )

    def _build_status(self, run: WorkloadRun, controller: Controller, ckpt):
        """Live status reporter for this run, or None when disabled."""
        cfg = self.config
        if cfg.status_path is None:
            return None
        from repro.obs.live import StatusReporter

        return StatusReporter(
            cfg.status_path,
            "engine-run",
            every_s=cfg.status_every_s,
            label=f"{run.workload.name} / {controller.name}",
            total=cfg.max_time_s,
            t_threshold_c=self.problem.t_threshold_c,
            system=self.system,
            checkpoint=ckpt,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        run: WorkloadRun,
        controller: Controller,
        initial_state: ActuatorState | None = None,
        ips_predictor=None,
    ) -> SimulationResult:
        """Simulate until the workload finishes (or ``max_time_s``)."""
        system = self.system
        cfg = self.config
        dvfs = system.dvfs

        if initial_state is None:
            state = ActuatorState.initial(
                system.n_tec_devices, system.n_cores, dvfs.max_level
            )
        else:
            state = initial_state
        if ips_predictor is None:
            ips_predictor = IPSTracker(dvfs=dvfs)
        if controller.estimator_kind == "banded":
            estimator = LocalBandedEstimator(
                system=system, ips_predictor=ips_predictor
            )
        else:
            estimator = NextIntervalEstimator(
                system=system, ips_predictor=ips_predictor
            )

        def start() -> LoopState:
            # Plant thermal state. The paper iterates HotSpot from a
            # uniform initial guess until consecutive peaks agree;
            # warm-starting at the initial configuration's steady state
            # plus a short silent priming pass is the converged
            # equivalent.
            t_nodes = self._initial_field(
                run, state, run.workload.component_profile, cfg.warm_start
            )
            loop = LoopState.start(system, state, t_nodes, state.tec.copy())
            if cfg.priming_intervals > 0:
                # Same run type (WorkloadRun/ServerTraceRun), fresh state.
                primer = type(run)(run.workload, run.chip, run.ref_freq_ghz)
                with obs.span("engine.prime"):
                    loop = self._simulate(
                        primer,
                        controller,
                        estimator,
                        loop,
                        trace=None,
                        max_intervals=cfg.priming_intervals,
                    )
            # The recorded run keeps the primed plant and actuators but
            # starts its clocks and accumulators from zero.
            return LoopState.start(
                system, loop.state, loop.t_nodes, loop.prev_tec
            )

        return self._drive(
            run,
            controller,
            estimator,
            self._build_guards(),
            TraceRecorder(),
            start,
        )

    # ------------------------------------------------------------------
    def resume(self, ck: dict) -> SimulationResult:
        """Finish an interrupted run from a loaded checkpoint payload.

        ``ck`` comes from :func:`repro.checkpoint.load_checkpoint`
        (kind ``"engine-run"``); the engine must have been built from
        the payload's own system/problem/config (see
        :func:`repro.checkpoint.resume_engine_run`). No priming pass
        and no fresh guard construction happen here — the checkpoint
        carries the mid-run controller, estimator, fault scheduler,
        guard state machines and :class:`LoopState`, and the loop
        re-enters exactly where the snapshot was taken. The completed
        result is bit-identical, field by field, to the uninterrupted
        run.
        """

        def start() -> LoopState:
            # Carry the interrupted run's counters forward so post-resume
            # telemetry sums over the whole logical run. The resumed
            # solver starts with an empty LU cache, so cache counters
            # (thermal.factorizations, lu_evictions) can exceed an
            # uninterrupted run's — documented in docs/ROBUSTNESS.md;
            # results are unaffected.
            counters = ck.get("counters")
            if counters and obs.get_telemetry() is not None:
                for name in sorted(counters):
                    if counters[name]:
                        obs.incr(name, counters[name])
            return ck["loop"]

        return self._drive(
            ck["run"],
            ck["controller"],
            ck["estimator"],
            ck["guards"],
            ck["trace"],
            start,
        )

    def _drive(
        self,
        run: WorkloadRun,
        controller: Controller,
        estimator: NextIntervalEstimator,
        guards: _RunGuards | None,
        trace: TraceRecorder,
        start: Callable[[], LoopState],
    ) -> SimulationResult:
        """The recorded run shared by :meth:`run` and :meth:`resume`.

        ``start`` builds the :class:`LoopState` the recorded loop enters
        with (priming a fresh run, or loading a checkpoint).
        """
        cfg = self.config
        # Run context for the telemetry manifest (no-op when disabled;
        # last run before export wins). The trace analysis tools
        # (``tecfan trace anomalies``) read the threshold back from the
        # manifest to judge thermal excursions.
        obs.annotate("engine_config", cfg)
        obs.annotate("workload", run.workload.name)
        obs.annotate("policy", controller.name)
        obs.annotate("t_threshold_c", self.problem.t_threshold_c)
        for counter in _CONTRACT_COUNTERS:
            obs.incr(counter, 0)

        loop = start()
        ckpt = None
        if cfg.checkpoint_every_s is not None:
            ckpt = _Checkpointer(
                cfg.checkpoint_path,
                cfg.checkpoint_every_s,
                start_s=loop.time_s,
            )
        status = self._build_status(run, controller, ckpt)
        with obs.span("engine.run"):
            loop = self._simulate(
                run,
                controller,
                estimator,
                loop,
                trace=trace,
                guards=guards,
                checkpoint=ckpt,
                status=status,
            )

        metrics = summarize(
            trace,
            self.problem,
            policy=controller.name,
            workload=run.workload.name,
            fan_level=int(loop.state.fan_level),
            instructions=loop.total_instructions,
        )
        avg_p, avg_tec = loop.averages()
        return SimulationResult(
            metrics=metrics,
            trace=trace,
            final_state=loop.state,
            estimator=estimator,
            avg_p_components_w=avg_p,
            avg_tec=avg_tec,
        )

    def _write_checkpoint(
        self,
        ckpt: _Checkpointer,
        run: WorkloadRun,
        controller: Controller,
        estimator,
        guards: _RunGuards | None,
        trace: TraceRecorder,
        loop: LoopState,
    ) -> None:
        """Snapshot the entire loop as one pickled payload.

        Everything goes through a single ``pickle.dumps`` so object
        identity survives: ``config.faults`` and ``guards.faults`` stay
        one scheduler, the estimator keeps referencing the payload's
        own system. Taking a snapshot reads state without advancing
        anything (RNG states are copied), so checkpoint cadence cannot
        perturb the run.
        """
        from repro.checkpoint import write_checkpoint

        tel = obs.get_telemetry()
        write_checkpoint(
            ckpt.path,
            {
                "kind": "engine-run",
                "system": self.system,
                "problem": self.problem,
                "config": self.config,
                "run": run,
                "controller": controller,
                "estimator": estimator,
                "guards": guards,
                "trace": trace,
                "loop": loop,
                "counters": (
                    dict(tel.metrics.snapshot()["counters"])
                    if tel is not None
                    else None
                ),
            },
        )
        ckpt.last_write_unix = time.time()

    def _simulate(
        self,
        run: WorkloadRun,
        controller: Controller,
        estimator: NextIntervalEstimator,
        loop: LoopState,
        trace: TraceRecorder | None,
        max_intervals: int | None = None,
        guards: _RunGuards | None = None,
        checkpoint: _Checkpointer | None = None,
        status=None,
    ) -> LoopState:
        """Advance the plant + controller loop from ``loop``; optionally record.

        Updates ``loop`` in place and returns it. ``guards`` carries the
        run's robustness machinery (fault injection, watchdog, health
        monitor, sensor validation, estimator fallback). When it is None
        — every unhardened run and every priming pass — the loop takes
        exactly the classic code path, so fault-capable engines remain
        bit-identical to the original on healthy runs.

        ``checkpoint`` snapshots the whole loop to disk each time
        simulated time crosses its cadence; resuming hands the
        snapshotted :class:`LoopState` straight back in here.

        ``status`` is the optional ``engine-run``
        :class:`repro.obs.live.StatusReporter`: polled at the top of
        every interval and reported once more (``done=True``) after the
        loop exits. Reporting only reads loop state, so it cannot perturb
        the run.
        """
        system = self.system
        cfg = self.config
        profile = run.workload.component_profile
        dvfs = system.dvfs
        faults = guards.faults if guards is not None else None
        watchdog = guards.watchdog if guards is not None else None
        health = guards.health if guards is not None else None
        validator = guards.sensor_validator if guards is not None else None

        while not run.finished and loop.time_s < cfg.max_time_s:
            if max_intervals is not None and loop.intervals >= max_intervals:
                break
            if checkpoint is not None and loop.time_s >= checkpoint.next_due:
                self._write_checkpoint(
                    checkpoint, run, controller, estimator, guards, trace, loop
                )
                checkpoint.advance(loop.time_s)
            if status is not None and status.due():
                status.report(loop=loop, trace=trace)
            loop.intervals += 1
            dt = cfg.dt_lower_s
            state = loop.state

            with obs.span("engine.step"):
                # ---- faults: commanded -> effective actuation -------------
                # The plant runs on what the hardware actually does; the
                # controller keeps seeing its own commands (the health
                # monitor reconciles the two once a divergence persists).
                if faults is not None:
                    eff_dvfs = faults.apply_dvfs(loop.time_s, state.dvfs)
                    eff_fan = faults.apply_fan(
                        loop.time_s, state.fan_level, system.fan.n_levels
                    )
                    eff_tec = faults.apply_tec(loop.time_s, state.tec)
                else:
                    eff_dvfs = state.dvfs
                    eff_fan = state.fan_level
                    eff_tec = state.tec

                # ---- plant: power for this interval -----------------------
                freqs = dvfs.frequency_ghz(eff_dvfs)
                # Fractional final interval: don't bill a full control period
                # for the last few instructions (delay would otherwise be
                # quantized to dt).
                t_done = run.time_to_completion_s(freqs)
                if t_done < dt:
                    dt = max(t_done, 1e-6)
                activity = run.activity_vector()
                p_dyn = system.power.component_power.dynamic_power_w(
                    activity, eff_dvfs, profile
                )
                tec_pump = self._effective_tec(eff_tec, loop.prev_tec, dt)

                # ---- plant: thermal step ----------------------------------
                comp = system.nodes.component_slice
                t_steady, _ = system.plant_thermal.solve(
                    p_dyn, eff_fan, tec_pump, t_guess_k=loop.t_nodes[comp]
                )
                loop.t_nodes = t_nodes = system.transient.step(
                    loop.t_nodes, t_steady, dt, eff_fan, tec_pump
                )
                t_comp_c = system.component_temps_c(t_nodes)
                p_leak = system.power.plant_leakage.per_component_w(
                    t_nodes[comp]
                )

                # ---- plant: performance and energy accounting -------------
                inst = run.advance(dt, freqs)
                ips_cores = inst / dt
                loop.total_instructions += float(inst.sum())
                p_cores = float(p_dyn.sum() + p_leak.sum())
                p_tec = system.tec_power_w(tec_pump, t_nodes)
                p_fan = system.fan.power_w(eff_fan)
                p_chip = p_cores + p_tec + p_fan
                if trace is not None:
                    trace.append(
                        time_s=loop.time_s,
                        dt_s=dt,
                        peak_temp_c=float(t_comp_c.max()),
                        p_chip_w=p_chip,
                        p_cores_w=p_cores,
                        p_tec_w=p_tec,
                        p_fan_w=p_fan,
                        ips_chip=float(ips_cores.sum()),
                        tec_on=int(np.count_nonzero(eff_tec > 0.5)),
                        fan_level=eff_fan,
                        mean_dvfs_level=float(np.mean(eff_dvfs)),
                    )

                # ---- controller: lower level ------------------------------
                readings = (
                    cfg.sensors.read_c(t_comp_c)
                    if cfg.sensors is not None
                    else t_comp_c
                )
                if faults is not None:
                    readings = faults.apply_sensors(loop.time_s, readings)
                if validator is not None:
                    # Plausibility reference: the observer state committed
                    # last interval, *before* this interval's readings load.
                    readings = validator.filter(
                        readings, estimator.predicted_component_temps_c()
                    )
                estimator.begin_interval(
                    sensor_temps_c=readings,
                    p_dyn_measured_w=p_dyn,
                    ips_measured=ips_cores,
                    state=state,
                    dt_s=dt,
                )
                loop.prev_tec = eff_tec.copy()
                tripped = (
                    watchdog.feed(float(readings.max()))
                    if watchdog is not None
                    else False
                )
                if tripped:
                    # Safe state overrides the policy: max cooling, min
                    # heat. The estimator stays fed (begin_interval above)
                    # so handing control back after recovery is seamless.
                    new_state = guards.refuge
                else:
                    with obs.span("controller.decide"):
                        try:
                            new_state = controller.decide(
                                state, readings, estimator, self.problem
                            )
                        except ESTIMATOR_FAILURES:
                            if guards is None or not guards.fallback:
                                raise
                            obs.incr("controller.fallbacks")
                            new_state = state
                    new_state = new_state.with_fan(state.fan_level)

                # ---- controller: higher level (fan) -----------------------
                loop.fan_accum_p += p_dyn + p_leak
                loop.fan_accum_tec += tec_pump
                loop.run_avg_p += (p_dyn + p_leak) * dt
                loop.run_avg_tec += tec_pump * dt
                loop.fan_accum_n += 1
                loop.time_s += dt
                if cfg.dynamic_fan and loop.fan_accum_n * dt >= cfg.fan_period_s:
                    if not tripped:
                        avg_p = loop.fan_accum_p / loop.fan_accum_n
                        avg_tec = loop.fan_accum_tec / loop.fan_accum_n
                        with obs.span("controller.decide_fan"):
                            try:
                                level = controller.decide_fan(
                                    new_state,
                                    avg_p,
                                    avg_tec,
                                    estimator,
                                    self.problem,
                                )
                            except ESTIMATOR_FAILURES:
                                if guards is None or not guards.fallback:
                                    raise
                                obs.incr("controller.fallbacks")
                                level = new_state.fan_level
                        new_state = new_state.with_fan(level)
                    loop.fan_accum_p[:] = 0.0
                    loop.fan_accum_tec[:] = 0.0
                    loop.fan_accum_n = 0

                # ---- health: divergence detection + reconciliation --------
                if health is not None:
                    health.observe(
                        tec_cmd=state.tec,
                        tec_eff=eff_tec,
                        dvfs_cmd=state.dvfs,
                        dvfs_eff=eff_dvfs,
                        fan_cmd=state.fan_level,
                        fan_eff=eff_fan,
                    )
                    new_state = health.reconcile(new_state)
                    controller.set_actuator_health(health.health())

                # ---- telemetry (observation only; gated so disabled runs
                # pay one is-None check per interval) ----------------------
                if trace is not None and obs.get_telemetry() is not None:
                    self._record_interval(
                        state,
                        new_state,
                        t_comp_c,
                        p_chip,
                        float(ips_cores.sum()),
                        loop.time_s - dt,
                        dt,
                    )

                loop.state = new_state

        if status is not None:
            # Final snapshot so watchers see the completed run even if
            # the cadence never fired again near the end.
            status.report(loop=loop, trace=trace, done=True)
        return loop

    # ------------------------------------------------------------------
    def _record_interval(
        self,
        state: ActuatorState,
        new_state: ActuatorState,
        t_comp_c: np.ndarray,
        p_chip_w: float,
        ips_chip: float,
        time_s: float,
        dt_s: float,
    ) -> None:
        """Emit one recorded interval's counters and JSONL event.

        Only called with an active telemetry session; the counter names
        are the contract documented in ``docs/OBSERVABILITY.md``.
        """
        peak_c = float(t_comp_c.max())
        obs.incr("engine.intervals")
        if self.problem.violated(peak_c):
            obs.incr("temp.violations")
        switched = int(
            np.count_nonzero(new_state.tec_on_mask() != state.tec_on_mask())
        )
        if switched:
            obs.incr("tec.switch_events", switched)
        if new_state.fan_level != state.fan_level:
            obs.incr("fan.level_changes")
        obs.observe(
            "engine.peak_temp_c",
            peak_c,
            edges=(40.0, 50.0, 60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 100.0, 120.0),
        )
        obs.event(
            "interval",
            time_s=time_s,
            dt_s=dt_s,
            peak_temp_c=peak_c,
            p_chip_w=float(p_chip_w),
            ips_chip=ips_chip,
            tec_on=int(new_state.tec_on_count),
            fan_level=int(new_state.fan_level),
            mean_dvfs_level=float(np.mean(new_state.dvfs)),
        )

    # ------------------------------------------------------------------
    def _initial_field(
        self, run: WorkloadRun, state: ActuatorState, profile, warm: bool
    ) -> np.ndarray:
        system = self.system
        if not warm:
            return system.uniform_initial_temps_k()
        p_dyn = system.power.component_power.dynamic_power_w(
            run.activity_vector(), state.dvfs, profile
        )
        t_nodes, _ = system.plant_thermal.solve(
            p_dyn, state.fan_level, state.tec
        )
        return t_nodes

    def _effective_tec(
        self, tec: np.ndarray, prev: np.ndarray, dt: float
    ) -> np.ndarray:
        """Scale freshly-enabled devices by the Peltier engagement delay."""
        delay = self.system.tec.device.engage_delay_s
        if delay <= 0:
            return tec
        factor = max(0.0, 1.0 - delay / dt)
        newly_on = (tec > prev) & (prev <= 0.0)
        out = np.asarray(tec, dtype=float).copy()
        out[newly_on] *= factor
        return out


def _fan_sweep_task(common: tuple, payload: tuple) -> SimulationResult:
    """One fan level of a sweep (module-level: spawn-picklable).

    ``common`` is ``(engine, controller)`` — the pool's shared context,
    shipped to each worker once and reused warm across its levels so
    the engine's propagator/LU caches amortize exactly as they do in a
    serial loop. ``payload`` is ``(run, level)``; the controller is
    ``reset()`` before each level, which is the same state discipline
    the serial loop applies to its single shared controller.
    """
    engine, controller = common
    run, level = payload
    controller.reset()
    state = ActuatorState.initial(
        engine.system.n_tec_devices,
        engine.system.n_cores,
        engine.system.dvfs.max_level,
        fan_level=level,
    )
    return engine.run(run, controller, initial_state=state)


def run_fan_sweep(
    engine: SimulationEngine,
    make_run,
    controller: Controller,
    violation_tolerance: float = 0.05,
    jobs: int | None = None,
    journal_path=None,
    status_path=None,
    status_every_s: float = 1.0,
) -> tuple[SimulationResult, list[RunMetrics]]:
    """Run a policy at every fan level; keep the paper's selection.

    "For each benchmark, we run all the studied policies with all
    possible fan speed levels in multiple tests, and choose the results
    with the lowest fan speed without violating the temperature
    threshold" (Sec. IV-C). Dynamic policies incur brief transients, so
    a run qualifies when its time-weighted violation rate is within
    ``violation_tolerance``; among qualifying levels the slowest fan
    (largest level number) wins. If none qualifies the fastest fan is
    used.

    Parameters
    ----------
    make_run:
        Zero-argument callable producing a fresh :class:`WorkloadRun`
        (each level needs untouched instruction accounting).
    jobs:
        Fan levels to simulate concurrently (see
        :func:`repro.parallel.parallel_map`); the engine + controller
        travel once per worker as shared pool context, so the per-level
        runs — independent and deterministic — produce the results of
        the serial loop with warm thermal caches.
    journal_path:
        Crash-recovery journal (:mod:`repro.journal`): completed levels
        are appended as they land, and re-running with the same path
        re-executes only the missing ones. The payloads are recreated
        deterministically from the workload definition, so journaled
        indices stay valid across driver restarts.
    status_path:
        Live-status sidecar for ``tecfan top`` (:mod:`repro.obs.live`):
        heartbeat snapshots of the sweep — one row per worker, replayed
        vs live cell counts on journal resumes — land there every
        ``status_every_s`` wall-seconds.
    """
    from repro.parallel import parallel_map

    fan = engine.system.fan
    levels = range(1, fan.n_levels + 1)
    payloads = [(make_run(), lv) for lv in levels]
    journal = None
    if journal_path is not None:
        from repro.journal import TaskJournal

        journal = TaskJournal(
            journal_path,
            header={
                "kind": "fan-sweep",
                "workload": payloads[0][0].workload.name,
                "policy": controller.name,
                "n_tasks": len(payloads),
            },
        )
    try:
        results = parallel_map(
            _fan_sweep_task,
            payloads,
            jobs,
            context=(engine, controller),
            journal=journal,
            status_path=status_path,
            status_every_s=status_every_s,
            status_meta={
                "label": (
                    f"fan-sweep {payloads[0][0].workload.name}"
                    f"/{controller.name}"
                ),
                "journal": (
                    None if journal_path is None else os.fspath(journal_path)
                ),
            },
        )
    finally:
        if journal is not None:
            journal.close()
    all_metrics = [res.metrics for res in results]
    qualifying = [
        res
        for res in results
        if res.metrics.violation_rate <= violation_tolerance
    ]
    if qualifying:
        # Among thermally-qualifying levels pick the minimum-energy one —
        # the offline equivalent of the paper's energy objective (for the
        # non-DVFS policies this coincides with "the lowest fan speed
        # without violating": their energy falls monotonically with fan
        # speed up to the last feasible level).
        chosen = min(qualifying, key=lambda r: r.metrics.energy_j)
    else:
        chosen = results[0]
    return chosen, all_metrics
