"""Baseline policies (paper Sec. V-A).

* :class:`FanOnlyController` — the base scenario actuator-wise: no TEC
  or DVFS operations; the fan level is fixed by the experiment sweep to
  the lowest speed without violation.
* :class:`FanTECController` — fan as Fan-only; each TEC turns on when
  any component under it exceeds the threshold and off when all of them
  are below it (reactive, no estimation).
* :class:`FanDVFSController` — fan as Fan-only; classic DVFS-based DTM:
  lower a core one level when its hottest component violates, raise one
  level when it is below threshold.
* :class:`DVFSTECController` — all three knobs, managed *independently*
  (the TEC rule of Fan+TEC and the DVFS rule of Fan+DVFS applied
  side by side, neither aware of the other) — the paper uses it to show
  that uncoordinated combination underperforms, e.g. DVFS raises while
  TECs switch off, overshooting next interval.

These policies act on raw sensor readings only; none of them estimate
next-interval behaviour, which is precisely the coordination gap TECfan
closes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import Controller
from repro.core.estimator import NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState


@dataclass
class FanOnlyController(Controller):
    """No TEC/DVFS actuation; cooling comes from the (swept) fan alone."""

    name: str = "Fan-only"

    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        return state


#: Switch-off hysteresis of the reactive TEC rule [K]. A thin-film TEC
#: swings its component by several Kelvin within one control period, so
#: a pure threshold rule chatters; real on/off Peltier drivers (e.g.
#: Chaparro et al.) hold the device on until the spot has cooled a
#: couple of degrees below the trip point.
TEC_OFF_HYSTERESIS_C: float = 3.0

#: Raise hysteresis of the reactive DVFS rule [K]: a core steps back up
#: only once it has cooled this far below the threshold. One DVFS step
#: swings a core by several Kelvin, so the textbook DTM controller
#: (Skadron et al., HPCA'02) raises with a guard band to avoid a
#: two-interval limit cycle that would violate on every other sample.
DVFS_RAISE_HYSTERESIS_C: float = 5.0


def _tec_reactive(
    state: ActuatorState,
    sensor_temps_c: np.ndarray,
    system,
    problem: EnergyProblem,
) -> np.ndarray:
    """The Fan+TEC device rule: on when a covered component violates,
    off once every covered component has hysteresis-cleared the
    threshold; inside the hysteresis band a device holds its state.

    One segment reduction per condition over the device-sorted
    footprint arrays (a NaN reading neither trips nor clears).
    """
    tec = system.tec
    temps = np.asarray(sensor_temps_c, dtype=float)[tec.coo_component]
    starts = tec.device_starts()
    on = np.logical_or.reduceat(temps > problem.t_threshold_c, starts)
    off = np.logical_and.reduceat(
        temps < problem.t_threshold_c - TEC_OFF_HYSTERESIS_C, starts
    )
    return np.where(on, 1.0, np.where(off, 0.0, state.tec))


def _dvfs_reactive(
    state: ActuatorState,
    sensor_temps_c: np.ndarray,
    system,
    problem: EnergyProblem,
) -> np.ndarray:
    """The Fan+DVFS core rule: step down on violation, step up otherwise."""
    temps = np.asarray(sensor_temps_c, dtype=float)
    levels = state.dvfs.copy()
    max_level = system.dvfs.max_level
    for core in range(system.n_cores):
        core_peak = temps[system.chip.tile_slice(core)].max()
        if core_peak > problem.t_threshold_c:
            levels[core] = max(0, levels[core] - 1)
        elif core_peak < problem.t_threshold_c - DVFS_RAISE_HYSTERESIS_C:
            levels[core] = min(max_level, levels[core] + 1)
    return levels


@dataclass
class FanTECController(Controller):
    """Fan (swept) + reactive per-device TEC control."""

    name: str = "Fan+TEC"

    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        tec = _tec_reactive(state, sensor_temps_c, estimator.system, problem)
        return state.with_tec_vector(tec)


@dataclass
class FanDVFSController(Controller):
    """Fan (swept) + classic reactive DVFS thermal management."""

    name: str = "Fan+DVFS"

    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        levels = _dvfs_reactive(
            state, sensor_temps_c, estimator.system, problem
        )
        return state.with_dvfs_vector(levels)


@dataclass
class DVFSTECController(Controller):
    """All three knobs, each managed independently (uncoordinated)."""

    name: str = "DVFS+TEC"

    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        system = estimator.system
        tec = _tec_reactive(state, sensor_temps_c, system, problem)
        levels = _dvfs_reactive(state, sensor_temps_c, system, problem)
        return state.with_tec_vector(tec).with_dvfs_vector(levels)
