"""Controller interface shared by TECfan and every baseline policy.

A policy makes two kinds of decisions, mirroring the paper's two-level
hierarchy (Sec. III-D):

* :meth:`Controller.decide` — the fast lower level (every ~2 ms):
  choose TEC on/off states and per-core DVFS levels from the current
  sensor readings and the what-if estimator.
* :meth:`Controller.decide_fan` — the slow higher level (every few
  seconds): choose the fan speed level from last period's average power
  and average TEC state.

The engine calls these with plant measurements; policies never touch the
plant's internal state.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.estimator import NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState


class Controller(abc.ABC):
    """Base class for all TEC/DVFS/fan management policies."""

    #: Display name used by the analysis/benchmark tables.
    name: str = "controller"

    #: Which what-if estimator the engine should build for this policy:
    #: "full" (idealized whole-chip model) or "banded" (the paper's
    #: Sec. III-E one-core-at-a-time hardware datapath).
    estimator_kind: str = "full"

    @abc.abstractmethod
    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        """Lower-level decision: next interval's TEC + DVFS setting.

        ``estimator`` has already been primed with this interval's
        measurements via ``begin_interval``.
        """

    def decide_fan(
        self,
        state: ActuatorState,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> int:
        """Higher-level decision: next period's fan level.

        Default: hold the current level (policies whose fan is fixed by
        the experiment's sweep, i.e. everything in Secs. V-B..V-D).
        """
        return state.fan_level

    def set_actuator_health(self, health) -> None:
        """Engine callback: latest actuator health view.

        When the engine runs with health monitoring enabled
        (:class:`repro.faults.HealthConfig`), it calls this every
        interval with an :class:`repro.faults.ActuatorHealth` so
        health-aware policies can mask dead actuators out of their
        candidate sets. The default ignores it — baselines keep the
        paper's ideal-actuator behaviour.
        """

    def reset(self) -> None:
        """Clear any per-run internal state (between sweep runs)."""
