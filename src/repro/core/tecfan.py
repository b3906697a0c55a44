"""TECfan: the paper's multi-step down-hill heuristic (Sec. III-D, Fig. 2).

Lower level (every ~2 ms): starting from the current configuration, the
controller estimates next-interval temperature and EPI for single-knob
moves and walks downhill:

* **Hot iteration** — entered when ``max(T) > T_th``. First turn on the
  TEC over the hottest violating component (TECs engage in ~20 us and
  cost no performance); repeat while violations remain and off-devices
  cover hot spots. Only then start lowering DVFS, each step picking the
  candidate core whose one-level decrease yields the smallest estimated
  EPI, until the estimate satisfies the constraint.

* **Cool iteration** — entered when there is no hot spot. First raise
  DVFS where it buys performance: among one-level raises that increase
  predicted IPS and stay below threshold, apply the one with the lowest
  estimated EPI (performance has priority — this is why TECfan "rarely
  lowers the DVFS level", Sec. V-D). When no raise is productive,
  consider one-level *decreases* that lose no predicted IPS but reduce
  EPI — a no-op for the closed SPLASH-2 workloads (IPS is linear in f,
  every decrease loses IPS) but exactly the move that saves 29% energy
  on the demand-limited server workload of Sec. V-E, where the
  quadratic-perf/utilization-capped IPS model makes decreases
  performance-neutral. Finally, turn off the TEC over the coolest
  covered component while doing so saves energy without creating a hot
  spot.

The iteration ends when the hot/cool condition flips, exactly as the
paper's flow chart specifies. Complexity is O(NL + N^2 M): at most NL
TEC toggles and, per DVFS step, one candidate evaluation per core.

Higher level (every few seconds): the fan walks one speed level at a
time using last period's average power and average (possibly
fractional) TEC state — faster until the estimated steady state has no
hot spot, slower while it stays hot-spot free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.core.controller import Controller
from repro.core.estimator import Estimate, EstimateBatch, NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.obs import telemetry as obs


def _first_min(values: np.ndarray) -> int:
    """Index of the first minimum, as a strict-``<`` scan keeps it.

    A NaN in first place stays; a later NaN never wins.
    """
    if np.isnan(values[0]):
        return 0
    return int(np.argmin(np.where(np.isnan(values), np.inf, values)))


def _pick(batch: EstimateBatch, ok: np.ndarray) -> Estimate | None:
    """The lowest-EPI row among ``ok`` rows (first on ties), or None."""
    where = np.flatnonzero(ok)
    if where.size == 0:
        return None
    return batch[int(where[_first_min(batch.epi[where])])]


@dataclass
class TECfanController(Controller):
    """The hierarchical TECfan policy.

    Parameters
    ----------
    max_iterations:
        Safety bound on hot/cool iterations per control period (the
        natural bound is NL + NM; this guards against estimator
        pathologies).
    ips_gain_rel:
        Minimum relative chip-IPS gain for a DVFS raise to count as
        "buying performance".
    ips_loss_rel:
        Maximum relative chip-IPS loss for a DVFS decrease to count as
        performance-neutral.
    epi_improvement_rel:
        Minimum relative EPI improvement to accept an energy-saving move.
    """

    name: str = "TECfan"
    #: TECfan's lower level runs on the banded systolic-array estimator
    #: of Sec. III-E; pass "full" for the idealized-model ablation.
    estimator_kind: str = "banded"
    max_iterations: int = 2000
    ips_gain_rel: float = 1e-6
    ips_loss_rel: float = 1e-6
    epi_improvement_rel: float = 1e-9
    #: Planning guard band below T_th [degC]: candidates must land at
    #: least this far under the constraint. Absorbs the on-line
    #: estimator's model error (linear vs quadratic leakage, one-interval
    #: activity lag) — the hardware budget the 8-bit estimation pipeline
    #: of Sec. III-E implies.
    guard_band_c: float = 0.5
    #: Extra guard per already-accepted raise within one decision [degC].
    #: The banded hardware estimator evaluates one core at a time, so the
    #: *joint* heating of several simultaneous raises is unmodelled; each
    #: accepted raise therefore tightens the margin the next one must
    #: clear. (With the idealized full estimator this simply makes the
    #: controller slightly conservative.)
    coupling_penalty_c: float = 0.15
    #: Hot-iteration ordering: the paper turns TECs on *first* and only
    #: then throttles ("we minimize the use of throttling"). False
    #: inverts the order for the ablation benchmark.
    tec_first: bool = True
    #: Chip-level DVFS mode (Sec. III-E: "TECfan can be integrated with
    #: chip-level DVFS seamlessly"): every DVFS move shifts all cores
    #: together, as on parts without per-core regulators.
    chip_level_dvfs: bool = False
    #: Evaluation counters per phase, for the overhead benchmark.
    n_hot_iterations: int = 0
    n_cool_iterations: int = 0
    #: Latest actuator-health view pushed by the engine (None when the
    #: run has no health monitoring). Masked actuators are excluded from
    #: every candidate set so the heuristic degrades gracefully instead
    #: of oscillating on knobs that no longer respond.
    _health: object = field(default=None, repr=False)

    def set_actuator_health(self, health) -> None:
        self._health = health

    def reset(self) -> None:
        self.n_hot_iterations = 0
        self.n_cool_iterations = 0
        self._health = None

    def _ceiling_c(
        self, problem: EnergyProblem, extra_margin_c: float = 0.0
    ) -> float:
        """Guard-banded acceptance ceiling on the predicted peak [degC]."""
        return problem.t_threshold_c - self.guard_band_c - extra_margin_c

    def _ok(
        self, est: Estimate, problem: EnergyProblem, extra_margin_c: float = 0.0
    ) -> bool:
        """Guard-banded feasibility for candidate acceptance."""
        return est.peak_temp_c <= self._ceiling_c(problem, extra_margin_c)

    # ------------------------------------------------------------------
    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        est = estimator.evaluate(state)
        if not problem.satisfied(est.peak_temp_c):
            final, final_est = self._hot_iterations(
                state, est, estimator, problem
            )
        else:
            final, final_est = self._cool_iterations(
                state, est, estimator, problem
            )
        # The iterations hand back the accepted candidate's own estimate,
        # so committing needs no re-evaluation.
        estimator.commit(final_est)
        return final

    # ------------------------------------------------------------------
    # Hot iterations
    # ------------------------------------------------------------------
    def _hot_iterations(
        self,
        state: ActuatorState,
        est: Estimate,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> tuple[ActuatorState, Estimate]:
        """Walk from ``state`` (estimated as ``est``) until the estimate
        is feasible or nothing moves. A DVFS lowering carries its batch
        row as the next estimate; only a TEC toggle needs a fresh one."""
        system = estimator.system
        work = state
        for _ in range(self.max_iterations):
            self.n_hot_iterations += 1
            obs.incr("controller.hot_iterations")
            if est is None:
                est = estimator.evaluate(work)
            if self._ok(est, problem):
                return work, est

            moved = False
            stages = ("tec", "dvfs") if self.tec_first else ("dvfs", "tec")
            for stage in stages:
                if stage == "tec":
                    # Turn on the TEC over the hottest violating spot.
                    device = self._tec_over_hottest_violation(
                        work, est, system, problem
                    )
                    if device is not None:
                        work, est = work.with_tec(device, 1.0), None
                        moved = True
                        break
                else:
                    # Lower DVFS, choosing the smallest-EPI candidate.
                    candidates = self._dvfs_candidates(work, system, -1)
                    if candidates:
                        batch = estimator.evaluate_many(candidates)
                        est = batch[_first_min(batch.epi)]
                        work = est.state
                        moved = True
                        break
            if not moved:
                return work, est  # everything saturated; nothing more to do
        # Iteration budget exhausted after a move: a TEC toggle is the one
        # move not yet estimated.
        if est is None:
            est = estimator.evaluate(work)
        return work, est

    def _tec_over_hottest_violation(
        self,
        state: ActuatorState,
        est: Estimate,
        system,
        problem: EnergyProblem,
    ) -> int | None:
        """Off-device covering the hottest violating component, if any.

        Devices the health monitor has masked are skipped — commanding
        a dead element on would only feed the estimator a fiction.
        """
        health = self._health
        t_comp_c = units.k_to_c(
            est.t_nodes_k[system.nodes.component_slice]
        )
        hot = np.flatnonzero(t_comp_c > problem.t_threshold_c)
        if hot.size == 0:
            return None
        for ci in hot[np.argsort(t_comp_c[hot])[::-1]]:
            for dev in system.tec.devices_over_component(int(ci)):
                if health is not None and not health.tec_ok[dev]:
                    continue
                if state.tec[dev] < 1.0:
                    return int(dev)
        return None

    # ------------------------------------------------------------------
    # Cool iterations
    # ------------------------------------------------------------------
    def _cool_iterations(
        self,
        state: ActuatorState,
        est: Estimate,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> tuple[ActuatorState, Estimate]:
        system = estimator.system
        work, cur = state, est
        raises_accepted = 0
        for _ in range(self.max_iterations):
            self.n_cool_iterations += 1
            obs.incr("controller.cool_iterations")

            # Phase A: DVFS raises that buy performance.
            nxt = self._best_raise(
                work, cur, estimator, problem, system, raises_accepted
            )
            if nxt is not None:
                work, cur = nxt.state, nxt
                raises_accepted += 1
                continue

            # Phase B: performance-neutral, EPI-improving decreases.
            nxt = self._best_lowering(work, cur, estimator, problem, system)
            if nxt is not None:
                work, cur = nxt.state, nxt
                continue

            # Phase C: turn off the TEC over the coolest component.
            nxt = self._tec_off_coolest(work, cur, estimator, problem, system)
            if nxt is not None:
                work, cur = nxt.state, nxt
                continue
            return work, cur
        return work, cur

    def _dvfs_candidates(self, work, system, direction: int) -> list:
        """Single-step DVFS moves: per-core, or lock-stepped chip-wide.

        ``direction`` is +1 (raise) or -1 (lower). Chip-level mode moves
        every core whose level admits the step, together — the paper's
        "integrated with chip-level DVFS seamlessly" variant.
        """
        max_level = system.dvfs.max_level
        health = self._health
        if self.chip_level_dvfs:
            new_levels = np.clip(work.dvfs + direction, 0, max_level)
            if np.array_equal(new_levels, work.dvfs):
                return []
            return [work.with_dvfs_vector(new_levels)]
        if direction > 0:
            return [
                work.with_dvfs(core, int(work.dvfs[core]) + 1)
                for core in range(system.n_cores)
                if work.dvfs[core] < max_level
                and (health is None or health.dvfs_ok[core])
            ]
        return [
            work.with_dvfs(core, int(work.dvfs[core]) - 1)
            for core in range(system.n_cores)
            if work.dvfs[core] > 0
            and (health is None or health.dvfs_ok[core])
        ]

    def _best_raise(
        self, work, cur, estimator, problem, system, raises_accepted=0
    ) -> Estimate | None:
        candidates = self._dvfs_candidates(work, system, +1)
        if not candidates:
            return None
        margin = self.coupling_penalty_c * raises_accepted
        batch = estimator.evaluate_many(candidates)
        gains = batch.ips_chip > cur.ips_chip * (1.0 + self.ips_gain_rel)
        cool = batch.peak_c <= self._ceiling_c(problem, margin)
        return _pick(batch, gains & cool)

    def _best_lowering(
        self, work, cur, estimator, problem, system
    ) -> Estimate | None:
        candidates = self._dvfs_candidates(work, system, -1)
        if not candidates:
            return None
        batch = estimator.evaluate_many(candidates)
        neutral = batch.ips_chip >= cur.ips_chip * (1.0 - self.ips_loss_rel)
        saves = batch.epi < cur.epi * (1.0 - self.epi_improvement_rel)
        cool = batch.peak_c <= self._ceiling_c(problem)
        return _pick(batch, neutral & saves & cool)

    def _tec_off_coolest(
        self, work, cur, estimator, problem, system
    ) -> Estimate | None:
        if self._health is not None:
            on = np.flatnonzero((work.tec > 0.0) & self._health.tec_ok)
        else:
            on = np.flatnonzero(work.tec > 0.0)
        if on.size == 0:
            return None
        t_comp_k = cur.t_nodes_k[system.nodes.component_slice]
        cold = system.tec.cold_side_temperature_k(t_comp_k)
        device = int(on[np.argmin(cold[on])])
        e = estimator.evaluate(work.with_tec(device, 0.0))
        saves = e.epi < cur.epi * (1.0 - self.epi_improvement_rel)
        if saves and self._ok(e, problem):
            return e
        return None

    # ------------------------------------------------------------------
    # Higher level: fan speed
    # ------------------------------------------------------------------
    def decide_fan(
        self,
        state: ActuatorState,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> int:
        if self._health is not None and not self._health.fan_ok:
            # A fan that ignores commands makes the walk pointless (and
            # the estimate misleading); hold and let the lower level and
            # the watchdog carry the load.
            return state.fan_level
        fan = estimator.system.fan
        level = state.fan_level
        peak = estimator.evaluate_fan_setting(
            avg_p_components_w, avg_tec, level
        )
        if not problem.satisfied(peak):
            # Hot: speed up until the estimated hot spots disappear.
            while level > 1:
                level -= 1
                peak = estimator.evaluate_fan_setting(
                    avg_p_components_w, avg_tec, level
                )
                if problem.satisfied(peak):
                    break
            return level
        # Cool: slow down while the estimate stays hot-spot free.
        while level < fan.n_levels:
            peak = estimator.evaluate_fan_setting(
                avg_p_components_w, avg_tec, level + 1
            )
            if not problem.satisfied(peak):
                break
            level += 1
        return level
