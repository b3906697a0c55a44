"""Next-interval estimation: the controller's what-if machine.

Each control period, TECfan (and the baselines that estimate) must
answer: *if* the actuators were set to candidate configuration X, what
would next interval's temperatures and per-instruction energy be?
(Sec. III-D: "estimate the temperature and per-instruction energy
consumption in the next time interval if certain adjustment is made").

The estimator composes the paper's on-line models:

* dynamic power — Eq. (7) scaling of the last *measured* interval
  (:class:`repro.power.dynamic.DynamicPowerTracker`);
* leakage — linear Eq. (6) at the last measured temperatures;
* temperature — steady state Eq. (1) + transient Eq. (5);
* IPS — a pluggable predictor: Eq. (11) linear scaling for the closed
  SPLASH-2 workloads, or the demand-capped quadratic SPECjbb model for
  the server experiment (Sec. IV-B);
* TEC and fan power — Eq. (9) and the fan table.

Every estimated candidate is counted (``n_evaluations``), which is how
the overhead benchmark validates the O(NL + N^2 M) complexity claim of
Sec. V-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro import units
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem
from repro.exceptions import ControlError
from repro.obs import telemetry as obs
from repro.power.component_power import core_dvfs_domain_mask
from repro.power.dynamic import DynamicPowerTracker
from repro.thermal.keys import exact_actuator_key


class IPSPredictor(Protocol):
    """Strategy mapping candidate DVFS vectors to per-core IPS."""

    def observe(self, ips: np.ndarray, dvfs_levels: np.ndarray) -> None:
        """Record the last interval's measured IPS and levels."""
        ...

    def predict(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-core IPS for a candidate level vector."""
        ...

    def predict_many(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """``(batch, n_cores)`` IPS for a ``(batch, n_cores)`` level
        matrix; row ``b`` is bit-identical to ``predict(dvfs_levels[b])``."""
        ...


@dataclass(frozen=True)
class Estimate:
    """Outcome of one what-if evaluation."""

    state: ActuatorState
    t_nodes_k: np.ndarray
    peak_temp_c: float
    p_chip_w: float
    p_cores_w: float
    p_tec_w: float
    p_fan_w: float
    ips_chip: float
    epi: float


@dataclass
class NextIntervalEstimator:
    """What-if evaluator over one :class:`CMPSystem`: the full model.

    Call :meth:`begin_interval` once per control period with the plant's
    measurements, then :meth:`evaluate` or :meth:`evaluate_many` for the
    candidates. Evaluations within a period are memoized by actuator
    state.

    The observer, the memo and the tail that turns predicted fields into
    :class:`Estimate` objects live here once. A subclass supplies its own
    :meth:`begin_interval` and :meth:`_predict_fields` (see
    :class:`repro.core.local_estimator.LocalBandedEstimator`).
    """

    system: CMPSystem
    ips_predictor: IPSPredictor
    dyn_tracker: DynamicPowerTracker = field(default=None)
    #: Total evaluations performed (complexity accounting).
    n_evaluations: int = 0

    # Per-interval context
    _t_nodes_k: np.ndarray = field(default=None, repr=False)
    _dt_s: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.dyn_tracker is None:
            self.dyn_tracker = DynamicPowerTracker(
                dvfs=self.system.dvfs,
                tile_of=self.system.chip.tile_of(),
                core_domain=core_dvfs_domain_mask(self.system.chip),
            )

    # ------------------------------------------------------------------
    def begin_interval(
        self,
        sensor_temps_c: np.ndarray,
        p_dyn_measured_w: np.ndarray,
        ips_measured: np.ndarray,
        state: ActuatorState,
        dt_s: float,
    ) -> None:
        """Load one control period's measurements.

        Parameters
        ----------
        sensor_temps_c:
            Per-component sensor readings [degC].
        p_dyn_measured_w:
            Per-component dynamic power of the last interval [W]
            (CAMP-style runtime estimate).
        ips_measured:
            Per-core IPS of the last interval.
        state:
            The actuator configuration that produced the measurements.
        dt_s:
            Lower-level control period length.
        """
        # The controller senses die components; spreader and sink states
        # persist from its own previous prediction (a simple observer).
        t = self._observe(p_dyn_measured_w, ips_measured, state, dt_s)
        t[self.system.nodes.component_slice] = units.c_to_k(sensor_temps_c)
        self._t_nodes_k = t

    def _observe(
        self,
        p_dyn_measured_w: np.ndarray,
        ips_measured: np.ndarray,
        state: ActuatorState,
        dt_s: float,
    ) -> np.ndarray:
        """Shared :meth:`begin_interval` prologue.

        Validates ``dt_s``, feeds both trackers and drops the memo;
        returns a copy of the observer field (uniform before the first
        interval) for the caller to update.
        """
        if dt_s <= 0:
            raise ControlError(f"non-positive control period {dt_s}")
        if self._t_nodes_k is None:
            self._t_nodes_k = self.system.uniform_initial_temps_k()
        self.dyn_tracker.observe(p_dyn_measured_w, state.dvfs)
        self.ips_predictor.observe(ips_measured, state.dvfs)
        self._dt_s = dt_s
        self._cache.clear()
        return self._t_nodes_k.copy()

    def commit(self, estimate: Estimate) -> None:
        """Adopt an accepted candidate's field as the observer state."""
        self._t_nodes_k = estimate.t_nodes_k

    def predicted_component_temps_c(self) -> np.ndarray | None:
        """The observer's current component temperatures [degC].

        After a :meth:`commit`, this is the model's prediction of what
        the *next* interval's sensors should read — the reference the
        engine's sensor validator checks raw readings against. ``None``
        until the first interval.
        """
        if self._t_nodes_k is None:
            return None
        return units.k_to_c(
            self._t_nodes_k[self.system.nodes.component_slice]
        )

    # ------------------------------------------------------------------
    def evaluate(self, state: ActuatorState) -> Estimate:
        """Predict next-interval temperature and EPI for ``state``.

        The one-candidate :meth:`evaluate_many`, without the batch
        counters.
        """
        if self._t_nodes_k is None:
            raise ControlError("begin_interval must be called first")
        key = state.key()
        hit = self._cache.get(key)
        if hit is not None:
            obs.incr("estimator.cache_hits")
            return hit
        return self._estimate_misses([state], [key])[0]

    def evaluate_many(self, states: list) -> list:
        """:meth:`evaluate` over many candidate states.

        The returned list matches ``states`` positionally and every
        :class:`Estimate` is bit-identical to the single-candidate call:
        memoized states are served from the cache, each distinct miss is
        estimated once in one batch, and every estimate enters the memo.
        """
        if self._t_nodes_k is None:
            raise ControlError("begin_interval must be called first")
        results: list = [None] * len(states)
        first_miss: dict = {}  # memo key -> position of its first miss
        for i, state in enumerate(states):
            key = state.key()
            hit = self._cache.get(key)
            if hit is not None:
                obs.incr("estimator.cache_hits")
                results[i] = hit
            elif key not in first_miss:
                first_miss[key] = i
        if first_miss:
            obs.incr("estimator.batch_calls")
            obs.incr("estimator.batch_candidates", len(first_miss))
            where = list(first_miss.values())
            estimates = self._estimate_misses(
                [states[i] for i in where], list(first_miss)
            )
            for i, est in zip(where, estimates):
                results[i] = est
        for i, state in enumerate(states):
            if results[i] is None:  # in-batch duplicate of a miss
                obs.incr("estimator.cache_hits")
                results[i] = self._cache[state.key()]
        return results

    def _estimate_misses(self, states: list, keys: list) -> list:
        """Estimates for distinct memo misses, entered into the memo.

        The field comes from :meth:`_predict_fields`; the rest is shared:
        Eq. (7) dynamic power, IPS, one TEC-power scatter per distinct
        activation vector, fan power and EPI. Row-wise sums run over
        contiguous copies, so each keeps the pairwise-summation order of
        a per-candidate ``.sum()`` and a row does not depend on its batch.
        """
        system = self.system
        levels = np.stack([s.dvfs for s in states])
        if levels.min() < 0 or levels.max() >= self.dyn_tracker.dvfs.n_levels:
            raise ControlError("candidate DVFS level outside the DVFS table")
        p_dyn_many = self.dyn_tracker.predict_many(levels)
        t_rows, p_leak = self._predict_fields(states, levels, p_dyn_many)
        ips_many = self.ips_predictor.predict_many(levels)
        peaks = units.k_to_c(t_rows[:, system.nodes.component_slice]).max(
            axis=1
        )
        p_dyn_sums = np.ascontiguousarray(p_dyn_many).sum(axis=1)
        ips_sums = np.ascontiguousarray(ips_many).sum(axis=1)
        p_leak_sum = p_leak.sum()
        p_tec_rows = np.empty(len(states))
        tec_groups: dict = {}
        for j, state in enumerate(states):
            tec_groups.setdefault(state.tec.tobytes(), []).append(j)
        for members in tec_groups.values():
            p_tec_rows[members] = system.tec_power_many(
                states[members[0]].tec, t_rows[members]
            )

        self.n_evaluations += len(states)
        obs.incr("estimator.evaluations", len(states))
        fan_w: dict = {}
        estimates = []
        for j, (state, key) in enumerate(zip(states, keys)):
            p_cores = float(p_dyn_sums[j] + p_leak_sum)
            p_tec = float(p_tec_rows[j])
            p_fan = fan_w.get(state.fan_level)
            if p_fan is None:
                p_fan = fan_w[state.fan_level] = system.fan.power_w(
                    state.fan_level
                )
            p_chip = p_cores + p_tec + p_fan
            ips = float(ips_sums[j])
            est = Estimate(
                state=state,
                t_nodes_k=t_rows[j],
                peak_temp_c=float(peaks[j]),
                p_chip_w=p_chip,
                p_cores_w=p_cores,
                p_tec_w=p_tec,
                p_fan_w=p_fan,
                ips_chip=ips,
                epi=EnergyProblem.epi(p_chip, ips),
            )
            self._cache[key] = est
            estimates.append(est)
        return estimates

    def _predict_fields(
        self, states: list, levels: np.ndarray, p_dyn_many: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Next-interval node fields of ``states`` and the leakage they use.

        Returns the ``(len(states), n_nodes)`` fields [K] and the
        per-component leakage [W]. The full model: linear Eq. (6) leakage
        at the observer's component temperatures, steady state Eq. (1)
        and transient Eq. (5). One multi-RHS solve per distinct (fan, TEC)
        setting shares the LU factorization and transient betas; grouping
        is exact (not the caches' quantized keying) because members share
        one factorization.
        """
        system = self.system
        t_now = self._t_nodes_k
        p_leak = system.power.controller_leakage.per_component_w(
            t_now[system.nodes.component_slice]
        )
        t_rows = np.empty((len(states), len(t_now)))
        groups: dict = {}
        for j, state in enumerate(states):
            gkey = exact_actuator_key(state.fan_level, state.tec)
            groups.setdefault(gkey, []).append(j)
        for members in groups.values():
            fan, tec = states[members[0]].fan_level, states[members[0]].tec
            t_steady = system.solver.solve_many(
                p_dyn_many[members] + p_leak[None, :], fan, tec
            )
            beta = system.transient.betas(self._dt_s, fan, tec)
            t_rows[members] = (
                (1.0 - beta)[None, :] * t_steady + beta[None, :] * t_now[None, :]
            )
        return t_rows, p_leak

    # ------------------------------------------------------------------
    def evaluate_fan_setting(
        self,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        fan_level: int,
    ) -> float:
        """Higher-level fan loop estimate: steady-state peak temp [degC].

        Uses the last higher-level interval's *average* power and TEC
        state (possibly fractional), per Sec. III-D. The fan acts through
        the heat sink whose time constant dwarfs the fan period, so the
        steady field is the right horizon. Always the full model: even
        the banded hardware runs this in firmware, at seconds scale.
        """
        self.n_evaluations += 1
        t = self.system.solver.solve(avg_p_components_w, fan_level, avg_tec)
        return float(
            units.k_to_c(t[self.system.nodes.component_slice]).max()
        )
