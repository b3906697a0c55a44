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


#: Per-candidate score arrays of an :class:`EstimateBatch`, paired with
#: the :class:`Estimate` field each becomes.
BATCH_SCORES = (
    ("peak_c", "peak_temp_c"),
    ("p_chip_w", "p_chip_w"),
    ("p_cores_w", "p_cores_w"),
    ("p_tec_w", "p_tec_w"),
    ("p_fan_w", "p_fan_w"),
    ("ips_chip", "ips_chip"),
    ("epi", "epi"),
)


class EstimateBatch:
    """What-if scores of a candidate batch, one row per state.

    ``peak_c`` [degC], ``p_chip_w``, ``p_cores_w``, ``p_tec_w``,
    ``p_fan_w`` [W], ``ips_chip`` and ``epi`` are arrays, so a controller
    selects among candidates without building their fields. ``batch[j]``
    is row ``j``'s full :class:`Estimate`: built (field included) on
    first access and kept, so every access returns the same object and
    its scalars equal the arrays' entries.
    """

    def __init__(
        self,
        states: list,
        peak_c: np.ndarray,
        p_chip_w: np.ndarray,
        p_cores_w: np.ndarray,
        p_tec_w: np.ndarray,
        p_fan_w: np.ndarray,
        ips_chip: np.ndarray,
        epi: np.ndarray,
        field_of=None,
    ) -> None:
        self.states = states
        self.peak_c = peak_c
        self.p_chip_w = p_chip_w
        self.p_cores_w = p_cores_w
        self.p_tec_w = p_tec_w
        self.p_fan_w = p_fan_w
        self.ips_chip = ips_chip
        self.epi = epi
        #: Row -> next-interval node field [K].
        self._field_of = field_of
        self._built: dict = {}

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, j: int) -> Estimate:
        est = self._built.get(j)
        if est is None:
            est = self._built[j] = Estimate(
                state=self.states[j],
                t_nodes_k=self._field_of(j),
                **{
                    attr: float(getattr(self, name)[j])
                    for name, attr in BATCH_SCORES
                },
            )
        return est

    def __iter__(self):
        return (self[j] for j in range(len(self)))


@dataclass
class NextIntervalEstimator:
    """What-if evaluator over one :class:`CMPSystem`: the full model.

    Call :meth:`begin_interval` once per control period with the plant's
    measurements, then :meth:`evaluate` or :meth:`evaluate_many` for the
    candidates. A what-if depends only on the observer field and the
    candidate state: every call scores its candidates afresh, as the
    hardware datapath of Sec. III-E does, and counts them.

    The observer and the tail that turns per-candidate scores into an
    :class:`EstimateBatch` live here once. A subclass supplies its
    own :meth:`begin_interval` and :meth:`_score` (see
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

        Validates ``dt_s`` and feeds both trackers; returns a copy of the
        observer field (uniform before the first interval) for the caller
        to update.
        """
        if dt_s <= 0:
            raise ControlError(f"non-positive control period {dt_s}")
        if self._t_nodes_k is None:
            self._t_nodes_k = self.system.uniform_initial_temps_k()
        self.dyn_tracker.observe(p_dyn_measured_w, state.dvfs)
        self.ips_predictor.observe(ips_measured, state.dvfs)
        self._dt_s = dt_s
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
        return self._estimate([state])[0]

    def evaluate_many(self, states: list) -> EstimateBatch:
        """:meth:`evaluate` over many candidate states, as one batch.

        Row ``j`` of the returned :class:`EstimateBatch` answers for
        ``states[j]`` and is bit-identical to the single-candidate call;
        a state given twice is scored twice.
        """
        if self._t_nodes_k is None:
            raise ControlError("begin_interval must be called first")
        if not states:
            return EstimateBatch([], *(np.empty(0) for _ in BATCH_SCORES))
        obs.incr("estimator.batch_calls")
        obs.incr("estimator.batch_candidates", len(states))
        return self._estimate(states)

    def _estimate(self, states: list) -> EstimateBatch:
        """Scores of a non-empty candidate list.

        Peak temperature, core and TEC power and the field come from
        :meth:`_score`; the rest is shared: IPS, fan power, chip power
        and EPI. Row-wise sums run over contiguous copies, so each keeps
        the pairwise-summation order of a per-candidate ``.sum()`` and a
        row does not depend on its batch.
        """
        system = self.system
        levels = np.array([s.dvfs for s in states])
        if levels.min() < 0 or levels.max() >= self.dyn_tracker.dvfs.n_levels:
            raise ControlError("candidate DVFS level outside the DVFS table")
        peak_c, p_cores, p_tec, field_of = self._score(states, levels)
        ips = np.ascontiguousarray(
            self.ips_predictor.predict_many(levels)
        ).sum(axis=1)
        fan_w = {
            level: system.fan.power_w(level)
            for level in {s.fan_level for s in states}
        }
        p_fan = np.array([fan_w[s.fan_level] for s in states])
        p_chip = p_cores + p_tec + p_fan
        batch = EstimateBatch(
            states,
            peak_c,
            p_chip,
            p_cores,
            p_tec,
            p_fan,
            ips,
            EnergyProblem.epi_many(p_chip, ips),
            field_of,
        )
        self.n_evaluations += len(states)
        obs.incr("estimator.evaluations", len(states))
        return batch

    def _score(self, states: list, levels: np.ndarray):
        """Per-candidate peak [degC], core power and TEC power [W], and
        a row -> next-interval field [K] callable.

        The full model: Eq. (7) dynamic power and linear Eq. (6) leakage
        at the observer's component temperatures, steady state Eq. (1)
        and transient Eq. (5). One multi-RHS solve per distinct (fan, TEC)
        setting shares the LU factorization and transient betas; the
        grouping key is the caches' exact actuator key, so members share
        one factorization. TEC power is one cold-side gather over every
        row, each against its own activation vector.
        """
        system = self.system
        comp = system.nodes.component_slice
        t_now = self._t_nodes_k
        p_dyn_many = self.dyn_tracker.predict_many(levels)
        p_leak = system.power.controller_leakage.per_component_w(t_now[comp])
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
        peak_c = units.k_to_c(t_rows[:, comp]).max(axis=1)
        p_cores = np.ascontiguousarray(p_dyn_many).sum(axis=1) + p_leak.sum()
        p_tec = system.tec_power_many(np.array([s.tec for s in states]), t_rows)
        return peak_c, p_cores, p_tec, t_rows.__getitem__

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
