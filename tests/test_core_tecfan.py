"""TECfan heuristic: hot/cool iterations, ordering, fan loop."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.estimator import NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.tecfan import TECfanController
from repro.perf.ips import IPSTracker


def primed_estimator(system, state, temps_c, p_dyn_scale=1.0, ips=1.2e9):
    est = NextIntervalEstimator(
        system=system, ips_predictor=IPSTracker(system.dvfs)
    )
    n_comp = system.nodes.n_components
    p_dyn = np.full(n_comp, 0.15 * p_dyn_scale)
    est.begin_interval(
        np.full(n_comp, temps_c),
        p_dyn,
        np.full(system.n_cores, ips),
        state,
        2e-3,
    )
    return est


def record_states(est):
    """Wrap ``est``'s ``evaluate``/``evaluate_many``; the returned list
    collects every state passed, as (tec bytes, dvfs bytes, fan) values."""
    seen: list = []
    evaluate, evaluate_many = est.evaluate, est.evaluate_many

    def ident(s):
        return s.tec.tobytes(), s.dvfs.tobytes(), s.fan_level

    def one(state):
        seen.append(ident(state))
        return evaluate(state)

    def many(states):
        seen.extend(map(ident, states))
        return evaluate_many(states)

    est.evaluate, est.evaluate_many = one, many
    return seen


@pytest.fixture()
def controller():
    # Full-model estimator keeps these unit tests deterministic & fast.
    return TECfanController(estimator_kind="full")


def test_cool_chip_stays_at_max_dvfs(system2, base_state2, controller):
    """Well below threshold nothing should change: all cores already at
    max, no TECs on, nothing to save."""
    est = primed_estimator(system2, base_state2, temps_c=60.0)
    problem = EnergyProblem(t_threshold_c=95.0)
    out = controller.decide(base_state2, np.full(
        system2.nodes.n_components, 60.0), est, problem)
    assert np.all(out.dvfs == system2.dvfs.max_level)
    assert out.tec_on_count == 0


def test_hot_iteration_turns_tecs_on_first(system2, base_state2, controller):
    """Paper: 'our algorithm starts with turning on TEC devices'."""
    est = primed_estimator(system2, base_state2, temps_c=70.0,
                           p_dyn_scale=2.0)
    e0 = est.evaluate(base_state2)
    # Threshold just below the predicted peak: mild violation
    # (slightly beyond the 0.5 degC guard band).
    problem = EnergyProblem(t_threshold_c=e0.peak_temp_c - 0.7)
    scored = record_states(est)
    out = controller.decide(
        base_state2,
        np.full(system2.nodes.n_components, 70.0),
        est,
        problem,
    )
    assert out.tec_on_count > 0
    # The hot walk carries each move's estimate: no state is scored twice.
    assert len(scored) == len(set(scored))
    # TECs engage before any deep throttling: at most one DVFS step.
    assert np.mean(system2.dvfs.max_level - out.dvfs) <= 1.0


def test_hot_iteration_falls_back_to_dvfs(system2, base_state2, controller):
    """When TECs cannot close the gap, DVFS lowering engages."""
    est = primed_estimator(system2, base_state2, temps_c=80.0,
                           p_dyn_scale=4.0)
    e0 = est.evaluate(base_state2)
    problem = EnergyProblem(t_threshold_c=e0.peak_temp_c - 12.0)
    scored = record_states(est)
    out = controller.decide(
        base_state2,
        np.full(system2.nodes.n_components, 80.0),
        est,
        problem,
    )
    assert np.any(out.dvfs < system2.dvfs.max_level)
    # Each DVFS lowering's batch row is the next step's estimate.
    assert len(scored) == len(set(scored))
    e1 = est.evaluate(out)
    assert e1.peak_temp_c < e0.peak_temp_c


def test_cool_iteration_raises_throttled_cores(system2, controller):
    """Performance priority: a throttled core comes back up when the
    temperature allows."""
    throttled = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    ).with_dvfs_vector(np.zeros(system2.n_cores, dtype=int))
    est = primed_estimator(system2, throttled, temps_c=55.0)
    problem = EnergyProblem(t_threshold_c=95.0)
    out = controller.decide(
        throttled,
        np.full(system2.nodes.n_components, 55.0),
        est,
        problem,
    )
    assert np.all(out.dvfs > 0)


def test_cool_iteration_turns_off_useless_tecs(system2, controller):
    """With temps far below threshold, running TECs is wasted energy."""
    all_on = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    ).with_tec_vector(np.ones(system2.n_tec_devices))
    est = primed_estimator(system2, all_on, temps_c=55.0)
    problem = EnergyProblem(t_threshold_c=95.0)
    out = controller.decide(
        all_on, np.full(system2.nodes.n_components, 55.0), est, problem
    )
    assert out.tec_on_count < system2.n_tec_devices


def test_dvfs_first_ablation_prefers_throttling(system2, base_state2):
    """tec_first=False must reach for DVFS before TECs."""
    ctrl = TECfanController(estimator_kind="full", tec_first=False)
    est = primed_estimator(system2, base_state2, temps_c=70.0,
                           p_dyn_scale=2.0)
    e0 = est.evaluate(base_state2)
    problem = EnergyProblem(t_threshold_c=e0.peak_temp_c - 1.0)
    out = ctrl.decide(
        base_state2, np.full(system2.nodes.n_components, 70.0), est, problem
    )
    assert np.any(out.dvfs < system2.dvfs.max_level)


def test_fan_loop_slows_when_cool(system2, base_state2, controller):
    est = primed_estimator(system2, base_state2, temps_c=50.0)
    problem = EnergyProblem(t_threshold_c=95.0)
    avg_p = np.full(system2.nodes.n_components, 0.05)
    level = controller.decide_fan(
        base_state2, avg_p, np.zeros(system2.n_tec_devices), est, problem
    )
    assert level > 1


def test_fan_loop_speeds_up_when_hot(system2, controller):
    state = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level,
        fan_level=4,
    )
    est = primed_estimator(system2, state, temps_c=80.0, p_dyn_scale=3.0)
    avg_p = np.full(system2.nodes.n_components, 0.45)
    # Threshold low enough that level 4 is estimated hot.
    peak4 = est.evaluate_fan_setting(
        avg_p, np.zeros(system2.n_tec_devices), 4
    )
    problem = EnergyProblem(t_threshold_c=peak4 - 2.0)
    level = controller.decide_fan(
        state, avg_p, np.zeros(system2.n_tec_devices), est, problem
    )
    assert level < 4


def test_iteration_counters(system2, base_state2, controller):
    controller.reset()
    est = primed_estimator(system2, base_state2, temps_c=60.0)
    problem = EnergyProblem(t_threshold_c=95.0)
    controller.decide(
        base_state2, np.full(system2.nodes.n_components, 60.0), est, problem
    )
    assert controller.n_cool_iterations > 0
    assert controller.n_hot_iterations == 0


# ----------------------------------------------------------------------
# Array selection: the first minimum, as the per-candidate scan keeps it
# ----------------------------------------------------------------------
class _ConstructedScores:
    """Estimator stub answering every batch with fixed score arrays."""

    def __init__(self, system, epi, peak_c, ips):
        self.system = system
        self.epi, self.peak_c, self.ips = epi, peak_c, ips

    def evaluate_many(self, states):
        from repro.core.estimator import EstimateBatch

        n = len(states)
        zeros = np.zeros(n)
        return EstimateBatch(
            states, np.asarray(self.peak_c[:n], float), zeros, zeros,
            zeros, zeros, np.asarray(self.ips[:n], float),
            np.asarray(self.epi[:n], float),
            field_of=lambda j: np.zeros(self.system.nodes.n_nodes),
        )


def _scan(batch, ok):
    """The per-candidate selection loop the array selection replaces."""
    best = None
    for j in range(len(batch)):
        if ok[j] and (best is None or batch.epi[j] < batch[best].epi):
            best = j
    return best


@pytest.mark.parametrize(
    "epi",
    [
        [3.0, 1.0, 2.0, 1.0, 1.0, 4.0],  # ties: the first minimum wins
        [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
        [np.inf, 5.0, np.inf, 5.0, 6.0, 7.0],
        [np.inf] * 6,
        [4.0, np.nan, 3.0, 3.0, np.nan, 9.0],  # a later NaN never wins
        [np.nan, 1.0, 0.5, 0.5, 2.0, 3.0],  # a NaN in first place stays
    ],
)
def test_equal_epi_candidates_pick_first_minimum(system16, epi):
    from repro.core.tecfan import _first_min

    state = ActuatorState.initial(
        system16.n_tec_devices, system16.n_cores, 3, fan_level=2
    )
    n = 6
    epi = np.array(epi + [50.0] * (system16.n_cores - n))
    # Candidate 4 is too hot and candidate 5 loses IPS: both are masked.
    peak = np.full(system16.n_cores, 60.0)
    peak[4] = 99.0
    ips = np.full(system16.n_cores, 2e9)
    ips[5] = 0.5e9
    stub = _ConstructedScores(system16, epi, peak, ips)
    cur = replace(stub.evaluate_many([state])[0], ips_chip=1e9, epi=100.0)
    ctl = TECfanController()
    problem = EnergyProblem(t_threshold_c=80.0)
    cands = ctl._dvfs_candidates(state, system16, +1)
    batch = stub.evaluate_many(cands)
    ok = (batch.ips_chip > 1e9) & (batch.peak_c <= 79.5)
    want = _scan(batch, ok)
    got = ctl._best_raise(state, cur, stub, problem, system16)
    assert np.array_equal(got.state.dvfs, cands[want].dvfs)
    assert _first_min(batch.epi) == _scan(batch, np.ones(len(batch), bool))
