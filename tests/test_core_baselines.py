"""Baseline policies: reactive TEC, reactive DVFS, their combination."""

import numpy as np
import pytest

from repro.core.baselines import (
    DVFS_RAISE_HYSTERESIS_C,
    DVFSTECController,
    FanDVFSController,
    FanOnlyController,
    FanTECController,
    TEC_OFF_HYSTERESIS_C,
    _tec_reactive,
)
from repro.core.estimator import NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.perf.ips import IPSTracker

TH = 80.0


@pytest.fixture()
def est(system2, base_state2):
    e = NextIntervalEstimator(
        system=system2, ips_predictor=IPSTracker(system2.dvfs)
    )
    n = system2.nodes.n_components
    e.begin_interval(
        np.full(n, 70.0), np.full(n, 0.1),
        np.full(system2.n_cores, 1e9), base_state2, 2e-3,
    )
    return e


@pytest.fixture()
def problem():
    return EnergyProblem(t_threshold_c=TH)


def temps(system, value):
    return np.full(system.nodes.n_components, float(value))


def test_fan_only_never_acts(system2, base_state2, est, problem):
    ctrl = FanOnlyController()
    out = ctrl.decide(base_state2, temps(system2, 150.0), est, problem)
    assert out is base_state2
    assert ctrl.decide_fan(base_state2, None, None, est, problem) == 1


def test_fantec_turns_on_over_violation(system2, base_state2, est, problem):
    t = temps(system2, 70.0)
    hot_comp = 3
    t[hot_comp] = TH + 2.0
    out = FanTECController().decide(base_state2, t, est, problem)
    over = system2.tec.devices_over_component(hot_comp)
    assert np.all(out.tec[over] == 1.0)
    # Devices elsewhere stay off.
    assert out.tec_on_count == len(over)


def test_fantec_hysteresis_band_holds(system2, est, problem):
    on = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    ).with_tec_vector(np.ones(system2.n_tec_devices))
    # Inside the band: below threshold but above threshold - hysteresis.
    t = temps(system2, TH - TEC_OFF_HYSTERESIS_C / 2)
    out = FanTECController().decide(on, t, est, problem)
    assert out.tec_on_count == system2.n_tec_devices
    # Below the band: all off.
    t2 = temps(system2, TH - TEC_OFF_HYSTERESIS_C - 1.0)
    out2 = FanTECController().decide(on, t2, est, problem)
    assert out2.tec_on_count == 0


def _tec_reactive_loop(state, sensor_temps_c, system, problem):
    """The reactive TEC rule written per placement."""
    tec = state.tec.copy()
    for placement in system.tec.placements:
        under = sensor_temps_c[placement.component_idx]
        if np.any(under > problem.t_threshold_c):
            tec[placement.device] = 1.0
        elif np.all(under < problem.t_threshold_c - TEC_OFF_HYSTERESIS_C):
            tec[placement.device] = 0.0
    return tec


@pytest.mark.parametrize("seed", range(4))
def test_reactive_tec_rule_matches_per_placement_loop(system16, problem, seed):
    """Segment reductions == the per-placement loop, bit for bit, on
    readings inside the hysteresis band, on its edges, and with NaN
    sensors."""
    system = system16
    rng = np.random.default_rng(seed)
    n_comp = system.nodes.n_components
    t = TH - 2.0 * TEC_OFF_HYSTERESIS_C + 3.0 * TEC_OFF_HYSTERESIS_C * (
        rng.random(n_comp)
    )
    edges = rng.choice(n_comp, size=20, replace=False)
    t[edges[:10]] = TH
    t[edges[10:]] = TH - TEC_OFF_HYSTERESIS_C
    t[rng.random(n_comp) < 0.1] = np.nan
    tec = rng.choice([0.0, 0.25, 1.0], size=system.n_tec_devices)
    state = ActuatorState(
        tec=tec,
        dvfs=np.full(system.n_cores, system.dvfs.max_level),
        fan_level=1,
    )
    want = _tec_reactive_loop(state, t, system, problem)
    got = _tec_reactive(state, t, system, problem)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # Every branch is exercised: on, off and hold.
    assert np.any(want == 1.0) and np.any(want == 0.0)
    assert np.any(want == 0.25)


def test_fandvfs_throttles_on_violation(system2, base_state2, est, problem):
    t = temps(system2, 70.0)
    sl = system2.chip.tile_slice(1)
    t[sl.start] = TH + 1.0  # core 1 violates
    out = FanDVFSController().decide(base_state2, t, est, problem)
    assert out.dvfs[1] == system2.dvfs.max_level - 1
    assert out.dvfs[0] == system2.dvfs.max_level


def test_fandvfs_raise_hysteresis(system2, est, problem):
    throttled = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    ).with_dvfs_vector(np.array([2, 2]))
    # Inside the hysteresis band: hold.
    t = temps(system2, TH - DVFS_RAISE_HYSTERESIS_C / 2)
    out = FanDVFSController().decide(throttled, t, est, problem)
    assert np.all(out.dvfs == 2)
    # Cool enough: raise one step.
    t2 = temps(system2, TH - DVFS_RAISE_HYSTERESIS_C - 1.0)
    out2 = FanDVFSController().decide(throttled, t2, est, problem)
    assert np.all(out2.dvfs == 3)


def test_fandvfs_clamps_at_bounds(system2, est, problem):
    bottom = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    ).with_dvfs_vector(np.zeros(system2.n_cores, dtype=int))
    out = FanDVFSController().decide(
        bottom, temps(system2, TH + 10.0), est, problem
    )
    assert np.all(out.dvfs == 0)


def test_dvfstec_is_the_uncoordinated_union(system2, base_state2, est,
                                            problem):
    t = temps(system2, TH + 1.0)  # everything hot
    out = DVFSTECController().decide(base_state2, t, est, problem)
    tec_only = FanTECController().decide(base_state2, t, est, problem)
    dvfs_only = FanDVFSController().decide(base_state2, t, est, problem)
    np.testing.assert_array_equal(out.tec, tec_only.tec)
    np.testing.assert_array_equal(out.dvfs, dvfs_only.dvfs)


def test_baselines_use_full_estimator_kind():
    for ctrl in (FanOnlyController(), FanTECController(),
                 FanDVFSController(), DVFSTECController()):
        assert ctrl.estimator_kind == "full"
