"""Full-model next-interval estimator."""

import numpy as np
import pytest

from repro.core.estimator import NextIntervalEstimator
from repro.core.state import ActuatorState
from repro.exceptions import ControlError
from repro.perf.ips import IPSTracker


@pytest.fixture()
def primed(system2, base_state2):
    est = NextIntervalEstimator(
        system=system2, ips_predictor=IPSTracker(system2.dvfs)
    )
    n_comp = system2.nodes.n_components
    temps = np.full(n_comp, 70.0)
    p_dyn = np.full(n_comp, 0.15)
    ips = np.full(system2.n_cores, 1.2e9)
    est.begin_interval(temps, p_dyn, ips, base_state2, 2e-3)
    return est


def test_evaluate_before_begin_raises(system2, base_state2):
    est = NextIntervalEstimator(
        system=system2, ips_predictor=IPSTracker(system2.dvfs)
    )
    with pytest.raises(ControlError):
        est.evaluate(base_state2)


def test_nonpositive_dt_rejected(system2, base_state2):
    est = NextIntervalEstimator(
        system=system2, ips_predictor=IPSTracker(system2.dvfs)
    )
    with pytest.raises(ControlError):
        est.begin_interval(
            np.full(system2.nodes.n_components, 70.0),
            np.full(system2.nodes.n_components, 0.1),
            np.full(system2.n_cores, 1e9),
            base_state2,
            0.0,
        )


def test_estimate_fields_consistent(primed, base_state2, system2):
    e = primed.evaluate(base_state2)
    assert e.p_chip_w == pytest.approx(
        e.p_cores_w + e.p_tec_w + e.p_fan_w
    )
    assert e.p_fan_w == pytest.approx(system2.fan.power_w(1))
    assert e.ips_chip == pytest.approx(2 * 1.2e9)
    assert e.epi == pytest.approx(e.p_chip_w / e.ips_chip)
    assert e.t_nodes_k.shape == (system2.nodes.n_nodes,)


def test_every_evaluation_counts(primed, base_state2):
    """No memo: a repeat is scored again, counts, and answers equal
    scores through either entry point."""
    first = primed.evaluate(base_state2)
    n = primed.n_evaluations
    again = primed.evaluate(base_state2)
    batch = primed.evaluate_many([base_state2, base_state2])
    assert primed.n_evaluations == n + 3
    for e in (again, batch[0], batch[1]):
        assert e is not first
        assert e.epi == first.epi and e.peak_temp_c == first.peak_temp_c
        np.testing.assert_array_equal(e.t_nodes_k, first.t_nodes_k)


def test_lower_dvfs_lowers_power_and_ips(primed, base_state2):
    e0 = primed.evaluate(base_state2)
    e1 = primed.evaluate(base_state2.with_dvfs(0, 0))
    assert e1.p_cores_w < e0.p_cores_w
    assert e1.ips_chip < e0.ips_chip


def test_tec_on_costs_power_lowers_hotspot(primed, base_state2, system2):
    e0 = primed.evaluate(base_state2)
    cand = base_state2.with_tec_vector(np.ones(system2.n_tec_devices))
    e1 = primed.evaluate(cand)
    assert e1.p_tec_w > 0.0
    assert e1.peak_temp_c <= e0.peak_temp_c + 1e-9


def test_slower_fan_cheaper_but_hotter(primed, base_state2):
    e0 = primed.evaluate(base_state2)
    e1 = primed.evaluate(base_state2.with_fan(3))
    assert e1.p_fan_w < e0.p_fan_w
    assert e1.peak_temp_c > e0.peak_temp_c


def test_commit_adopts_field(primed, base_state2):
    slow = base_state2.with_fan(3)
    e = primed.evaluate(slow)
    primed.commit(e)
    np.testing.assert_array_equal(primed._t_nodes_k, e.t_nodes_k)
    # A state scored before the commit answers against the new field:
    # it is cooler than the sensed 70 degC, so leakage and the transient
    # start point both drop.
    after = primed.evaluate(slow)
    assert after.p_cores_w < e.p_cores_w
    assert after.peak_temp_c < e.peak_temp_c


def test_fan_setting_estimate(primed, system2):
    p = np.full(system2.nodes.n_components, 0.15)
    tec = np.zeros(system2.n_tec_devices)
    peak1 = primed.evaluate_fan_setting(p, tec, 1)
    peak3 = primed.evaluate_fan_setting(p, tec, 3)
    assert peak3 > peak1
