"""Steady-state solver: physics sanity + LU caching."""

import numpy as np
import pytest

from repro import units
from repro.thermal.steady_state import SteadyStateSolver


@pytest.fixture()
def solver(system2):
    # Fresh solver so cache statistics start at zero.
    return SteadyStateSolver(system2.cond)


def zeros_tec(system):
    return np.zeros(system.n_tec_devices)


def test_zero_power_relaxes_to_ambient(system2, solver):
    t = solver.solve(np.zeros(system2.nodes.n_components), 1, zeros_tec(system2))
    np.testing.assert_allclose(t, system2.package.ambient_k, atol=1e-9)


def test_positive_power_heats_above_ambient(system2, solver):
    p = np.full(system2.nodes.n_components, 0.2)
    t = solver.solve(p, 1, zeros_tec(system2))
    assert np.all(t > system2.package.ambient_k)


def test_linearity_in_power(system2, solver):
    """G T = P is linear: doubling (P - ambient load) doubles the rise."""
    p = np.full(system2.nodes.n_components, 0.1)
    amb = system2.package.ambient_k
    t1 = solver.solve(p, 1, zeros_tec(system2))
    t2 = solver.solve(2 * p, 1, zeros_tec(system2))
    np.testing.assert_allclose(t2 - amb, 2 * (t1 - amb), rtol=1e-9)


def test_slower_fan_is_hotter(system2, solver):
    p = np.full(system2.nodes.n_components, 0.2)
    peaks = []
    for lv in range(1, system2.fan.n_levels + 1):
        t = solver.solve(p, lv, zeros_tec(system2))
        peaks.append(t[system2.nodes.component_slice].max())
    assert all(b > a for a, b in zip(peaks, peaks[1:]))


def test_tec_on_cools_the_hotspot(system2, solver):
    """Activating the devices over the hottest component must lower it."""
    nd = system2.nodes
    p = np.zeros(nd.n_components)
    hot_idx = 5
    p[hot_idx] = 1.0
    t0 = solver.solve(p, 2, zeros_tec(system2))
    tec = zeros_tec(system2)
    for dev in system2.tec.devices_over_component(hot_idx):
        tec[dev] = 1.0
    t1 = solver.solve(p, 2, tec)
    assert t1[hot_idx] < t0[hot_idx] - 0.5


def test_tec_heats_the_spreader(system2, solver):
    """The pumped heat plus Joule loss lands on the hot side."""
    nd = system2.nodes
    p = np.full(nd.n_components, 0.2)
    tec = np.ones(system2.n_tec_devices)
    t0 = solver.solve(p, 1, zeros_tec(system2))
    t1 = solver.solve(p, 1, tec)
    assert t1[nd.spreader_slice].mean() > t0[nd.spreader_slice].mean()


def test_lu_cache_reused_for_same_configuration(system2, solver):
    p = np.full(system2.nodes.n_components, 0.2)
    solver.solve(p, 1, zeros_tec(system2))
    n_fact = solver.n_factorizations
    for _ in range(5):
        solver.solve(p + np.random.default_rng(0).random(p.shape), 1,
                     zeros_tec(system2))
    assert solver.n_factorizations == n_fact  # same G -> no refactorization
    assert solver.n_solves == n_fact + 5


def test_cache_key_distinguishes_fan_and_tec(system2, solver):
    p = np.full(system2.nodes.n_components, 0.2)
    solver.solve(p, 1, zeros_tec(system2))
    solver.solve(p, 2, zeros_tec(system2))
    tec = zeros_tec(system2)
    tec[0] = 1.0
    solver.solve(p, 1, tec)
    assert solver.n_factorizations == 3


def test_cache_eviction(system2):
    solver = SteadyStateSolver(system2.cond, cache_size=2)
    p = np.full(system2.nodes.n_components, 0.2)
    for lv in (1, 2, 3):
        solver.solve(p, lv, zeros_tec(system2))
    solver.solve(p, 1, zeros_tec(system2))  # evicted -> refactorize
    assert solver.n_factorizations == 4


def test_fractional_activation_between_on_and_off(system2, solver):
    nd = system2.nodes
    p = np.full(nd.n_components, 0.3)
    t_off = solver.solve(p, 2, zeros_tec(system2))
    t_half = solver.solve(p, 2, np.full(system2.n_tec_devices, 0.5))
    t_on = solver.solve(p, 2, np.ones(system2.n_tec_devices))
    peak = lambda t: t[nd.component_slice].max()
    assert peak(t_on) <= peak(t_half) <= peak(t_off)


def test_colliding_quantized_keys_never_share_a_factorization(system2, solver):
    # 0.499 and 0.5 round to the same 1/256 bin but are different
    # conductance matrices: the second solve must not reuse the first LU.
    # The cache keys are exact, so the two keys differ.
    p = np.ones(system2.nodes.n_components)
    near, tec = zeros_tec(system2), zeros_tec(system2)
    near[0], tec[0] = 0.499, 0.5
    assert solver._keyer.key(2, near) != solver._keyer.key(2, tec)
    solver.solve(p, 2, near)
    warm = solver.solve(p, 2, tec)
    cold = SteadyStateSolver(system2.cond).solve(p, 2, tec)
    assert np.array_equal(warm, cold)
